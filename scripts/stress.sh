#!/usr/bin/env bash
# stress.sh — the race-stress and benchmark-smoke suite CI runs per
# GOMAXPROCS matrix cell (the multi-CPU cell races concurrent scans
# across scheduler slots and shards, which single-CPU runners never did). One script instead of five copy-pasted
# workflow steps; run locally with e.g. `GOMAXPROCS=4 scripts/stress.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== stress (GOMAXPROCS=${GOMAXPROCS:-default}) =="

# The query scheduler is all goroutines and channels; hammer its tests
# specifically under the race detector.
go test -race -count=3 ./internal/qsched/

# Scan runners start on arrival and drain the queue themselves: random
# submits, batches, cancellations and Close against a randomly released
# executor must keep the slot bound and the "queued means every slot is
# busy" invariant, answer every waiter and leak no goroutine.
go test -race -count=10 -run 'DispatchOnArrival' ./internal/qsched/

# The batch executor fills shared artifacts (predicate bitmaps, composed
# set masks) while sessions move to new views (SharedSubexpr, PerFilter); the
# pooled-partial pattern additionally recycles partial tables through the
# per-fact-table pool while AddFact ingest and SpatialSelect churn run
# against concurrent scans. The Packed
# pattern adds the compressed-column kernels: packed views held across
# ingest-driven width repacks and word-at-a-time predicate fills racing
# the appenders. The SharedWalk and SharedIntersection patterns add stage
# 3's shared walk: several users of one set mask ∩ view folding off one
# pooled intersection, released once. Every pattern's quiescent check
# compares against the executor-independent reference
# (internal/cube/cubetest).
go test -race -count=3 -run 'SharedSubexpr|PerFilter|PooledPartial|Packed|SharedWalk|SharedIntersection' ./internal/core/ ./internal/cube/

# Every fact table caches its hot artifacts across batches (always on):
# scheduler-routed scans hit and refill the cache while AddFact ingest
# bumps the table version under them, and the cache tests invalidate
# cached bitmaps and key columns by ingest and member mutation, sharded
# and unsharded.
go test -race -count=3 -run 'ArtifactCache|AddFactUnderQueries' ./internal/cube/ ./internal/core/ ./internal/shard/

# Sessions log in and export maps concurrently: the first radius rules and
# exports race to build and publish each table's point index and feature
# text (generation-tagged atomic pointers, internal/cube/derived.go).
go test -race -count=3 -run 'ConcurrentSessions|ConcurrentExport' ./internal/core/ ./internal/export/

# Logins of different users share each pure rule loop's memo (an atomic
# pointer on the compiled plan) while a city's geometry moves under them:
# every login must see one generation's data, and none after the move
# may replay a memo recorded before it. Sessions with equal selections
# share one view key, so their masks, shard splits and cached answers are
# shared too: random appends, selections and concurrent queries (two
# sessions selecting alike, one diverging) must each match the reference.
# Concurrent selection phases on one session publish their views as a
# union: neither's selections may be lost.
go test -race -count=10 -run 'ConcurrentLoginsShareRuleMemo|AppendSelectQueryRandomized|ConcurrentSelectsOnOneSessionUnion' ./internal/core/

# The sharded executor interleaves scatter-gather scans with routed
# ingest and view selections across per-shard locks.
go test -race -count=2 -run 'Sharded' ./internal/shard/ ./internal/core/

# The telemetry layer is scraped while it is written: concurrent
# GET /metrics + GET /api/stats against in-flight sharded batches and
# AddFact ingest (lock-free histograms, the scheduler-counter collector,
# and the trace ring all under the race detector).
go test -race -count=2 -run 'MetricsScrapeUnderShardedLoad|Obs' ./internal/webapi/ ./internal/obs/

# Compile-and-run every benchmark once so they cannot bit-rot; the named
# manifest benchmarks are additionally gated by scripts/bench.sh.
go test -run '^$' -bench=. -benchtime=1x ./...

# Run the paper's timing tables once so the command cannot bit-rot into a
# panic or log.Fatal (TestPaperClaims asserts the claims themselves).
go run ./cmd/experiments > /dev/null

# The plain test run only replays each fuzz target's seeds; give every
# target a short mutation budget of its own (go test -fuzz takes one
# target per run). Targets are found by their declarations, so a new
# Fuzz* test joins without an edit here.
mapfile -t fuzz_files < <(grep -rl --include='*_test.go' '^func Fuzz' . | sort)
((${#fuzz_files[@]} > 0)) || { echo "stress.sh: no fuzz targets found" >&2; exit 1; }
for file in "${fuzz_files[@]}"; do
  for target in $(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$file"); do
    go test -run '^$' -fuzz "^${target}\$" -fuzztime=5s "$(dirname "$file")/"
  done
done

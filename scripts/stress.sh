#!/usr/bin/env bash
# stress.sh — the race-stress and benchmark-smoke suite CI runs per
# GOMAXPROCS matrix cell (the multi-CPU cell exercises the parallelism
# single-CPU runners never did). One script instead of five copy-pasted
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

# The batch executor fills cross-worker artifacts (predicate bitmaps,
# composed set masks) while views mutate underneath (SharedSubexpr,
# PerFilter); the pooled-partial pattern additionally recycles partial
# tables through the per-fact-table pool while AddFact ingest and
# SpatialSelect churn run against the morsel-stealing scans. The Packed
# pattern adds the compressed-column kernels: packed views held across
# ingest-driven width repacks and word-at-a-time predicate fills racing
# the appenders. Every pattern's quiescent check compares against the
# executor-independent reference (internal/cube/cubetest).
go test -race -count=3 -run 'SharedSubexpr|PerFilter|PooledPartial|Packed' ./internal/core/ ./internal/cube/

# Sessions log in and export maps concurrently: the first radius rules and
# exports race to build and publish each table's point index and feature
# text (generation-tagged atomic pointers, internal/cube/derived.go).
go test -race -count=3 -run 'ConcurrentSessions|ConcurrentExport' ./internal/core/ ./internal/export/

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

#!/usr/bin/env bash
# bench.sh — the benchmark-regression pipeline: run the core executor
# benchmarks and emit BENCH_<n>.json (ns/op, allocs/op, sharing-ratio and
# pool-hit metrics) through cmd/benchjson. The manifest makes a renamed or
# deleted benchmark fail the pipeline instead of silently dropping its
# perf trajectory, and the baseline comparison fails the pipeline when a
# benchmark's allocs/op regresses past the tolerance. ns/op is recorded
# but not gated (wall time drifts with the host). ALLOC_BARS holds named
# benchmarks under an absolute allocs/op ceiling, which gates them from
# their first run.
#
# Env knobs:
#   BENCHTIME  go test -benchtime value   (default 1s: duration-based, so
#              per-op numbers amortize cold-start allocation — the
#              iterations:2 artifacts of BENCH_5 hid a 1.6MB/op mirage;
#              use 1x only for a smoke pass)
#   COUNT      go test -count value       (default 1)
#   OUT        output artifact path       (default BENCH_<n+1>.json, n
#              the highest checked-in BENCH_<n>.json). The artifact's
#              issue number is the <n> in OUT's name, or n+1 when OUT is
#              not named BENCH_<n>.json.
#   BASELINE   previous artifact to gate allocs/op against (default: the
#              highest-numbered BENCH_<n>.json other than OUT; set to ""
#              to skip the gate)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-1}"

# highest_bench prints the highest <n> among the given BENCH_<n>.json
# names other than $1 (-1 when there is none), compared numerically —
# BENCH_10 must outrank BENCH_9, which string sorts get wrong.
highest_bench() {
  local skip="$1" best=-1 f n
  shift
  for f in "$@"; do
    [[ "$f" != "$skip" ]] || continue
    n="${f#BENCH_}"
    n="${n%.json}"
    [[ "$n" =~ ^[0-9]+$ ]] || continue
    ((n > best)) && best=$n
  done
  echo "$best"
}

# The checked-in artifacts number the next one; an uncommitted artifact
# from an earlier run must not (a tarball without git falls back to the
# files present).
mapfile -t tracked < <(git ls-files 'BENCH_*.json' 2>/dev/null)
((${#tracked[@]} > 0)) || tracked=(BENCH_*.json)
NEXT=$(($(highest_bench "" "${tracked[@]}") + 1))
OUT="${OUT:-BENCH_${NEXT}.json}"
ISSUE="$NEXT"
if [[ "$(basename "$OUT")" =~ ^BENCH_([0-9]+)\.json$ ]]; then
  ISSUE="${BASH_REMATCH[1]}"
fi

if [[ -z "${BASELINE+x}" ]]; then
  BASELINE=""
  best=$(highest_bench "$OUT" BENCH_*.json)
  if ((best >= 0)); then
    BASELINE="BENCH_${best}.json"
  fi
fi

# The manifest: the benchmarks whose trajectory the repo records. The
# -bench regexp is derived from it, so one edit adds a benchmark to both
# the run and the existence gate.
MANIFEST="BenchmarkSharedSubexprBatch,BenchmarkBatchPartialPooling,BenchmarkShardedScan,BenchmarkArtifactCacheHit,BenchmarkPerFilterSharing,BenchmarkTraceOverhead,BenchmarkPackedScan,BenchmarkPackedPredicateKernel,BenchmarkCostAccountingOverhead,BenchmarkFairAdmissionOverhead,BenchmarkMultiLevelGroupBy,BenchmarkSessionStartInterested,BenchmarkSessionStartColdRules,BenchmarkViewMaterialize,BenchmarkLoneFilteredScan,BenchmarkDashboardBatch,BenchmarkSessionGeoJSON,BenchmarkSessionSVG,BenchmarkEncodeResult"

# Absolute allocs/op ceilings: an interested login (compiled rule plans,
# postings-built view) allocates per rule and per selection, not per loop
# iteration, whether its pure rule loop replays (warm) or runs (cold); a
# view materialization allocates per call, not per fact; a lone filtered scan allocates per plan
# and per scan (its own stage-1 bitmap comes from the pool); a GeoJSON map
# export allocates per call, not per feature (cached text, scratch lines),
# and so does an SVG map (two walks, simplified lines in one slice); a
# query answer's wire encoding allocates nothing into a warm buffer.
ALLOC_BARS="BenchmarkSessionStartInterested=300,BenchmarkSessionStartColdRules=1000,BenchmarkViewMaterialize=100,BenchmarkLoneFilteredScan=50,BenchmarkSessionGeoJSON=20,BenchmarkSessionSVG=20,BenchmarkEncodeResult=1"

go test -run '^$' \
  -bench "^(${MANIFEST//,/|})\$" \
  -benchtime "$BENCHTIME" -count "$COUNT" . \
  | go run ./cmd/benchjson -issue "$ISSUE" -out "$OUT" -manifest "$MANIFEST" \
      -benchtime "$BENCHTIME" -count "$COUNT" \
      -alloc-bars "$ALLOC_BARS" \
      ${BASELINE:+-baseline "$BASELINE"}

echo "bench.sh: wrote $OUT${BASELINE:+ (allocs/op gated against $BASELINE)}"

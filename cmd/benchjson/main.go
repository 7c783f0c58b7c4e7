// Command benchjson turns `go test -bench` output into the repo's
// benchmark-regression artifact (BENCH_<n>.json): one record per
// benchmark with its iteration count and every reported metric (ns/op,
// B/op, allocs/op, plus custom b.ReportMetric units such as preds/mask
// or queries/scan).
//
// It reads the benchmark stream on stdin, echoes it to stderr (so CI
// logs keep the raw numbers), and fails when a benchmark named in the
// manifest produced no results — a renamed or deleted benchmark then
// breaks the pipeline loudly instead of silently dropping its perf
// trajectory. With -baseline it additionally compares allocs/op per
// benchmark against the previous artifact and fails past -alloc-tolerance,
// so allocation regressions (a pool no longer hit, an artifact no longer
// released) break CI instead of drifting the trajectory; -nsop-gate opts
// named benchmarks into a ns/op comparison too (the tracing-overhead
// proof — see BenchmarkTraceOverhead), and -alloc-bars holds named
// benchmarks under an absolute allocs/op ceiling, baseline or not. The
// run's
// -benchtime/-count settings are recorded in the artifact so readers can
// tell a 1x smoke pass from a duration-based measurement.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchtime 1s . | \
//	  go run ./cmd/benchjson -issue 6 -out BENCH_6.json \
//	    -benchtime 1s -baseline BENCH_5.json \
//	    -manifest BenchmarkSharedSubexprBatch,BenchmarkShardedScan,...
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// benchResult is one benchmark line: name (sub-benchmark path included,
// GOMAXPROCS suffix stripped), iteration count, and metric → value.
type benchResult struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// report is the emitted artifact.
type report struct {
	Issue     int    `json:"issue"`
	Generated string `json:"generated"`
	// Benchtime and Count record the `go test` settings of the run, so a
	// reader of the artifact can tell a 1x smoke pass (whose per-op numbers
	// carry cold-start noise — see the BENCH_5 workers=1/shared allocation
	// mirage) from a duration-based measurement.
	Benchtime  string        `json:"benchtime,omitempty"`
	Count      int           `json:"count,omitempty"`
	GoOS       string        `json:"goos,omitempty"`
	GoArch     string        `json:"goarch,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*\S)\s*$`)

func main() {
	out := flag.String("out", "BENCH_6.json", "output JSON path")
	issue := flag.Int("issue", 6, "issue number recorded in the artifact")
	manifest := flag.String("manifest", "",
		"comma-separated benchmark names that MUST appear in the input (prefix match; fail otherwise)")
	benchtime := flag.String("benchtime", "", "go test -benchtime value of this run, recorded in the artifact")
	count := flag.Int("count", 0, "go test -count value of this run, recorded in the artifact")
	baseline := flag.String("baseline", "",
		"previous BENCH_<n>.json to compare allocs/op against (missing file warns and skips)")
	allocTol := flag.Float64("alloc-tolerance", 0.15,
		"allowed fractional allocs/op growth over -baseline before failing")
	nsopGate := flag.String("nsop-gate", "",
		"regexp of benchmark names whose ns/op is ALSO gated against -baseline (empty = none: wall time is too noisy to gate broadly; scope this to overhead-proof benchmarks such as ^BenchmarkTraceOverhead)")
	nsopTol := flag.Float64("nsop-tolerance", 0.30,
		"allowed fractional ns/op growth over -baseline for -nsop-gate benchmarks")
	allocBars := flag.String("alloc-bars", "",
		"comma-separated Name=N absolute allocs/op ceilings (prefix match, like -manifest): a benchmark at or above its bar fails the run, baseline or not")
	flag.Parse()
	bars, err := parseBars(*allocBars)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	rep := report{Issue: *issue, Generated: time.Now().UTC().Format(time.RFC3339),
		Benchtime: *benchtime, Count: *count}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		if v, ok := strings.CutPrefix(line, "goos: "); ok {
			rep.GoOS = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "goarch: "); ok {
			rep.GoArch = v
			continue
		}
		if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			rep.CPU = v
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		res := benchResult{Name: m[1], Iterations: iters, Metrics: map[string]float64{}}
		// The tail is value/unit pairs: "123 ns/op  45 B/op  6 allocs/op".
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break // not a metric tail (e.g. a log line that slipped in)
			}
			res.Metrics[fields[i+1]] = v
		}
		if len(res.Metrics) > 0 {
			rep.Benchmarks = append(rep.Benchmarks, res)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}

	// Manifest gate: every required benchmark must have produced at least
	// one result (sub-benchmarks extend the name, so prefix-match).
	var missing []string
	for _, want := range strings.Split(*manifest, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		found := false
		for _, b := range rep.Benchmarks {
			if b.Name == want || strings.HasPrefix(b.Name, want+"/") {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, want)
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: manifest benchmarks missing from input: %s\n",
			strings.Join(missing, ", "))
		fmt.Fprintln(os.Stderr, "benchjson: a renamed or deleted benchmark must be updated in scripts/bench.sh")
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: marshal: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmark results to %s\n", len(rep.Benchmarks), *out)

	// Regression gates against the previous artifact. The artifact above
	// is written regardless, so a failing run still leaves its numbers
	// behind for inspection. allocs/op is gated for every benchmark: it is
	// deterministic for a given code path, so growth there is a real
	// regression (a pool stopped being hit, an artifact stopped being
	// released), not scheduler jitter. ns/op is too noisy on shared
	// runners to gate broadly, but -nsop-gate opts specific benchmarks in
	// (with a looser tolerance) — the overhead-proof ones, where "tracing
	// off costs nothing" is the claim under test and wall time IS the
	// metric.
	code := checkBars(&rep, "allocs/op", bars)
	if *baseline != "" {
		if c := compareMetric(*baseline, &rep, "allocs/op", nil, *allocTol, 0.5); c != 0 {
			code = c
		}
		if *nsopGate != "" {
			re, err := regexp.Compile(*nsopGate)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: bad -nsop-gate %q: %v\n", *nsopGate, err)
				os.Exit(1)
			}
			if c := compareMetric(*baseline, &rep, "ns/op", re, *nsopTol, 0); c != 0 {
				code = c
			}
		}
	}
	if code != 0 {
		os.Exit(code)
	}
}

// parseBars parses -alloc-bars' "Name=N,..." list.
func parseBars(spec string) (map[string]float64, error) {
	bars := map[string]float64{}
	for _, kv := range strings.Split(spec, ",") {
		if kv = strings.TrimSpace(kv); kv == "" {
			continue
		}
		name, v, ok := strings.Cut(kv, "=")
		bar, err := strconv.ParseFloat(v, 64)
		if !ok || err != nil || bar <= 0 {
			return nil, fmt.Errorf("bad -alloc-bars entry %q (want Name=N)", kv)
		}
		bars[name] = bar
	}
	return bars, nil
}

// checkBars returns a non-zero exit code when a benchmark (or one of its
// sub-benchmarks) reports the metric at or above its absolute bar — the
// gate for a new benchmark, which has no baseline trajectory yet.
func checkBars(cur *report, metric string, bars map[string]float64) int {
	failed := 0
	for _, b := range cur.Benchmarks {
		for name, bar := range bars {
			if b.Name != name && !strings.HasPrefix(b.Name, name+"/") {
				continue
			}
			if v, ok := b.Metrics[metric]; ok && v >= bar {
				fmt.Fprintf(os.Stderr, "benchjson: BAR EXCEEDED %s: %.1f %s, bar %.0f\n", b.Name, v, metric, bar)
				failed++
			}
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// compareMetric returns a non-zero exit code when any benchmark present in
// both artifacts (and matching `only`, when non-nil) grew the given metric
// beyond the tolerance. grace is an absolute allowance on top of the
// fractional one (0.5 for allocs/op: never fail tiny counts on a single
// alloc). A missing or unreadable baseline — or a benchmark absent from it
// — warns and passes: the gate compares trajectories, it does not invent
// one on first run.
func compareMetric(path string, cur *report, metric string, only *regexp.Regexp, tol, grace float64) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: baseline %s unreadable (%v); skipping %s comparison\n", path, err, metric)
		return 0
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: baseline %s unparsable (%v); skipping %s comparison\n", path, err, metric)
		return 0
	}
	baseVals := map[string]float64{}
	for _, b := range base.Benchmarks {
		if v, ok := b.Metrics[metric]; ok {
			baseVals[b.Name] = v
		}
	}
	regressed := 0
	compared := 0
	for _, b := range cur.Benchmarks {
		if only != nil && !only.MatchString(b.Name) {
			continue
		}
		curV, ok := b.Metrics[metric]
		if !ok {
			continue
		}
		baseV, ok := baseVals[b.Name]
		if !ok {
			if only != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %s absent from baseline %s; its %s gate starts next run\n",
					b.Name, path, metric)
			}
			continue // new benchmark: no trajectory yet
		}
		compared++
		if curV > baseV*(1+tol)+grace {
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s: %.1f %s vs baseline %.1f (+%.1f%%, tolerance %.0f%%)\n",
				b.Name, curV, metric, baseV, 100*(curV-baseV)/baseV, 100*tol)
			regressed++
		}
	}
	fmt.Fprintf(os.Stderr, "benchjson: compared %s for %d benchmarks against %s (issue %d): %d regressed\n",
		metric, compared, path, base.Issue, regressed)
	if regressed > 0 {
		return 1
	}
	return 0
}

// Command bench is the repository's benchmark: it starts the real solapd
// on a loopback port, drives one of four named workloads at it over HTTP,
// checks sampled responses against an in-process oracle, and reports the
// end-to-end metrics of BENCHMARK.json; with -trace 1 it reports the
// per-layer metrics instead, from the server's own counters and from a
// traced in-process replay. Run it through bench/run.sh, which builds both
// programs. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// manifest is BENCHMARK.json: the benchmark reports exactly the metrics it
// names, with its units, and -repeat compares runs within its bounds.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// settings are the command line.
type settings struct {
	solapd  string
	outDir  string
	seed    int64
	seconds float64
	trace   bool
}

// setupBoots is how many times a run starts solapd; setup_s is the median.
const setupBoots = 5

// bootServer starts solapd setupBoots times, keeps the last one running and
// reports the median start-up time.
func bootServer(bin string) (*daemon, float64, error) {
	var boots []float64
	for i := 0; ; i++ {
		d, err := startDaemon(bin)
		if err != nil {
			return nil, 0, err
		}
		boots = append(boots, d.bootS)
		if i == setupBoots-1 {
			return d, median(boots), nil
		}
		d.stop()
	}
}

// measureSolapd is one run of one workload against a freshly started
// solapd: every metric it produced, by name.
func measureSolapd(wl workload, st settings) (*httpRun, error) {
	w, err := buildWorld(fullScale)
	if err != nil {
		return nil, err
	}
	d, setupS, err := bootServer(st.solapd)
	if err != nil {
		return nil, err
	}
	run, err := measure(w, wl, fullScale, server{base: d.base, pid: d.cmd.Process.Pid, setupS: setupS}, d.stop, st)
	d.stop() // also ends the copying of its stderr, read below
	if err != nil {
		return nil, fmt.Errorf("%w\nsolapd stderr: %s", err, d.stderr.String())
	}
	return run, nil
}

// measure runs workload wl at srv for st.seconds; a traced run spends half
// of them there, calls stopServer, and spends the rest replaying in
// process.
func measure(w *world, wl workload, sc scale, srv server, stopServer func(), st settings) (*httpRun, error) {
	clients := runtime.NumCPU()
	if wl.clients > 0 {
		clients = wl.clients
	}
	window := time.Duration(st.seconds * float64(time.Second))
	if st.trace {
		window /= 2
	}
	warm := min(window/5, 3*time.Second)
	run, err := runHTTP(w, wl, sc, srv, clients, st.seed, warm, window)
	if err != nil {
		return nil, err
	}
	stopServer()
	if !st.trace {
		return run, nil
	}
	b, err := tracedRun(w, wl, sc, clients, st.seed, st.outDir)
	if err != nil {
		return nil, err
	}
	addBudget(run.metrics, b)
	if run.metrics["cube.allocs_per_op"], err = cubeAllocsPerOp(w, wl, sc, clients, st.seed, 20); err != nil {
		return nil, err
	}
	micro, err := microMetrics(w, st.seed, sc)
	if err != nil {
		return nil, err
	}
	for k, v := range micro {
		run.metrics[k] = v
	}
	return run, nil
}

// addBudget names the traced run's numbers as BENCHMARK.json does.
func addBudget(m map[string]float64, b budget) {
	m["trace.roundtrip_ms"] = b.roundtrip
	m["trace.roundtrip_vs_e2e_ratio"] = b.roundtrip / m["p50_ms"]
	m["loadgen.net_ms"] = b.net
	m["webapi.self_ms"] = b.webapi
	m["core.self_ms"] = b.core
	m["qsched.self_ms"] = b.qsched
	m["qsched.cache_hit_ms"] = b.cacheHit
	m["cube.self_ms"] = b.cube
	m["cube.compile_us"] = b.named["cube.compile"] * 1e3
	for _, spanName := range []string{
		"cube.filter_mask", "cube.group_decode", "cube.accumulate", "cube.merge", "cube.finalize",
		"core.start_session", "core.spatial_select", "core.end_session", "export.geojson", "export.svg",
	} {
		m[spanName+"_ms"] = b.named[spanName]
	}
}

// report prints the named metrics, one per line, and returns them in the
// result's form. A metric the run did not produce is an error: the
// manifest and the program must agree.
func report(defs []metricDef, got map[string]float64) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	for _, def := range defs {
		v, ok := got[def.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json names metric %q, which this run did not produce", def.Name)
		}
		out[def.Name] = metricValue{Value: v, Unit: def.Unit}
		fmt.Printf("  %-34s %14.6g %s\n", def.Name, v, def.Unit)
	}
	return out, nil
}

func printEnvironment(st settings) {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("bench: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s seed=%d seconds=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu, commit, st.seed, st.seconds)
	fmt.Printf("bench: dataset seed=%d stores=%d sales=%d; open-loop rates dashboard=%g/s personalize=%g/s\n",
		dataSeed, dataStores, dataSales, dashboardRate, personalizeRate)
}

// single is the mode the benchmark driver uses: one workload, one result
// line.
func single(man *manifest, wl workload, st settings) int {
	run, err := measureSolapd(wl, st)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defs := man.EndToEnd
	if st.trace {
		defs = man.PerLayer
	}
	fmt.Printf("workload %s (trace %t)\n", wl.name, st.trace)
	metrics, err := report(defs, run.metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, why := range run.invalid {
		fmt.Fprintln(os.Stderr, "bench: invalid run:", why)
	}
	line, err := json.Marshal(result{Correct: run.failed == 0, Attempted: run.attempted, Failed: run.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(run.invalid) > 0 {
		return 1
	}
	return 0
}

// whole runs every workload untraced and traced, repeat times over, and
// fails unless each end-to-end metric of each workload stays within its
// bound of the first set.
func whole(man *manifest, st settings, repeat int) int {
	status := 0
	first := map[string]map[string]float64{}
	for set := 1; set <= repeat; set++ {
		for _, wl := range workloads {
			fmt.Printf("set %d workload %s\n", set, wl.name)
			all := map[string]float64{}
			for _, traced := range []bool{false, true} {
				s := st
				s.trace = traced
				run, err := measureSolapd(wl, s)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				for _, why := range run.invalid {
					fmt.Fprintf(os.Stderr, "bench: invalid run of %s: %s\n", wl.name, why)
					status = 1
				}
				for k, v := range run.metrics {
					if _, seen := all[k]; !seen { // end-to-end numbers come from the untraced run
						all[k] = v
					}
				}
			}
			for _, defs := range [][]metricDef{man.EndToEnd, man.PerLayer} {
				if _, err := report(defs, all); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
			}
			if set == 1 {
				first[wl.name] = all
				continue
			}
			for _, def := range man.EndToEnd {
				a, b := first[wl.name][def.Name], all[def.Name]
				// Either direction counts: the two sets ran the same code.
				worse := math.Abs(b-a) / a
				if worse > def.Bound {
					fmt.Fprintf(os.Stderr, "bench: %s %s differs by %.1f%% between set 1 (%g) and set %d (%g), bound %.0f%%\n",
						wl.name, def.Name, 100*worse, a, set, b, 100*def.Bound)
					status = 1
				}
			}
		}
	}
	return status
}

// sameWorkloads checks that the manifest and the program name the same
// workloads.
func sameWorkloads(man *manifest) error {
	var listed, built []string
	for _, w := range man.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		built = append(built, w.name)
	}
	sort.Strings(listed)
	sort.Strings(built)
	if fmt.Sprint(listed) != fmt.Sprint(built) {
		return fmt.Errorf("BENCHMARK.json names workloads %v, the program has %v", listed, built)
	}
	return nil
}

func main() {
	var st settings
	var workloadName, manifestPath string
	var traceFlag, repeat int
	flag.StringVar(&workloadName, "workload", "", "run this one workload and print one result line (default: all, untraced and traced)")
	flag.Int64Var(&st.seed, "seed", 1, "seed of the request stream; the dataset is fixed")
	flag.Float64Var(&st.seconds, "seconds", 0, "seconds measured per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics, with the traced replay")
	flag.IntVar(&repeat, "repeat", 1, "without -workload: run the whole set this many times and compare them within the bounds")
	flag.StringVar(&st.solapd, "solapd", "", "path of the solapd binary to start (bench/run.sh builds it)")
	flag.StringVar(&st.outDir, "out", "bench/out", "directory for trace-<workload>.json")
	flag.StringVar(&manifestPath, "manifest", "BENCHMARK.json", "the benchmark's manifest")
	flag.Parse()
	st.trace = traceFlag != 0

	man, err := loadManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if st.seconds <= 0 {
		st.seconds = float64(man.RunSeconds)
	}
	if st.solapd == "" {
		fmt.Fprintln(os.Stderr, "bench: -solapd is required; run bench/run.sh")
		os.Exit(1)
	}
	if err := sameWorkloads(man); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	printEnvironment(st)
	if workloadName == "" {
		os.Exit(whole(man, st, repeat))
	}
	wl, ok := workloadByName(workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", workloadName)
		os.Exit(1)
	}
	os.Exit(single(man, wl, st))
}

package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// server is where the HTTP API under test listens, and the process whose
// CPU and memory are charged to it.
type server struct {
	base string
	pid  int
	// setupS is the server's start-up time in seconds.
	setupS float64
}

// Limits beyond which a run measured the load generator rather than the
// server, and is refused.
const (
	maxLagP99Ms    = 50.0
	maxGenCPUShare = 1.0 / 3
)

// httpRun is everything one timed HTTP run produced.
type httpRun struct {
	metrics   map[string]float64 // every end-to-end metric and every HTTP-derived per-layer metric
	attempted int
	failed    int
	invalid   []string // why the run cannot be used, if it cannot
}

// runHTTP drives workload wl at srv: it prepares the server's state, warms
// up, measures one window, and checks the sampled responses against the
// oracle.
func runHTTP(w *world, wl workload, sc scale, srv server, clients int, seed int64, warm, window time.Duration) (*httpRun, error) {
	orc, err := newOracle(w, wl.build(w.geo, sc, clients, seed))
	if err != nil {
		return nil, err
	}
	defer orc.close()

	// A closed loop has one connection per client. An open loop stands for
	// independent users, who do not queue for each other's connections.
	conns := clients
	if wl.rate > 0 {
		conns = openLoopConns
	}
	client := newHTTPClient(conns)
	defer client.CloseIdleConnections()
	targets := make([]*httpTarget, conns)
	for i := range targets {
		targets[i] = &httpTarget{base: srv.base, client: client}
	}
	p := wl.build(w.geo, sc, clients, seed)
	sessions, err := prepare(targets[0], p)
	if err != nil {
		return nil, err
	}
	g := newLoadgen(wl, p, sessions, targets, seed, sc.oracleEvery)
	if err := g.prefill(); err != nil {
		return nil, err
	}
	g.phase(warm)

	before, err := scrapeServer(client, srv.base)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(srv.pid)
	if err != nil {
		return nil, err
	}
	res := g.phase(window)
	cpu1, err := procCPU(srv.pid)
	if err != nil {
		return nil, err
	}
	after, err := scrapeServer(client, srv.base)
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSSMB(srv.pid)
	if err != nil {
		return nil, err
	}

	run := &httpRun{attempted: res.attempted, failed: res.failed}
	firstErr := res.firstErr
	for _, s := range res.samples {
		if err := orc.check(s); err != nil {
			run.failed++
			res.completed--
			if firstErr == nil {
				firstErr = fmt.Errorf("oracle: %w", err)
			}
		}
	}
	if run.attempted == 0 {
		return nil, fmt.Errorf("no operation completed in %v (first error: %v)", window, firstErr)
	}
	run.metrics = httpMetrics(wl, srv, res, before, after, cpu1-cpu0, rss, run.failed)
	if run.failed > 0 {
		run.invalid = append(run.invalid, fmt.Sprintf("%d of %d operations failed, first: %v", run.failed, run.attempted, firstErr))
	}
	if lag := run.metrics["loadgen.lag_p99_ms"]; lag > maxLagP99Ms {
		run.invalid = append(run.invalid, fmt.Sprintf("load generator ran late: lag p99 %.3f ms > %.1f ms", lag, maxLagP99Ms))
	}
	if share := run.metrics["loadgen.cpu_share"]; share > maxGenCPUShare {
		run.invalid = append(run.invalid, fmt.Sprintf("load generator used %.2f of a core > %.2f", share, maxGenCPUShare))
	}
	return run, nil
}

func httpMetrics(wl workload, srv server, res phaseResult, before, after scrape, cpuS, rssMB float64, failed int) map[string]float64 {
	secs := res.window.Seconds()
	ops := float64(res.attempted)
	d := func(f func(serverStats) int64) int64 { return f(after.stats) - f(before.stats) }
	hits := d(func(s serverStats) int64 { return s.CacheHits })
	misses := d(func(s serverStats) int64 { return s.CacheMisses })
	// A closed loop completes what it can inside the window. An open loop
	// is offered a fixed number of operations; its rate is those that
	// succeeded over the time the last of them took to complete, which
	// falls below the offered rate only when a backlog grows.
	opsPerS := float64(res.completed) / secs
	if wl.rate > 0 {
		opsPerS = float64(len(res.lat)) / res.elapsed.Seconds()
	}
	m := map[string]float64{
		"ops_per_s":     opsPerS,
		"p50_ms":        percentile(res.lat, 50),
		"p95_ms":        percentile(res.lat, 95),
		"cpu_ms_per_op": cpuS * 1e3 / ops,
		"rss_peak_mb":   rssMB,
		"setup_s":       srv.setupS,

		"fail_ratio":         float64(failed) / ops,
		"loadgen.lag_p99_ms": percentile(res.lagMs, 99),
		"loadgen.p99_ms":     percentile(res.lat, 99),
		"loadgen.cpu_share":  res.genCPU / secs,

		"webapi.resp_bytes_per_op": float64(res.respBytes) / ops,
		"webapi.status_429":        float64(res.status429),
		"webapi.status_504":        float64(res.status504),
		"webapi.status_5xx":        float64(res.status5xx),

		"qsched.result_cache_hit_ratio": ratio(hits, hits+misses),
		"qsched.cache_evictions":        float64(d(func(s serverStats) int64 { return s.CacheEvictions })),
		"qsched.coalesce_ratio": ratio(d(func(s serverStats) int64 { return s.Executed + s.Shared }),
			d(func(s serverStats) int64 { return s.FactScans })),
		"qsched.queue_wait_p50_ms": histP50Ms(before.queueWait, after.queueWait),
		"qsched.shed_total":        float64(d(func(s serverStats) int64 { return s.ShedTotal })),
		"qsched.timed_out":         float64(d(func(s serverStats) int64 { return s.TimedOut })),

		"cube.facts_scanned_per_op": float64(res.facts) / ops,
		"cube.cells_touched_per_op": float64(res.cells) / ops,
		"cube.filter_mask_sharing_ratio": ratio(d(func(s serverStats) int64 { return s.FilterSets }),
			d(func(s serverStats) int64 { return s.FilterMasks })),
		"cube.predicate_sharing_ratio": ratio(d(func(s serverStats) int64 { return s.FilterPredicates }),
			d(func(s serverStats) int64 { return s.PredicateMasks })),
		"cube.group_key_sharing_ratio": ratio(d(func(s serverStats) int64 { return s.GroupKeySets }),
			d(func(s serverStats) int64 { return s.GroupKeyCols })),
	}
	for _, k := range []stepKind{stepLogin, stepSelect, stepBatch, stepGeoJSON, stepMapSVG, stepLogout} {
		m["webapi."+stepNames[k]+"_p50_ms"] = percentile(res.stepLat[k], 50)
	}
	return m
}

// percentile is the p-th percentile of v by linear interpolation between
// closest ranks; 0 for no samples.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return percentile(v, 50) }

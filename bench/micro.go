package main

import (
	"math/rand"
	"runtime"
	"time"

	"sdwp"
	"sdwp/internal/core"
	"sdwp/internal/cube"
	"sdwp/internal/geoidx"
	"sdwp/internal/geom"
	"sdwp/internal/prml"
	"sdwp/internal/qsched"
	"sdwp/internal/shard"
	"sdwp/internal/webapi"
)

// sink keeps measured calls from being optimized away.
var sink float64

// medianOf times f n times and returns the median in ms.
func medianOf(n int, f func(i int)) float64 {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		f(i)
		d[i] = ms(time.Since(t0))
	}
	return median(d)
}

// exploreSample is n of explore's baseline queries, for the measurements
// that compare two ways of running the same scan.
func exploreSample(w *world, sc scale, seed int64, n int) []cube.Query {
	p := buildExplore(w.geo, sc, 1, seed)
	rng := rand.New(rand.NewSource(streamSeed(seed, 0)))
	var out []cube.Query
	for len(out) < n {
		if spec := p.next(rng, 0).steps[0].queries[0]; spec.Baseline {
			out = append(out, spec.cubeQuery())
		}
	}
	return out
}

func scanMs(ex qsched.Executor, qs []cube.Query) (float64, error) {
	var err error
	med := medianOf(len(qs), func(i int) {
		cq, cerr := ex.Compile(qs[i])
		if cerr != nil {
			err = cerr
			return
		}
		if _, _, xerr := ex.ExecuteBatchCompiledOpt([]*cube.CompiledQuery{cq}, []*cube.View{nil}, cube.BatchOptions{}); xerr != nil {
			err = xerr
		}
	})
	return med, err
}

// microMetrics measures the layers no workload reaches over HTTP, and the
// ones whose cost is independent of the workload. Names are the per-layer
// metric names of BENCHMARK.json.
func microMetrics(w *world, seed int64, sc scale) (map[string]float64, error) {
	m := map[string]float64{"datagen.generate_s": w.generateS}

	var perr error
	m["prml.parse_ms"] = medianOf(20, func(int) {
		if _, err := prml.Parse(sdwp.PaperRules); err != nil {
			perr = err
		}
	})
	if perr != nil {
		return nil, perr
	}

	idx := geoidx.NewPointIndex(w.geo.stores)
	m["geoidx.members_within_5km_us"] = 1e3 * medianOf(len(w.geo.cities), func(i int) {
		idx.WithinKm(w.geo.cities[i], 5, func(int32) bool { sink++; return true })
	})

	const pairs = 200000
	t0 := time.Now()
	for i := 0; i < pairs; i++ {
		sink += geom.GeodeticDistance(w.geo.stores[i%len(w.geo.stores)], w.geo.cities[i%len(w.geo.cities)])
	}
	m["geom.distance_ns"] = float64(time.Since(t0).Nanoseconds()) / pairs

	// Sharding: the same scans on a 4-shard table over the same facts.
	qs := exploreSample(w, sc, seed, 20)
	cubeMs, err := scanMs(w.ds.Cube, qs)
	if err != nil {
		return nil, err
	}
	shardMs, err := scanMs(shard.New(w.ds.Cube, shard.Options{Shards: 4}), qs)
	if err != nil {
		return nil, err
	}
	m["shard.scan_overhead_ratio"] = shardMs / cubeMs

	// Ingest, on a warehouse of its own: AddFact changes the cube.
	cfg := sdwp.DefaultDataConfig()
	small, err := sdwp.GenerateData(cfg)
	if err != nil {
		return nil, err
	}
	const adds = 5000
	rng := rand.New(rand.NewSource(seed))
	addFacts := func(add func(string, map[string]int32, map[string]float64) error) (float64, error) {
		t0 := time.Now()
		for i := 0; i < adds; i++ {
			err := add("Sales", map[string]int32{
				"Store": int32(rng.Intn(cfg.Stores)), "Customer": int32(rng.Intn(cfg.Customers)),
				"Product": int32(rng.Intn(cfg.Products)), "Time": int32(rng.Intn(cfg.Days)),
			}, map[string]float64{"UnitSales": 1, "StoreCost": 2, "StoreSales": 3})
			if err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Microseconds()) / adds, nil
	}
	if m["cube.add_fact_us"], err = addFacts(small.Cube.AddFact); err != nil {
		return nil, err
	}
	if m["shard.add_fact_us"], err = addFacts(shard.New(small.Cube, shard.Options{Shards: 4}).AddFact); err != nil {
		return nil, err
	}

	// Tracing: the same queries served with every trace retained and with
	// tracing off.
	serveMs := func(rate float64) (float64, error) {
		opts := solapdOptions()
		opts.TraceSampleRate = rate
		return serveExplore(w, opts, seed, sc, 60)
	}
	on, err := serveMs(1)
	if err != nil {
		return nil, err
	}
	off, err := serveMs(0)
	if err != nil {
		return nil, err
	}
	m["obs.trace_overhead_ratio"] = on / off
	return m, nil
}

// serveExplore is the median ms of n explore operations served on a
// recorder by an engine with the given options.
func serveExplore(w *world, opts core.Options, seed int64, sc scale, n int) (float64, error) {
	engine, err := w.newEngine(opts)
	if err != nil {
		return 0, err
	}
	defer engine.Close()
	t := &httpTarget{handler: webapi.NewServer(engine)}
	p := buildExplore(w.geo, sc, 1, seed)
	sessions, err := prepare(t, p)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(streamSeed(seed, 0)))
	var serr error
	med := medianOf(n, func(int) {
		if err := runSteps(t, sessions[0], p.next(rng, 0).steps); err != nil {
			serr = err
		}
	})
	return med, serr
}

// cubeAllocsPerOp is the heap allocations per operation of compiling and
// executing the workload's first n operations' queries directly on the
// cube, one operation per batch, through the views of prepared sessions.
func cubeAllocsPerOp(w *world, wl workload, sc scale, clients int, seed int64, n int) (float64, error) {
	engine, err := w.newEngine(solapdOptions())
	if err != nil {
		return 0, err
	}
	defer engine.Close()
	t := &engineTarget{engine: engine}
	p := wl.build(w.geo, sc, clients, seed)
	sessions, err := prepare(t, p)
	if err != nil {
		return 0, err
	}
	type batch struct {
		qs []cube.Query
		vs []*cube.View
	}
	var batches []batch
	rng := rand.New(rand.NewSource(streamSeed(seed, 0)))
	for i := 0; i < n; i++ {
		o := p.next(rng, 0)
		s := sessionFor(sessions, o)
		var b batch
		for _, st := range o.steps {
			switch st.kind {
			case stepQuery, stepBatch:
				for _, spec := range st.queries {
					var v *cube.View
					if !spec.Baseline {
						v = s.cs.View()
					}
					b.qs, b.vs = append(b.qs, spec.cubeQuery()), append(b.vs, v)
				}
			case stepLogin, stepSelect:
				if _, err := t.step(s, st); err != nil {
					return 0, err
				}
			}
		}
		batches = append(batches, b)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range batches {
		cqs := make([]*cube.CompiledQuery, len(b.qs))
		for i, q := range b.qs {
			if cqs[i], err = w.ds.Cube.Compile(q); err != nil {
				return 0, err
			}
		}
		if _, _, err := w.ds.Cube.ExecuteBatchCompiledOpt(cqs, b.vs, cube.BatchOptions{}); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

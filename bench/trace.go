package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sdwp/internal/cube"
	"sdwp/internal/obs"
	"sdwp/internal/qsched"
	"sdwp/internal/webapi"
)

// span is one timed call, recorded from the benchmark's side of a layer's
// public function. Spans of one operation share Op; Parent is the ID of
// the span whose call caused this one (0: none).
type span struct {
	Pass   string `json:"pass"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"` // since the traced run began
	End    int64  `json:"endNs"`
}

// recorder keeps spans in memory until the traced run ends. The replaying
// goroutine sets op; the scheduler's dispatch goroutine records the cube
// spans, so everything is under mu.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	pass  string // "" while the lanes warm up: nothing is recorded
	op    int
	open  int // ID of the replaying goroutine's open span
}

// recording reports whether the traced replay has begun.
func (r *recorder) recording() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pass != ""
}

// setOpen makes id the replaying goroutine's open span and returns the one
// it replaces.
func (r *recorder) setOpen(id int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.open
	r.open = id
	return prev
}

func (r *recorder) begin(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Pass: r.pass, Name: name, Op: r.op, ID: id, Parent: r.open,
		Start: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id int) {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// child records a finished span under parent, laid out from start.
func (r *recorder) child(name string, parent int, start int64, d time.Duration) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Pass: r.pass, Name: name, Op: r.op, ID: len(r.spans) + 1,
		Parent: parent, Start: start, End: start + int64(d)})
	return start + int64(d)
}

// tracedTarget records a span around each step it has a name for.
type tracedTarget struct {
	inner target
	rec   *recorder
	names [numStepKinds]string
}

func (t *tracedTarget) step(s *sess, st step) (reply, error) {
	name := t.names[st.kind]
	if name == "" {
		return t.inner.step(s, st)
	}
	id := t.rec.begin(name)
	outer := t.rec.setOpen(id)
	rep, err := t.inner.step(s, st)
	t.rec.end(id)
	t.rec.setOpen(outer)
	return rep, err
}

func allSteps(name string) (n [numStepKinds]string) {
	for k := range n {
		n[k] = name
	}
	return n
}

// The span names of each pass. A pass replays the same operations one
// level further down the stack than the pass before it.
var (
	roundtripNames = allSteps("loadgen.roundtrip")
	serveNames     = allSteps("webapi.serve")
	coreNames      = [numStepKinds]string{
		stepLogin: "core.start_session", stepSelect: "core.spatial_select",
		stepQuery: "core.query", stepBatch: "core.query",
		stepGeoJSON: "export.geojson", stepMapSVG: "export.svg", stepLogout: "core.end_session",
	}
	schedNames = [numStepKinds]string{stepQuery: "qsched.submit", stepBatch: "qsched.submit"}
)

// tracedExec is the scheduler's executor with a span around each call into
// the cube, and the cube's own ScanTrace unfolded into stage spans.
type tracedExec struct {
	c   *cube.Cube
	rec *recorder
}

func (t *tracedExec) Compile(q cube.Query) (*cube.CompiledQuery, error) {
	if !t.rec.recording() {
		return t.c.Compile(q)
	}
	id := t.rec.begin("cube.compile")
	defer t.rec.end(id)
	return t.c.Compile(q)
}

func (t *tracedExec) ExecuteParallel(q cube.Query, v *cube.View, workers int) (*cube.Result, error) {
	return t.c.ExecuteParallel(q, v, workers)
}

func (t *tracedExec) ExecuteBatch(qs []cube.Query, vs []*cube.View, workers int) ([]*cube.Result, error) {
	return t.c.ExecuteBatch(qs, vs, workers)
}

func (t *tracedExec) ExecuteBatchCompiledOpt(cqs []*cube.CompiledQuery, vs []*cube.View, opts cube.BatchOptions) ([]*cube.Result, cube.SharingStats, error) {
	if !t.rec.recording() {
		return t.c.ExecuteBatchCompiledOpt(cqs, vs, opts)
	}
	if opts.Trace == nil {
		opts.Trace = &obs.ScanTrace{}
	}
	id := t.rec.begin("cube.execute")
	res, sharing, err := t.c.ExecuteBatchCompiledOpt(cqs, vs, opts)
	t.rec.end(id)
	t.rec.mu.Lock()
	at := t.rec.spans[id-1].Start
	t.rec.mu.Unlock()
	shards, gather := opts.Trace.Snapshot()
	for _, s := range shards {
		at = t.rec.child("cube.filter_mask", id, at, s.FilterMask)
		at = t.rec.child("cube.group_decode", id, at, s.GroupDecode)
		at = t.rec.child("cube.accumulate", id, at, s.Accumulate)
		at = t.rec.child("cube.merge", id, at, s.Merge)
	}
	t.rec.child("cube.finalize", id, at, gather)
	return res, sharing, err
}

// schedulerOptions are the options core.NewEngine gives its scheduler under
// solapdOptions, for the pass that calls a scheduler directly.
func schedulerOptions() qsched.Options {
	o := solapdOptions()
	return qsched.Options{
		Window:     o.CoalesceWindow,
		CacheBytes: o.ResultCacheBytes,
		Metrics:    obs.NewQueryMetricsCap(obs.NewRegistry(), 0),
		Costs:      obs.NewAccountant(obs.AccountantOptions{}),
	}
}

// lane is one depth of the stack, ready to replay operations: its own
// engine (so every lane sees each operation once, with the cache state the
// operations before it left), its own copy of the request stream.
type lane struct {
	name     string
	t        *tracedTarget
	p        plan
	sessions []*sess
	rng      *rand.Rand
	close    []func()
}

func (l *lane) shut() {
	for i := len(l.close) - 1; i >= 0; i-- {
		l.close[i]()
	}
}

func newLane(name string, r *recorder, w *world, wl workload, sc scale, clients int, seed int64) (*lane, error) {
	engine, err := w.newEngine(solapdOptions())
	if err != nil {
		return nil, err
	}
	l := &lane{name: name, close: []func(){engine.Close}}
	var inner target
	var names [numStepKinds]string
	switch name {
	case "roundtrip":
		srv := httptest.NewServer(webapi.NewServer(engine))
		client := newHTTPClient(1)
		l.close = append(l.close, srv.Close, client.CloseIdleConnections)
		inner, names = &httpTarget{base: srv.URL, client: client}, roundtripNames
	case "serve":
		inner, names = &httpTarget{handler: webapi.NewServer(engine)}, serveNames
	case "core":
		inner, names = &engineTarget{engine: engine}, coreNames
	case "sched":
		sched := qsched.New(&tracedExec{c: w.ds.Cube, rec: r}, schedulerOptions())
		l.close = append(l.close, sched.Close)
		inner, names = &engineTarget{engine: engine, sched: sched}, schedNames
	}
	l.p = wl.build(w.geo, sc, clients, seed)
	if l.sessions, err = prepare(inner, l.p); err != nil {
		l.shut()
		return nil, fmt.Errorf("lane %s: %w", name, err)
	}
	// Warm the lane as the timed window finds the server: the hottest
	// prefill operations, then the first operations of the stream.
	l.rng = rand.New(rand.NewSource(streamSeed(seed, 0)))
	warm := l.p.prefill[max(0, len(l.p.prefill)-tracedPrefill):]
	for i := 0; i < wl.tracedWarm; i++ {
		warm = append(warm[:len(warm):len(warm)], l.p.next(l.rng, 0))
	}
	for _, o := range warm {
		if err := runSteps(inner, sessionFor(l.sessions, o), o.steps); err != nil {
			l.shut()
			return nil, fmt.Errorf("lane %s warm-up: %w", name, err)
		}
	}
	l.t = &tracedTarget{inner: inner, rec: r, names: names}
	return l, nil
}

// budget is the traced run's result: per-operation medians, in ms.
type budget struct {
	// roundtrip = net + webapi + core + qsched + cube: each layer's self
	// time is the median of its lane minus the median of the lane below.
	roundtrip, net, webapi, core, qsched, cube float64
	// named is each span name's time summed per operation, as the median
	// over the operations that have such a span.
	named map[string]float64
	// cacheHit is the median qsched.submit time of operations the result
	// cache answered entirely (0 when there were none).
	cacheHit float64
}

// laneNames are the depths, outermost first: a loopback round trip to an
// httptest server; Server.ServeHTTP on a recorder; the engine, session and
// export functions the handlers call; a scheduler over a cube whose calls
// are themselves recorded.
var laneNames = []string{"roundtrip", "serve", "core", "sched"}

// tracedRun replays wl.tracedOps operations of the workload's stream, one
// client, at each depth of the stack and writes every span to
// outDir/trace-<workload>.json. Each operation runs at all depths back to
// back, so slow moments of the machine fall on every lane alike.
func tracedRun(w *world, wl workload, sc scale, clients int, seed int64, outDir string) (budget, error) {
	n := wl.tracedOps
	rec := &recorder{t0: time.Now()}
	var lanes []*lane
	defer func() {
		for _, l := range lanes {
			l.shut()
		}
	}()
	for _, name := range laneNames {
		l, err := newLane(name, rec, w, wl, sc, clients, seed)
		if err != nil {
			return budget{}, err
		}
		lanes = append(lanes, l)
	}
	for i := 0; i < n; i++ {
		for _, l := range lanes {
			rec.mu.Lock()
			rec.pass, rec.op = l.name, i
			rec.mu.Unlock()
			o := l.p.next(l.rng, 0)
			if err := runSteps(l.t, sessionFor(l.sessions, o), o.steps); err != nil {
				return budget{}, fmt.Errorf("lane %s op %d: %w", l.name, i, err)
			}
		}
	}
	b := summarize(rec.spans, n)
	return b, writeTrace(filepath.Join(outDir, "trace-"+wl.name+".json"), wl.name, seed, n, b, rec.spans)
}

// summarize turns spans into the layer budget.
func summarize(spans []span, n int) budget {
	sums := map[string][]float64{} // name -> per-op total ms
	scanned := make([]bool, n)     // op reached the cube in the sched pass
	for _, s := range spans {
		if sums[s.Name] == nil {
			sums[s.Name] = make([]float64, n)
		}
		sums[s.Name][s.Op] += float64(s.End-s.Start) / 1e6
		if s.Name == "cube.execute" {
			scanned[s.Op] = true
		}
	}
	b := budget{named: map[string]float64{}}
	for name, per := range sums {
		var present []float64
		for _, v := range per {
			if v > 0 {
				present = append(present, v)
			}
		}
		b.named[name] = median(present)
	}
	all := func(name string) float64 { return median(sums[name]) }
	perOp := func(names ...string) []float64 {
		out := make([]float64, n)
		for _, name := range names {
			for i, v := range sums[name] {
				out[i] += v
			}
		}
		return out
	}
	corePass := median(perOp("core.start_session", "core.spatial_select", "core.query",
		"export.geojson", "export.svg", "core.end_session"))
	cubePass := median(perOp("cube.compile", "cube.execute"))
	b.roundtrip = all("loadgen.roundtrip")
	b.net = b.roundtrip - all("webapi.serve")
	b.webapi = all("webapi.serve") - corePass
	// core.self is everything the handlers call except the scheduler: on
	// personalize that is session start, selection, export and session end.
	b.core = corePass - all("qsched.submit")
	b.qsched = all("qsched.submit") - cubePass
	b.cube = cubePass
	var hits []float64
	for i, v := range sums["qsched.submit"] {
		if !scanned[i] && v > 0 {
			hits = append(hits, v)
		}
	}
	b.cacheHit = median(hits)
	return b
}

func writeTrace(path, workload string, seed int64, n int, b budget, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"workload": workload, "seed": seed, "operations": n,
		"budgetMs": map[string]float64{"roundtrip": b.roundtrip, "loadgen.net": b.net,
			"webapi.self": b.webapi, "core.self": b.core, "qsched.self": b.qsched, "cube.self": b.cube},
		"spans": spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

var _ qsched.Executor = (*tracedExec)(nil)

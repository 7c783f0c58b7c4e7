// Package core implements the paper's primary contribution: the spatial
// personalization engine for data warehouses. It wires together the three
// conceptual models — the spatial-aware user model (package usermodel), the
// multidimensional/GeoMD model (packages mdmodel and geomd) and the PRML
// rule language (package prml) — over the SOLAP cube substrate (package
// cube), and executes the two-phase personalization process of the paper's
// Fig. 1:
//
//  1. When a decision maker starts an analysis session, schema rules run
//     first and produce a per-session personalized GeoMD model
//     (BecomeSpatial, AddLayer), then instance rules run and produce a
//     personalized cube view (SelectInstance under spatial conditions).
//  2. During the session, spatial selections the user performs fire
//     tracking rules that acquire knowledge into the user model
//     (SetContent), which future sessions' rules can react to.
package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sdwp/internal/cube"
	"sdwp/internal/geom"
	"sdwp/internal/obs"
	"sdwp/internal/prml"
	"sdwp/internal/qsched"
	"sdwp/internal/shard"
	"sdwp/internal/usermodel"
)

// Options configures an Engine.
type Options struct {
	// Planar switches the Distance/unary-Distance operators from geodetic
	// kilometres (the default, for lon/lat data) to planar units (used by
	// tests and the ablation benchmarks; see internal/geom).
	Planar bool
	// DisableRuleOptimizer turns off the radius-query execution plan for
	// the Foreach/Distance/SelectInstance idiom (see internal/core/
	// optimize.go), forcing the generic rule interpreter. Used by the
	// ablation benchmarks.
	DisableRuleOptimizer bool
	// CoalesceWindow is ignored. The scheduler dispatches on arrival: a
	// query that finds a free scan slot starts scanning at once, and
	// concurrent queries coalesce behind busy slots (MaxInFlightScans).
	//
	// Deprecated: kept solely because the benchmark harness names it
	// (bench/oracle.go sets it, bench/trace.go copies it into
	// qsched.Options.Window); it goes when that harness stops naming it.
	CoalesceWindow time.Duration
	// MaxInFlightScans bounds concurrent shared scans dispatched by the
	// scheduler (0 = qsched.DefaultMaxInFlight).
	MaxInFlightScans int
	// ResultCacheBytes sizes the scheduler's epoch-keyed personalized
	// result cache; 0 disables caching (the default: repeated queries in
	// benchmarks and experiments then measure real scans).
	ResultCacheBytes int64
	// FactShards hash-partitions every fact table into this many shards
	// behind the scheduler (internal/shard): ingest and scans then scale
	// across independent per-shard locks and the scatter-gather executor
	// merges per-shard partials into results identical to the unsharded
	// engine. 0 or 1 keeps today's single-table path exactly. With shards,
	// MaxInFlightScans also bounds the per-batch shard-scan fan-out.
	FactShards int
	// QueryTimeout is the scheduler's admission deadline: a query still
	// queued this long is dropped with a descriptive error instead of
	// executing late (0 = no deadline). Per-request contexts passed to
	// Session.QueryCtx/QueryBatchCtx can tighten it per query.
	QueryTimeout time.Duration
	// TraceSampleRate enables query-lifecycle tracing: each traced query
	// records a span tree (admission wait, compile, shared scan with
	// per-shard stage timings, finalize) served by GET /api/trace/{id}.
	// Queries that end in an error are always retained; successful ones
	// are kept with this probability (1 = every query, 0 = tracing off —
	// the default, which skips trace allocation entirely). Latency
	// histograms and /metrics are independent of this knob and always on.
	TraceSampleRate float64
	// SlowQueryThreshold logs a structured warning (slog) for any query
	// whose end-to-end latency — admission wait included — meets or
	// exceeds it, with its trace ID and stage breakdown (0 = off).
	SlowQueryThreshold time.Duration
	// MaxQueueDepth turns on overload shedding by queue depth: when the
	// scheduler's admission queue is at or past it, queries from tenants
	// at or over their fair share are refused with qsched.ErrOverloaded
	// (HTTP 429 + Retry-After at the web layer) instead of queueing toward
	// the QueryTimeout deadline (0 = off).
	MaxQueueDepth int
	// TargetQueueWait turns on overload shedding by admission latency:
	// when the smoothed admission wait exceeds it, over-share tenants are
	// shed (0 = off). Set it well below QueryTimeout — shedding exists to
	// act before the 504 deadline does.
	TargetQueueWait time.Duration
	// TenantWeights maps userKey → fair-share weight for the scheduler's
	// cost-driven admission (unlisted tenants weigh 1; a weight-2 tenant
	// sustains twice the attributed scan cost before losing priority).
	TenantWeights map[string]float64
}

// lockedCubeExec is the unsharded engine's executor: the cube fronted by
// one RWMutex so Engine.AddFact (write) is safe against in-flight scans
// and compiles (read). The sharded table has finer-grained per-shard
// locks and does this itself; here a single warehouse-wide lock matches
// the single fact table it guards. Reads are shared, so concurrent
// queries pay one uncontended RLock per scan.
type lockedCubeExec struct {
	mu sync.RWMutex
	c  *cube.Cube
}

func (l *lockedCubeExec) Compile(q cube.Query) (*cube.CompiledQuery, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.c.Compile(q)
}

func (l *lockedCubeExec) ExecuteBatchCompiledOpt(cqs []*cube.CompiledQuery, vs []*cube.View, opts cube.BatchOptions) ([]*cube.Result, cube.SharingStats, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.c.ExecuteBatchCompiledOpt(cqs, vs, opts)
}

// FactVersion reads the table's atomic mutation counter; it needs no lock.
func (l *lockedCubeExec) FactVersion(fact string) uint64 { return l.c.FactVersion(fact) }

// addFact appends under the write lock: no scan or compile is mid-flight
// while fact columns reallocate.
func (l *lockedCubeExec) addFact(fact string, keys map[string]int32, measures map[string]float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c.AddFact(fact, keys, measures)
}

// materializeView builds a view's combined fact masks under the read
// lock (mask building walks the fact key columns).
func (l *lockedCubeExec) materializeView(v *cube.View, facts []string) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, f := range facts {
		v.Materialize(f)
	}
}

// Engine is the personalization engine for one warehouse deployment.
type Engine struct {
	cube  *cube.Cube
	users *usermodel.Store
	opts  Options
	sched *qsched.Scheduler
	// exec is what the scheduler dispatches to: the RWMutex-fronted cube,
	// or — with Options.FactShards > 1 — the sharded table routing
	// scatter-gather scans across fact shards.
	exec qsched.Executor
	// locked is the unsharded executor (nil on a sharded engine).
	locked *lockedCubeExec
	// shards is non-nil on a sharded engine (exec is then the table).
	shards *shard.Table
	// registry/metrics are the engine's telemetry sink: per-stage latency
	// histograms plus a collector re-emitting the scheduler counters, all
	// rendered by GET /metrics. Always on — recording is lock-free and
	// costs a few atomic adds per query.
	registry *obs.Registry
	metrics  *obs.QueryMetrics
	// tracer is non-nil only when Options.TraceSampleRate > 0; a nil
	// tracer short-circuits every tracing hook to a pointer test.
	tracer *obs.Tracer
	// costs attributes per-query resource consumption to tenants and
	// feeds the heavy-query profile registry; served by GET /api/tenants
	// and GET /api/queries/top and re-emitted on /metrics. Always on.
	costs *obs.Accountant

	mu sync.Mutex
	// plans holds the registered rules compiled, in registration order;
	// buckets is derived from it whenever rules are added or removed.
	plans    []*prml.Plan
	buckets  *ruleBuckets
	params   map[string]prml.Value
	sessions map[string]*Session
	seq      int

	// userRules holds one mutex per user entity: a user's concurrent
	// sessions run their rules one at a time, so a read-modify-write of the
	// profile (degree = degree + 1) is never lost.
	userRules sync.Map
}

// NewEngine creates an engine over a loaded cube and a user-profile store.
// The engine owns a query scheduler (see internal/qsched) that every
// session's queries route through; long-lived deployments should Close the
// engine to stop it. With Options.FactShards > 1 the engine also derives
// the fact shards here (hash-redistributing already-loaded facts), so all
// warehouse loading should precede engine construction — and subsequent
// ingest must go through Engine.AddFact so shards stay consistent.
func NewEngine(c *cube.Cube, users *usermodel.Store, opts Options) *Engine {
	e := &Engine{
		cube:     c,
		users:    users,
		opts:     opts,
		params:   map[string]prml.Value{},
		sessions: map[string]*Session{},
		buckets:  &ruleBuckets{},
	}
	if opts.FactShards > 1 {
		e.shards = shard.New(c, shard.Options{
			Shards:           opts.FactShards,
			MaxInFlightScans: opts.MaxInFlightScans,
		})
		e.exec = e.shards
	} else {
		e.locked = &lockedCubeExec{c: c}
		e.exec = e.locked
	}
	e.registry = obs.NewRegistry()
	e.metrics = obs.NewQueryMetrics(e.registry)
	e.costs = obs.NewAccountant(obs.AccountantOptions{})
	if opts.TraceSampleRate > 0 {
		e.tracer = obs.NewTracer(obs.TracerOptions{SampleRate: opts.TraceSampleRate})
	}
	e.sched = qsched.New(e.exec, qsched.Options{
		MaxInFlight:     opts.MaxInFlightScans,
		CacheBytes:      opts.ResultCacheBytes,
		Timeout:         opts.QueryTimeout,
		Metrics:         e.metrics,
		SlowQuery:       opts.SlowQueryThreshold,
		Costs:           e.costs,
		TenantWeights:   opts.TenantWeights,
		MaxQueueDepth:   opts.MaxQueueDepth,
		TargetQueueWait: opts.TargetQueueWait,
	})
	e.registry.RegisterCollector(e.collectSchedulerSamples)
	e.registry.RegisterCollector(e.collectCostSamples)
	obs.RegisterRuntimeMetrics(e.registry)
	return e
}

// collectSchedulerSamples re-emits the scheduler's cumulative counters
// (and a few gauges) as Prometheus samples on every /metrics scrape, so
// one scrape carries both the latency histograms and the counter state
// that GET /api/stats serves as JSON.
func (e *Engine) collectSchedulerSamples(emit func(obs.Sample)) {
	st := e.SchedulerStats()
	counter := func(name, help string, v int64) {
		emit(obs.Sample{Name: name, Help: help, Type: "counter", Value: float64(v)})
	}
	gauge := func(name, help string, v float64) {
		emit(obs.Sample{Name: name, Help: help, Type: "gauge", Value: v})
	}
	gauge("sdwp_uptime_seconds", "Seconds since the query scheduler started.", st.UptimeSeconds)
	counter("sdwp_queries_submitted_total", "Queries handed to the scheduler.", st.Submitted)
	counter("sdwp_queries_executed_total", "Queries answered by a shared scan.", st.Executed)
	counter("sdwp_queries_coalesced_total", "Queries answered by joining an identical queued query.", st.Shared)
	counter("sdwp_queries_timed_out_total", "Queries dropped past their admission deadline.", st.TimedOut)
	counter("sdwp_batches_total", "Coalesced batches dispatched.", st.Batches)
	counter("sdwp_fact_scans_total", "Shared fact scans executed.", st.FactScans)
	counter("sdwp_result_cache_hits_total", "Result-cache hits.", st.CacheHits)
	counter("sdwp_result_cache_misses_total", "Result-cache misses.", st.CacheMisses)
	counter("sdwp_result_cache_evictions_total", "Result-cache evictions.", st.CacheEvictions)
	gauge("sdwp_result_cache_bytes", "Bytes held by the result cache.", float64(st.CacheBytes))
	gauge("sdwp_queue_depth", "Queries waiting in the admission queue.", float64(st.QueueDepth))
	gauge("sdwp_scans_in_flight", "Shared scans running right now.", float64(st.InFlight))
	// Overload-control and fair-share series, all derived from the one
	// locked Stats snapshot above — a scrape can never see shed counters
	// torn against queue depth or the per-tenant ledgers. Maps are walked
	// in sorted order so successive scrapes render identically.
	gauge("sdwp_shed_rate", "Decaying rate of shed queries per second.", st.ShedRatePerSec)
	gauge("sdwp_queue_wait_ewma_seconds", "Smoothed admission wait the queue_wait shed threshold compares against.", st.QueueWaitEWMAMs/1e3)
	gauge("sdwp_drain_rate", "Smoothed admission rate (requests/sec) Retry-After hints derive from.", st.DrainRatePerSec)
	users := make([]string, 0, len(st.ShedByTenant))
	for user := range st.ShedByTenant {
		users = append(users, user)
	}
	sort.Strings(users)
	for _, user := range users {
		byReason := st.ShedByTenant[user]
		reasons := make([]string, 0, len(byReason))
		for reason := range byReason {
			reasons = append(reasons, reason)
		}
		sort.Strings(reasons)
		for _, reason := range reasons {
			emit(obs.Sample{Name: "sdwp_shed_total",
				Help: "Queries refused by the overload controller.", Type: "counter",
				Value:  float64(byReason[reason]),
				Labels: map[string]string{"user": user, "reason": reason}})
		}
	}
	for _, fs := range st.FairShares {
		emit(obs.Sample{Name: "sdwp_tenant_fair_share",
			Help: "Tenant's fraction of the summed weight-normalized attributed cost.", Type: "gauge",
			Value:  fs.Share,
			Labels: map[string]string{"tenant": fs.Tenant}})
	}
	if st.FactShards > 0 {
		gauge("sdwp_fact_shards", "Fact-table shard count.", float64(st.FactShards))
		counter("sdwp_shard_scans_total", "Per-shard scans fanned out by the scatter-gather executor.", st.ShardScans)
	}
	counter("sdwp_packed_kernel_scans_total", "Plan scans dispatched to a monomorphic packed aggregation kernel.", st.PackedKernelScans)
	counter("sdwp_packed_predicate_kernels_total", "Predicate bitmaps filled word-at-a-time from packed columns.", st.PackedPredicateKernels)
	gauge("sdwp_packed_columns", "Fact dimension-key columns carrying a packed representation.", float64(st.Packed.Columns))
	gauge("sdwp_packed_bytes", "Bytes held by the bit-packed fact columns.", float64(st.Packed.PackedBytes))
	gauge("sdwp_packed_unpacked_bytes", "Bytes the same columns occupy unpacked (int32 per fact).", float64(st.Packed.UnpackedBytes))
}

// collectCostSamples re-emits the tenant cost accounts and profile
// registry counters on every /metrics scrape. Tenant series are bounded
// by the accountant's tenant cap (64) — it already collapsed overflow
// tenants into "other" — so scrape size cannot grow with tenant churn.
func (e *Engine) collectCostSamples(emit func(obs.Sample)) {
	counter := func(name, help, tenant string, v float64) {
		s := obs.Sample{Name: name, Help: help, Type: "counter", Value: v}
		if tenant != "" {
			s.Labels = map[string]string{"tenant": tenant}
		}
		emit(s)
	}
	for _, ts := range e.costs.Tenants() {
		counter("sdwp_tenant_queries_total", "Queries attributed to the tenant.", ts.Tenant, float64(ts.Queries))
		counter("sdwp_tenant_cache_hits_total", "Result-cache hits attributed to the tenant.", ts.Tenant, float64(ts.CacheHits))
		counter("sdwp_tenant_facts_scanned_total", "Fact rows scanned on behalf of the tenant.", ts.Tenant, float64(ts.Cost.FactsScanned))
		counter("sdwp_tenant_cpu_seconds_total", "Scan CPU attributed to the tenant.", ts.Tenant, float64(ts.Cost.CPUNs)/1e9)
		counter("sdwp_tenant_artifact_bytes_total", "Filter-bitmap and key-column bytes charged to the tenant.", ts.Tenant, float64(ts.Cost.BitmapBytes+ts.Cost.KeyColBytes))
		counter("sdwp_tenant_cache_credit_seconds_total", "CPU the tenant avoided through result-cache hits.", ts.Tenant, float64(ts.Cost.CacheCreditNs)/1e9)
	}
	profiles := e.costs.Profiles()
	records, evictions := profiles.Counters()
	emit(obs.Sample{Name: "sdwp_query_profile_count", Help: "Query fingerprints tracked by the heavy-query registry.",
		Type: "gauge", Value: float64(profiles.Len())})
	counter("sdwp_query_profile_records_total", "Query completions folded into the heavy-query registry.", "", float64(records))
	counter("sdwp_query_profile_evictions_total", "Cold fingerprints evicted from the heavy-query registry.", "", float64(evictions))
}

// Accountant returns the engine's per-tenant cost accountant — what
// GET /api/tenants and GET /api/queries/top serve.
func (e *Engine) Accountant() *obs.Accountant { return e.costs }

// MetricsRegistry returns the engine's telemetry registry — what
// GET /metrics renders in Prometheus text format.
func (e *Engine) MetricsRegistry() *obs.Registry { return e.registry }

// Tracer returns the engine's query-lifecycle tracer, nil unless
// Options.TraceSampleRate > 0.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// Close stops the engine's query scheduler: queued queries drain, new ones
// are rejected. Idempotent; the engine must not be queried after Close.
func (e *Engine) Close() {
	e.sched.Close()
}

// SchedulerStats snapshots the query scheduler's counters (coalesce ratio,
// cache hit rate, queue depth — what GET /api/stats serves), composed with
// the fact tables' packed-storage and artifact-cache counters — from the
// shard layer when the engine is sharded, with shard count, per-shard
// fact balance and scan fan-out.
func (e *Engine) SchedulerStats() qsched.Stats {
	st := e.sched.Stats()
	if e.shards != nil {
		ss := e.shards.Stats()
		st.FactShards = ss.Shards
		st.ShardFactCounts = ss.FactCounts
		st.ShardScans = ss.ShardScans
		st.ArtifactCache = ss.ArtifactCache
		st.Packed = ss.Packed
	} else {
		e.locked.mu.RLock()
		st.Packed = e.cube.PackedStats()
		e.locked.mu.RUnlock()
		st.ArtifactCache = e.cube.ArtifactCacheStats()
	}
	return st
}

// FactShards returns the engine's shard count (1 = unsharded).
func (e *Engine) FactShards() int {
	if e.shards == nil {
		return 1
	}
	return e.shards.Shards()
}

// AddFact appends a fact instance to the warehouse, safely against the
// engine's in-flight queries on either path: on an unsharded engine the
// append takes the executor's write lock (scans hold its read lock); on
// a sharded one it routes the instance to its key-hashed shard under the
// shard's lock and records the global→(shard, local) mapping. Live
// ingest must come through here (or shard.Table.AddFact) — calling
// cube.AddFact directly bypasses both the locking and, when sharded, the
// routing (such facts are invisible to shard scans).
//
// The scheduler's result cache is keyed by view epochs, which track
// selections, not ingest: deployments querying repeatedly during live
// ingest should run with ResultCacheBytes 0 or accept entries up to one
// cache lifetime stale (the cross-batch artifact cache, by contrast, is
// version-keyed and never serves pre-ingest artifacts).
func (e *Engine) AddFact(fact string, keys map[string]int32, measures map[string]float64) error {
	if e.shards != nil {
		return e.shards.AddFact(fact, keys, measures)
	}
	return e.locked.addFact(fact, keys, measures)
}

// Cube returns the engine's cube.
func (e *Engine) Cube() *cube.Cube { return e.cube }

// Users returns the engine's user-profile store.
func (e *Engine) Users() *usermodel.Store { return e.users }

// SetParam declares a designer-defined constant available to rules (the
// paper's Example 5.3 threshold).
func (e *Engine) SetParam(name string, v prml.Value) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.params[name] = v
}

// Param returns a declared constant.
func (e *Engine) Param(name string) (prml.Value, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.params[name]
	return v, ok
}

// paramNames returns the declared constant names for the analyzer.
func (e *Engine) paramNames() map[string]bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]bool, len(e.params))
	for k := range e.params {
		out[k] = true
	}
	return out
}

// AddRules parses, analyzes, compiles and registers PRML rules. Analysis
// findings are returned as an error; nothing is registered in that case.
func (e *Engine) AddRules(src string) ([]*prml.Rule, error) {
	rules, err := prml.Parse(src)
	if err != nil {
		return nil, err
	}
	all := append(e.Rules(), rules...)
	if issues := prml.Analyze(all, prml.AnalyzeOptions{Params: e.paramNames()}); len(issues) > 0 {
		return nil, issues[0]
	}
	plans := make([]*prml.Plan, len(rules))
	for i, r := range rules {
		plans[i] = prml.Compile(r, e.compileOptions())
	}
	e.mu.Lock()
	e.plans = append(e.plans, plans...)
	e.buckets = bucketPlans(e.plans)
	e.mu.Unlock()
	return rules, nil
}

// compileOptions configures rule compilation for this engine: the
// radius-query plan is geodetic, so planar and ablation engines run every
// Foreach as a loop.
func (e *Engine) compileOptions() prml.CompileOptions {
	if e.opts.Planar || e.opts.DisableRuleOptimizer {
		return prml.CompileOptions{}
	}
	return prml.CompileOptions{Native: radiusSelectNative}
}

// Rules returns the registered rules in registration order.
func (e *Engine) Rules() []*prml.Rule {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*prml.Rule, len(e.plans))
	for i, p := range e.plans {
		out[i] = p.Rule
	}
	return out
}

// RemoveRule unregisters the named rule, reporting whether it existed.
// Live sessions keep the personalization the rule already applied; the rule
// simply stops firing for future events.
func (e *Engine) RemoveRule(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, p := range e.plans {
		if p.Rule.Name == name {
			e.plans = append(e.plans[:i], e.plans[i+1:]...)
			e.buckets = bucketPlans(e.plans)
			return true
		}
	}
	return false
}

// ruleBuckets files the compiled rules by the event that fires them. It is
// rebuilt whenever rules are added or removed and never mutated, so a
// session reads one consistent snapshot.
type ruleBuckets struct {
	// start holds the SessionStart rules in the Fig. 1 phase order:
	// schema rules, then instance rules, then pure acquisition rules.
	start [3][]*prml.Plan
	// end holds the SessionEnd rules, tracking the SpatialSelection rules.
	end, tracking []*prml.Plan
}

// startPhases maps rule kinds to their SessionStart phase.
var startPhases = map[prml.RuleKind]int{prml.RuleSchema: 0, prml.RuleInstance: 1, prml.RuleOther: 2}

func bucketPlans(plans []*prml.Plan) *ruleBuckets {
	b := &ruleBuckets{}
	for _, p := range plans {
		switch p.Rule.Event.Kind {
		case prml.EvSessionStart:
			if phase, ok := startPhases[p.Kind]; ok {
				b.start[phase] = append(b.start[phase], p)
			}
		case prml.EvSessionEnd:
			b.end = append(b.end, p)
		case prml.EvSpatialSelection:
			b.tracking = append(b.tracking, p)
		}
	}
	return b
}

// rules returns the current rule buckets.
func (e *Engine) rules() *ruleBuckets {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.buckets
}

// StartSession begins an analysis session for the user at the given
// location (nil when unknown): it materializes the SUS session/location
// entities, clones the base GeoMD schema, and fires the SessionStart rules
// in the Fig. 1 phase order — schema rules, then instance rules, then pure
// acquisition rules.
func (e *Engine) StartSession(userID string, location geom.Geometry) (*Session, error) {
	s, err := e.newSession(userID, location)
	if err != nil {
		return nil, err
	}
	for _, phase := range e.rules().start {
		for _, p := range phase {
			if _, err := s.exec(p); err != nil {
				return nil, fmt.Errorf("core: session start: %w", err)
			}
		}
	}
	e.materialize(s.view)
	e.mu.Lock()
	e.sessions[s.ID] = s
	e.mu.Unlock()
	return s, nil
}

// newSession wires the user's SUS session entities and returns an
// unregistered session over a clone of the base schema and an
// unrestricted view — the state SessionStart rules start from.
func (e *Engine) newSession(userID string, location geom.Geometry) (*Session, error) {
	profile, err := e.users.GetOrCreate(userID)
	if err != nil {
		return nil, err
	}
	if err := e.wireSession(profile, location); err != nil {
		return nil, err
	}

	e.mu.Lock()
	e.seq++
	id := fmt.Sprintf("s%06d", e.seq)
	e.mu.Unlock()

	rulesMu, _ := e.userRules.LoadOrStore(profile, new(sync.Mutex))
	return &Session{
		ID:       id,
		UserID:   userID,
		engine:   e,
		user:     profile,
		rulesMu:  rulesMu.(*sync.Mutex),
		schema:   e.cube.Schema().Clone(),
		view:     cube.NewView(e.cube),
		location: location,
	}, nil
}

// materialize pre-builds a view's masks so the session's first query pays
// no selection cost (the paper's one-time "the spatial analysis have been
// done" property, Section 4.2.4). Mask building reads the fact key
// columns, so it takes the same read lock the scans use — safe against
// concurrent Engine.AddFact on both paths.
func (e *Engine) materialize(v *cube.View) {
	facts := make([]string, 0, len(e.cube.Schema().MD.Facts))
	for _, f := range e.cube.Schema().MD.Facts {
		facts = append(facts, f.Name)
	}
	if e.shards != nil {
		e.shards.MaterializeView(v, facts)
	} else {
		e.locked.materializeView(v, facts)
	}
}

// ExecuteBatch answers a batch of queries — each through its own session's
// personalized view (a nil session entry is the non-personalized baseline)
// — in one shared scan per fact table, the multi-tenant shape of a busy
// deployment: many logged-in users' dashboards refreshing against the same
// fact data. sessions may be nil (all baseline) or one entry per query.
//
// This is the raw shared-scan primitive (the scheduler's own executor);
// callers serving interactive traffic should prefer Session.Query /
// Session.QueryBatch, which add coalescing and caching on top.
func (e *Engine) ExecuteBatch(qs []cube.Query, sessions []*Session) ([]*cube.Result, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("core: batch needs at least one query")
	}
	if sessions != nil && len(sessions) != len(qs) {
		return nil, fmt.Errorf("core: batch has %d queries but %d sessions", len(qs), len(sessions))
	}
	var vs []*cube.View
	if sessions != nil {
		vs = make([]*cube.View, len(qs))
		for i, s := range sessions {
			if s != nil {
				vs[i] = s.View()
			}
		}
	}
	// Compile through the executor (cube or sharded table) so the scan
	// runs wherever the scheduler's scans run — on a sharded engine this
	// is the scatter-gather path.
	cqs := make([]*cube.CompiledQuery, len(qs))
	for i, q := range qs {
		cq, err := e.exec.Compile(q)
		if err != nil {
			return nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		cqs[i] = cq
	}
	res, _, err := e.exec.ExecuteBatchCompiledOpt(cqs, vs, cube.BatchOptions{})
	return res, err
}

// Session returns a live session by id, or nil.
func (e *Engine) Session(id string) *Session {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sessions[id]
}

// EndSession fires SessionEnd rules and removes the session.
func (e *Engine) EndSession(s *Session) error {
	for _, p := range e.rules().end {
		if _, err := s.exec(p); err != nil {
			return fmt.Errorf("core: session end: %w", err)
		}
	}
	e.mu.Lock()
	delete(e.sessions, s.ID)
	e.mu.Unlock()
	return nil
}

// wireSession materializes the SUS «Session» and «LocationContext» entities
// on the user's profile graph, following the profile's association
// definitions (Fig. 4: DecisionMaker --dm2session--> Session
// --s2location--> Location). The wiring is structural: it finds the first
// association from the user class to a «Session» class and from there to a
// «LocationContext» class, so concrete profiles can use any role names.
func (e *Engine) wireSession(user *usermodel.Entity, location geom.Geometry) error {
	p := e.users.Profile()
	userClass := user.Class().Name

	sessRole, sessClass := findAssocByStereo(p, userClass, usermodel.StereoSession)
	if sessRole == "" {
		return nil // profile has no session concept; nothing to wire
	}
	sess := usermodel.NewEntity(p.Class(sessClass))
	// Stamp the conventional startedAt property when the profile declares
	// it (the Fig. 4 AnalysisSession does).
	if pd := p.Class(sessClass).Prop("startedAt"); pd != nil && pd.Type == usermodel.PropString {
		if err := sess.Set("startedAt", time.Now().UTC().Format(time.RFC3339)); err != nil {
			return fmt.Errorf("core: wiring session: %w", err)
		}
	}
	locRole, locClass := findAssocByStereo(p, sessClass, usermodel.StereoLocationContext)
	if locRole != "" && location != nil {
		loc := usermodel.NewEntity(p.Class(locClass))
		if prop := findGeometryProp(p.Class(locClass)); prop != "" {
			if err := loc.Set(prop, location); err != nil {
				return fmt.Errorf("core: wiring location: %w", err)
			}
		}
		if err := sess.Link(p, locRole, loc); err != nil {
			return fmt.Errorf("core: wiring location: %w", err)
		}
	}
	// Link the session last: the user's concurrent sessions navigate the
	// user's current session and must never see one half wired.
	if err := user.Link(p, sessRole, sess); err != nil {
		return fmt.Errorf("core: wiring session: %w", err)
	}
	return nil
}

// findAssocByStereo finds the first association (in role order) from the
// given class to a class with the wanted stereotype.
func findAssocByStereo(p *usermodel.Profile, from string, want usermodel.Stereotype) (role, to string) {
	for _, d := range p.Assocs(from) {
		if c := p.Class(d.To); c != nil && c.Stereo == want {
			return d.Role, d.To
		}
	}
	return "", ""
}

func findGeometryProp(c *usermodel.ClassDef) string {
	for _, pd := range c.Props {
		if pd.Type == usermodel.PropGeometry {
			return pd.Name
		}
	}
	return ""
}

// Package qsched is the engine-level query scheduler: the piece that turns
// "millions of users issuing concurrent single queries" into the shared
// scans the cube's batch executor is built for (multi-query optimization in
// the GLADE tradition), with a cost-driven resource manager — weighted fair
// shares, overload shedding — so one heavy tenant is boundedly isolated
// instead of starving the rest (cf. Tempo).
//
// Every query enters through one admission routine: a lone Submit is a
// batch of one, and SubmitBatch differs only in how many entries it
// hands over. Per entry the routine consults the negative cache, then the
// result cache; if anything missed, the overload gate runs once for the
// call; then each miss compiles, and all misses are enqueued under one
// lock hold. Telemetry is always on: every scan is timed, its CPU is
// attributed to its queries, and the fair-share ledger is charged from
// that attribution.
//
// Four mechanisms compose:
//
//  1. Coalescing with cost-driven fair admission. Concurrent Submit calls
//     queue per user. Dispatch happens on arrival: while a scan slot
//     (MaxInFlight) is free, the submitting call assembles a batch and
//     starts a runner on it, so a query with no company starts scanning
//     at once. When a runner's scan finishes it pulls the next batch from
//     whatever queued behind it, and frees its slot only once the queue is
//     empty — busy slots are the batching clock, and everything that
//     queues behind them coalesces into one shared scan
//     (Executor.ExecuteBatchCompiledOpt) of up to MaxBatch queries.
//     Assembly always admits the tenant with the lowest attributed scan
//     cost per unit weight over a decaying window (deficit-weighted
//     scheduling over the obs.QueryCost attribution; see fair.go). With
//     identical cost profiles this degrades exactly to round-robin.
//  2. Deduplication. Identical queued queries (same plan fingerprint,
//     same view state) execute once; every waiter shares the one result.
//  3. Result cache. A byte-bounded LRU keyed by plan fingerprint plus the
//     view's (id, epoch) pair answers repeats without any scan. A view
//     mutation bumps its epoch, so PRML-driven selections invalidate
//     exactly that session's entries — no scavenging, no stale reads.
//     Admission is doorkept: a result is cached only once its fingerprint
//     has been requested at least twice, so one-off exploratory queries
//     cannot evict hot entries. A bounded negative cache likewise answers
//     repeated invalid queries from their cached compile error without
//     re-deriving it or touching the coalesce queue.
//  4. Overload control. When the admission queue is past MaxQueueDepth or
//     smoothed admission waits exceed TargetQueueWait, calls from tenants
//     at or over their fair share are refused up front — before any entry
//     compiles — with ErrOverloaded and a drain-rate-derived retry hint
//     (HTTP 429 + Retry-After at the web layer) instead of timing out at
//     the 504 deadline after queueing uselessly. Under-share tenants are
//     never shed. Both thresholds unset = shedding off.
//
// The scans themselves are sharing-aware: coalesced batches run through
// cube.ExecuteBatchCompiledOpt, which materializes each distinct filter
// set and group-by list once per scan and drives every
// query's accumulation off the shared artifacts (Stats reports the
// achieved sharing ratios).
package qsched

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sdwp/internal/cube"
	"sdwp/internal/obs"
)

// Executor is what the scheduler dispatches to: the plain *cube.Cube for
// a single fact store, or a *shard.Table for a hash-partitioned one (the
// scatter-gather executor has the same batch surface, so the scheduler is
// the shard router without knowing it — exactly the "scheduler as natural
// shard router" step the partial-merge protocol was built for). Every
// query — a lone Submit included — is compiled on admission and answered
// by one coalesced shared scan; there is no other execution path.
type Executor interface {
	// Compile resolves and validates a query for later batch execution.
	Compile(q cube.Query) (*cube.CompiledQuery, error)
	// ExecuteBatchCompiledOpt runs one coalesced shared scan.
	ExecuteBatchCompiledOpt(cqs []*cube.CompiledQuery, vs []*cube.View, opts cube.BatchOptions) ([]*cube.Result, cube.SharingStats, error)
}

// FactVersioner is the Executor method the result cache keys answers by
// (*cube.Cube has it): a fact table's mutation counter
// (cube.FactData.Version), which every append and member change moves. An
// executor without it reads as version 0 throughout, so its tables must
// not change under the scheduler.
type FactVersioner interface {
	FactVersion(fact string) uint64
}

// DefaultMaxBatch bounds one coalesced shared scan and one POST
// /api/query/batch request. Every query in a batch holds its own partial
// aggregation tables during the scan, so the cap bounds per-scan memory.
const DefaultMaxBatch = 64

// DefaultMaxInFlight bounds concurrent shared scans when
// Options.MaxInFlight is unset: enough to overlap one scan with the next
// batch's assembly without oversubscribing small hosts.
const DefaultMaxInFlight = 2

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("qsched: scheduler closed")

// ErrInternal is the base error every waiter of a batch gets when its
// scan panicked: that batch fails, while the scheduler, its scan slot and
// every other batch carry on. Callers match it with errors.Is.
var ErrInternal = errors.New("qsched: internal error in shared scan")

// ErrTimeout is the base error of queries dropped from the admission
// queue past their deadline (Options.Timeout or a request context
// deadline, whichever is earlier). Callers match it with errors.Is.
var ErrTimeout = errors.New("qsched: query timed out in admission queue")

// Options configures a Scheduler.
type Options struct {
	// Window is ignored: a query that finds a free scan slot starts
	// scanning at once, and batches form only from queries that queue
	// behind busy slots.
	//
	// Deprecated: kept solely because the benchmark harness
	// (bench/oracle.go, bench/trace.go) still names it; it goes when that
	// harness stops setting it.
	Window time.Duration
	// MaxBatch bounds the queries one shared scan takes from the queue
	// (default DefaultMaxBatch).
	MaxBatch int
	// MaxInFlight bounds concurrent shared scans (default
	// DefaultMaxInFlight).
	MaxInFlight int
	// CacheBytes sizes the result cache; 0 disables caching.
	CacheBytes int64
	// Timeout is the admission deadline: a query still queued this long
	// after Submit is dropped with ErrTimeout instead of executing — under
	// overload the queue sheds its oldest waiters deterministically rather
	// than growing unboundedly stale. 0 = no deadline. A request context
	// with an earlier deadline tightens it per query.
	Timeout time.Duration
	// Metrics receives per-query latency observations (end-to-end by
	// tenant, queue wait, scan, merge). Telemetry is always on: nil gives
	// the scheduler a private sink nobody reads.
	Metrics *obs.QueryMetrics
	// Costs receives per-query cost attribution: each executed query's
	// Result.Cost — with the batch's measured scan CPU split
	// proportionally to facts scanned across the coalesced batch, and the
	// sharing discount recorded per query — is attributed to its tenant
	// and folded into the heavy-query profile registry; result-cache hits
	// credit the stored cost as avoided work. nil gives the scheduler a
	// private accountant: every scan is attributed either way, because
	// fair admission charges the attributed CPU.
	Costs *obs.Accountant
	// SlowQuery, when > 0, logs a structured record (slog, level WARN)
	// for every query whose end-to-end latency reaches it, carrying the
	// trace ID and stage breakdown.
	SlowQuery time.Duration
	// Logger receives slow-query records and scan panics (nil =
	// slog.Default()).
	Logger *slog.Logger
	// TenantWeights maps userKey → fair-share weight (default 1, and any
	// value <= 0 reads as 1): a tenant with weight 2 sustains twice the
	// attributed scan cost of a weight-1 tenant before losing admission
	// priority. Unlisted tenants get weight 1.
	TenantWeights map[string]float64
	// FairShareHalfLife is the decay half-life of the per-tenant usage
	// window fair admission ranks on (default DefaultFairShareHalfLife).
	FairShareHalfLife time.Duration
	// MaxQueueDepth, when > 0, is the overload threshold on admission-queue
	// depth: at or past it, over-share tenants are shed with ErrOverloaded
	// instead of queueing (see mechanism 4 in the package comment).
	MaxQueueDepth int
	// TargetQueueWait, when > 0, is the overload threshold on the smoothed
	// admission wait: when the EWMA of observed queue waits exceeds it,
	// over-share tenants are shed. Meaningful only below Timeout —
	// shedding exists to act before the deadline does.
	TargetQueueWait time.Duration
}

// negCacheCapacity bounds the negative cache for invalid queries;
// doorkeeperCapacity bounds one generation of the result-cache admission
// filter. Both are plain memory bounds, not tuning knobs.
const (
	negCacheCapacity   = 512
	doorkeeperCapacity = 4096
)

// outcome is one delivered query result.
type outcome struct {
	res *cube.Result
	err error
}

// waiter is one caller blocked on a request. Dedup merges waiters of
// different tenants (and traces) onto one request, so the telemetry
// identity — trace, tenant label for the end-to-end histogram, submit
// time — rides per waiter, not per request. tr is nil for an untraced
// call.
type waiter struct {
	ch    chan outcome
	tr    *obs.Trace
	user  string
	start time.Time
}

// request is one admitted query plus everyone waiting on it (dedup merges
// identical queries into a single request with several waiters). The plan
// compiled at admission is reused for the scan.
type request struct {
	cq    *cube.CompiledQuery
	view  *cube.View
	epoch uint64
	key   string
	// fp is the plan fingerprint (the heavy-query profile registry's
	// key; also a prefix-free component of key).
	fp string
	// admit records the doorkeeper's verdict at admission: cache the
	// result only if the plan fingerprint had been requested before.
	admit   bool
	waiters []waiter
	// user is the tenant that enqueued the request first — the fair-share
	// ledger's charge target (dedup'd joiners ride free; see fair.go).
	user string
	// debit is the provisional fair-share charge taken at batch assembly
	// and reversed at settle (zero until assembled).
	debit float64
	// enqueuedAt and deadline implement admission timeouts: a request
	// popped after its deadline is answered with ErrTimeout instead of
	// joining a batch. Zero deadline = no limit.
	enqueuedAt time.Time
	deadline   time.Time
}

// Scheduler coalesces concurrent queries into shared scans and fronts them
// with the epoch-keyed result cache. All methods are safe for concurrent
// use.
type Scheduler struct {
	c        Executor
	versions FactVersioner // c's fact table versions, nil if it has none
	opts     Options
	cache    *resultCache // nil when caching is disabled
	door     *doorkeeper  // nil when caching is disabled
	negCache *errCache    // compile errors by fingerprint (always on)

	wg sync.WaitGroup // one count per running runner

	// startedAt anchors Stats.UptimeSeconds so scrapers can turn the
	// cumulative counters into rates.
	startedAt time.Time

	// closedFlag mirrors closed for lock-free reads on the admission fast
	// path, so a cache hit can never be served after Close returns.
	closedFlag atomic.Bool

	mu      sync.Mutex
	closed  bool
	tenants map[string]*tenant  // userKey → queue + fair-share ledger
	active  []string            // tenants with queued work, arrival order
	byKey   map[string]*request // dedup index over queued requests
	queued  int
	// inFlight counts runners, each holding one of MaxInFlight scan slots.
	inFlight int
	// Overload-control state (see fair.go): smoothed admission wait and
	// drain rate, shed counters per (tenant, reason), and the decaying
	// shed window behind the shed-rate gauge.
	waitEWMA       float64 // ns
	drainEWMA      float64 // requests/sec
	lastAssembleAt time.Time
	shedTotal      int64
	shedCounts     map[string]map[string]int64
	shedRecent     float64
	shedDecayAt    time.Time

	stSubmitted atomic.Int64
	stShared    atomic.Int64
	stExecuted  atomic.Int64
	stBatches   atomic.Int64
	stScans     atomic.Int64
	stMaxQueue  atomic.Int64
	stNegHits   atomic.Int64
	stDoorkept  atomic.Int64
	stTimedOut  atomic.Int64

	// sharing sums every successful scan's cube.SharingStats (guarded by
	// mu; see Stats.FilterMaskSharing / GroupKeySharing /
	// PredicateSharing).
	sharing cube.SharingStats
}

// New builds a scheduler over an executor — the cube itself, or a sharded
// table routing to fact shards. It starts no goroutine: scan runners start
// as queries arrive. Callers own the lifecycle: Close drains queued
// queries and waits for the runners.
func New(c Executor, opts Options) *Scheduler {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = DefaultMaxInFlight
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewQueryMetrics(obs.NewRegistry())
	}
	if opts.Costs == nil {
		opts.Costs = obs.NewAccountant(obs.AccountantOptions{})
	}
	versions, _ := c.(FactVersioner)
	s := &Scheduler{
		c:          c,
		versions:   versions,
		opts:       opts,
		tenants:    map[string]*tenant{},
		byKey:      map[string]*request{},
		shedCounts: map[string]map[string]int64{},
		negCache:   newErrCache(negCacheCapacity),
		startedAt:  time.Now(),
	}
	s.lastAssembleAt = s.startedAt
	s.shedDecayAt = s.startedAt
	if opts.CacheBytes > 0 {
		s.cache = newResultCache(opts.CacheBytes)
		s.door = newDoorkeeper(doorkeeperCapacity)
	}
	return s
}

// Close stops accepting queries, drains everything already queued, waits
// for in-flight scans, and returns. Idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	s.closedFlag.Store(true)
	if already {
		return
	}
	s.wg.Wait()
}

// Submit answers one query through the scheduler: cache first, then the
// coalescing queue, blocking until the result is ready. userKey scopes
// fair admission — each distinct key gets its own queue and fair-share
// ledger, and batches always admit the tenant with the lowest attributed
// cost per unit weight, so a tenant flooding the scheduler (by count or
// by expensive queries) only ever occupies the batch slots other tenants
// leave unused. Under overload (Options.MaxQueueDepth /
// TargetQueueWait), queries from over-share tenants are refused with an
// error matching ErrOverloaded instead of queueing.
//
// v may be nil (the non-personalized baseline). The returned Result may be
// shared with other waiters and with the cache: treat it as immutable.
func (s *Scheduler) Submit(q cube.Query, v *cube.View, userKey string) (*cube.Result, error) {
	return s.SubmitCtx(context.Background(), q, v, userKey)
}

// SubmitCtx is Submit with a request context: cancellation or a context
// deadline unblocks the caller early (the query may still execute for its
// other waiters), and a context deadline earlier than Options.Timeout
// tightens this query's admission deadline. A lone query is a batch of
// one: it takes the same admission path as SubmitBatchCtx, and its
// errors come back unwrapped.
func (s *Scheduler) SubmitCtx(ctx context.Context, q cube.Query, v *cube.View, userKey string) (*cube.Result, error) {
	var res [1]*cube.Result
	if _, err := s.admit(ctx, []cube.Query{q}, []*cube.View{v}, userKey, res[:]); err != nil {
		return nil, err
	}
	return res[0], nil
}

// requestDeadline combines Options.Timeout with the context deadline into
// the request's admission deadline (zero = none).
func (s *Scheduler) requestDeadline(ctx context.Context, now time.Time) time.Time {
	var d time.Time
	if s.opts.Timeout > 0 {
		d = now.Add(s.opts.Timeout)
	}
	if cd, ok := ctx.Deadline(); ok && (d.IsZero() || cd.Before(d)) {
		d = cd
	}
	return d
}

// timeoutOutcome builds the descriptive drop error for one expired
// request.
func timeoutOutcome(req *request, now time.Time) outcome {
	return outcome{err: fmt.Errorf("%w (queued %s, deadline exceeded by %s)",
		ErrTimeout,
		now.Sub(req.enqueuedAt).Round(time.Microsecond),
		now.Sub(req.deadline).Round(time.Microsecond))}
}

// SubmitBatch answers several queries, preserving order. Entries hit the
// cache individually; all misses are admitted and dispatched under one
// queue lock, so on an idle scheduler the whole batch lands in one shared
// scan (the guarantee POST /api/query/batch always had) while
// under load it additionally coalesces with other tenants' traffic.
func (s *Scheduler) SubmitBatch(qs []cube.Query, vs []*cube.View, userKey string) ([]*cube.Result, error) {
	return s.SubmitBatchCtx(context.Background(), qs, vs, userKey)
}

// SubmitBatchCtx is SubmitBatch with a request context (see SubmitCtx for
// the deadline semantics; one context scopes the whole batch). An error
// that belongs to one entry is prefixed with its index.
func (s *Scheduler) SubmitBatchCtx(ctx context.Context, qs []cube.Query, vs []*cube.View, userKey string) ([]*cube.Result, error) {
	if vs != nil && len(vs) != len(qs) {
		return nil, fmt.Errorf("qsched: batch has %d queries but %d views", len(qs), len(vs))
	}
	results := make([]*cube.Result, len(qs))
	if i, err := s.admit(ctx, qs, vs, userKey, results); err != nil {
		if i >= 0 {
			err = fmt.Errorf("qsched: batch query %d: %w", i, err)
		}
		return nil, err
	}
	return results, nil
}

// admit is the scheduler's one admission routine; Submit and SubmitBatch
// both call it. Every entry passes the negative cache, then the result
// cache (a hit touches the doorkeeper and is answered at once). If any
// entry missed, the overload gate runs once for the whole call. Then every
// miss compiles, and all of them are enqueued under one lock hold and one
// dispatchLocked, so on an idle scheduler the call lands in one shared
// scan. A call that fails before the enqueue enqueues nothing: its valid
// entries would only scan to be discarded. One trace (from the request
// context) scopes the call; each entry adds its resultCache, shed and
// compile spans to it, and the trace is finished at once when nothing was
// enqueued.
//
// admit fills results in entry order and blocks until every enqueued
// entry is delivered or ctx is done. It returns the first error with the
// index of its entry, or -1 when the error belongs to the whole call.
func (s *Scheduler) admit(ctx context.Context, qs []cube.Query, vs []*cube.View, userKey string, results []*cube.Result) (int, error) {
	s.stSubmitted.Add(int64(len(qs)))
	start := time.Now()
	tr := obs.FromContext(ctx)
	tr.SetUser(userKey)
	fail := func(i int, err error) (int, error) {
		tr.Finish(err)
		return i, err
	}
	type miss struct {
		i   int
		req *request
		ch  chan outcome
	}
	var one [1]miss // a lone query's miss never touches the heap
	misses := one[:0]
	for i := range qs {
		if s.closedFlag.Load() {
			return fail(i, ErrClosed)
		}
		at := start
		if i > 0 && tr != nil {
			at = time.Now()
		}
		var v *cube.View
		if vs != nil {
			v = vs[i]
		}
		// A repeated malformed query is answered from the negative cache
		// before any key building or compilation — invalid traffic never
		// reaches the coalesce queue twice.
		fp := qs[i].Fingerprint()
		if err, ok := s.negCache.get(fp); ok {
			s.stNegHits.Add(1)
			return fail(i, err)
		}
		// The epoch is read before execution, so a cached entry's result
		// was computed from a view state at least as new as its key. A
		// reader that observes epoch E and hits (id, E, fp) therefore never
		// gets data from before E — a selection racing the scan can only
		// make the entry fresher, which is within the view's
		// query-vs-selection semantics (and runBatch skips caching in that
		// case anyway).
		key, epoch := s.cacheKey(fp, qs[i].Fact, v)
		var admit bool
		if s.cache != nil {
			if res, ok := s.cache.get(key); ok {
				// Fingerprints are injective, so a hit proves this exact
				// query validated before — no need to compile on the hit
				// path. The doorkeeper is still touched so a tile hot in the
				// cache stays admitted when a view mutation forces its next
				// miss.
				s.door.request(fp)
				s.opts.Costs.RecordCacheHit(userKey, res.Cost)
				now := time.Now()
				s.opts.Metrics.ObserveEndToEnd(userKey, now.Sub(start))
				if tr != nil {
					tr.AddSpan("resultCache", at, now.Sub(at), map[string]any{"hit": true})
				}
				results[i] = res
				continue
			}
			// The doorkeeper decides on the miss: only a fingerprint that
			// has been requested before earns a cache slot for its result.
			admit = s.door.request(fp)
		}
		misses = append(misses, miss{i: i, req: &request{view: v, epoch: epoch,
			key: key, fp: fp, admit: admit, user: userKey}})
	}
	if len(misses) == 0 {
		tr.Finish(nil)
		return -1, nil
	}
	// Overload gate, after the cache (hits cost no scan — overload is no
	// reason to refuse them) and before compilation: shed traffic costs
	// one mutex hold.
	if err := s.maybeShed(userKey); err != nil {
		if tr != nil {
			attrs := map[string]any{"shed": true}
			var oe *OverloadError
			if errors.As(err, &oe) {
				attrs["reason"] = oe.Reason
				attrs["queueDepth"] = oe.QueueDepth
				attrs["retryAfterMs"] = oe.RetryAfter.Milliseconds()
			}
			tr.AddSpan("shed", start, time.Since(start), attrs)
		}
		return fail(-1, err)
	}
	// Compile on admission: a malformed query must fail alone, never abort
	// the shared scan it would have joined — and the scan then reuses the
	// plan instead of resolving the query a second time.
	for k := range misses {
		m := &misses[k]
		compileStart := time.Now()
		cq, err := s.c.Compile(qs[m.i])
		tr.AddSpan("compile", compileStart, time.Since(compileStart), nil)
		if err != nil {
			s.negCache.put(m.req.fp, err)
			return fail(m.i, err)
		}
		m.req.cq = cq
		m.ch = make(chan outcome, 1)
		m.req.waiters = []waiter{{ch: m.ch, tr: tr, user: userKey, start: start}}
	}
	now := time.Now()
	deadline := s.requestDeadline(ctx, now)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fail(-1, ErrClosed)
	}
	for _, m := range misses {
		m.req.enqueuedAt, m.req.deadline = now, deadline
		s.enqueueLocked(m.req, userKey)
	}
	s.dispatchLocked()
	s.mu.Unlock()
	// Drain everything admitted, even after an error: those queries will
	// execute regardless. Context cancellation unblocks the caller; the
	// buffered per-waiter channels absorb the late deliveries.
	idx, firstErr := -1, error(nil)
	for _, m := range misses {
		var out outcome
		select {
		case out = <-m.ch:
		case <-ctx.Done():
			out = outcome{err: ctx.Err()}
		}
		results[m.i] = out.res
		if out.err != nil && firstErr == nil {
			idx, firstErr = m.i, out.err
		}
	}
	return idx, firstErr
}

// cacheKey builds the cache/dedup key — plan fingerprint, the view's (id,
// epoch) and the fact table's version — and returns the epoch it
// observed. Both counters are read before execution: the comment block in
// admit explains why that is the safe side of the race with concurrent
// selections, and the same holds for appends, because the plan compiled
// after the read scans at least the facts the version counted. An answer
// cached before an append is therefore never served after it.
func (s *Scheduler) cacheKey(fp, fact string, v *cube.View) (key string, epoch uint64) {
	var viewID, version uint64
	if v != nil {
		viewID = v.ID()
		epoch = v.Epoch()
	}
	if s.versions != nil {
		version = s.versions.FactVersion(fact)
	}
	var buf [128]byte
	b := strconv.AppendUint(buf[:0], viewID, 10)
	b = strconv.AppendUint(append(b, '@'), epoch, 10)
	b = strconv.AppendUint(append(b, '#'), version, 10)
	return string(append(append(b, '|'), fp...)), epoch
}

// enqueueLocked admits one request: identical queued requests merge (the
// new request's waiters join the existing one), otherwise it joins its
// user's FIFO. Callers hold s.mu.
func (s *Scheduler) enqueueLocked(req *request, userKey string) {
	if prev := s.byKey[req.key]; prev != nil {
		prev.waiters = append(prev.waiters, req.waiters...)
		// A second identical request proves the fingerprint is hot, so the
		// merged execution may cache even if the first arrival was not yet
		// admitted.
		prev.admit = prev.admit || req.admit
		// The merged request keeps the most generous admission deadline
		// (zero = none): a fresh waiter must not inherit an instant
		// timeout from an older identical one.
		if req.deadline.IsZero() || (!prev.deadline.IsZero() && prev.deadline.Before(req.deadline)) {
			prev.deadline = req.deadline
		}
		s.stShared.Add(int64(len(req.waiters)))
		return
	}
	s.byKey[req.key] = req
	t := s.tenantLocked(userKey, req.enqueuedAt)
	if len(t.fifo) == 0 {
		s.active = append(s.active, userKey)
	}
	t.fifo = append(t.fifo, req)
	s.queued++
	if d := int64(s.queued); d > s.stMaxQueue.Load() {
		s.stMaxQueue.Store(d)
	}
}

// dispatchLocked starts a runner on the next fair batch while work is
// queued and a scan slot is free, so a query that finds an idle slot
// starts scanning at once. Afterwards a non-empty queue means every slot
// is busy, and the runners drain it. Callers hold s.mu.
func (s *Scheduler) dispatchLocked() {
	for s.queued > 0 && s.inFlight < s.opts.MaxInFlight {
		batch := s.assembleLocked(s.opts.MaxBatch)
		if len(batch) == 0 {
			continue // every popped request had expired
		}
		s.inFlight++
		s.wg.Add(1)
		go s.run(batch)
	}
}

// run is one scan slot's runner: it scans its batch, then pulls the next
// fair batch from whatever queued behind it — this is where concurrent
// queries coalesce — and gives the slot back only once the queue is empty.
func (s *Scheduler) run(batch []*request) {
	defer s.wg.Done()
	for len(batch) > 0 {
		s.runBatch(batch)
		s.mu.Lock()
		batch = nil
		for s.queued > 0 && len(batch) == 0 {
			batch = s.assembleLocked(s.opts.MaxBatch)
		}
		if len(batch) == 0 {
			s.inFlight--
		}
		s.mu.Unlock()
	}
}

// assembleLocked pops up to max requests, each time from the tenant with
// the lowest fair-share score — attributed cost plus provisional debits
// per unit weight, ties broken by arrival order — so a tenant with a deep
// backlog or expensive queries gets only the cost share the others leave
// unused (with uniform costs this is exactly round-robin). Each admitted
// request provisionally debits its tenant's per-query cost estimate,
// reversed and replaced by the measured cost at settle. Requests popped
// past their admission deadline are dropped — every waiter gets
// ErrTimeout and the request never joins a scan — so under overload the
// queue sheds stale work deterministically instead of executing it late.
// The pops also feed the overload controller's admission-wait and
// drain-rate EWMAs. Callers hold s.mu.
func (s *Scheduler) assembleLocked(max int) []*request {
	var batch []*request
	now := time.Now()
	popped := 0
	for s.queued > 0 && len(batch) < max {
		idx, user := s.pickTenantLocked(now)
		t := s.tenants[user]
		req := t.fifo[0]
		if len(t.fifo) == 1 {
			t.fifo = nil
			s.active = append(s.active[:idx], s.active[idx+1:]...)
		} else {
			t.fifo = t.fifo[1:]
		}
		s.queued--
		popped++
		delete(s.byKey, req.key)
		s.waitEWMA = (1-ewmaAlpha)*s.waitEWMA + ewmaAlpha*float64(now.Sub(req.enqueuedAt))
		if !req.deadline.IsZero() && now.After(req.deadline) {
			out := timeoutOutcome(req, now)
			s.stTimedOut.Add(int64(len(req.waiters)))
			wait := now.Sub(req.enqueuedAt)
			for _, w := range req.waiters {
				s.opts.Metrics.ObserveQueueWait(w.user, wait)
				s.opts.Metrics.ObserveEndToEnd(w.user, now.Sub(w.start))
				if w.tr != nil {
					w.tr.AddSpan("admissionWait", req.enqueuedAt, wait,
						map[string]any{"timedOut": true})
					w.tr.Finish(out.err)
				}
				w.ch <- out // buffered: never blocks under the lock
			}
			continue
		}
		// Provisional debit: the tenant pays its estimated per-query cost
		// up front, so several batches assembled before any completion
		// cannot over-admit one tenant. Dropped requests above never pay.
		req.debit = t.estimate
		if req.debit < minDebit {
			req.debit = minDebit
		}
		t.pending += req.debit
		batch = append(batch, req)
	}
	if popped > 0 {
		if dt := now.Sub(s.lastAssembleAt).Seconds(); dt > 0 {
			s.drainEWMA = (1-ewmaAlpha)*s.drainEWMA + ewmaAlpha*float64(popped)/dt
		}
		s.lastAssembleAt = now
	}
	return batch
}

// runBatch executes one assembled batch as a shared scan and delivers the
// results. Admission already validated every query, so an executor error
// here is systemic and is delivered to the whole batch. Every batch is
// measured, attributed and settled the same way: the stage timings, the
// CPU split and the per-waiter records are a handful of clock reads and
// counter adds per batch against a scan that touches every fact row.
func (s *Scheduler) runBatch(batch []*request) {
	assembled := time.Now()
	cqs := make([]*cube.CompiledQuery, len(batch))
	vs := make([]*cube.View, len(batch))
	facts := map[string]struct{}{}
	traced := false
	for i, r := range batch {
		cqs[i] = r.cq
		vs[i] = r.view
		facts[r.cq.Query().Fact] = struct{}{}
		for _, w := range r.waiters {
			if w.tr != nil {
				traced = true
			}
		}
	}
	s.stBatches.Add(1)
	s.stExecuted.Add(int64(len(batch)))
	s.stScans.Add(int64(len(facts)))
	st := &obs.ScanTrace{}
	scanStart := time.Now()
	results, sharing, err := s.execute(cqs, vs, cube.BatchOptions{Trace: st})
	scanEnd := time.Now()
	scanDur := scanEnd.Sub(scanStart)
	shardScans, gather := st.Snapshot()
	batchCPU := gather.Nanoseconds()
	for _, ss := range shardScans {
		batchCPU += (ss.FilterMask + ss.GroupDecode + ss.Accumulate).Nanoseconds()
	}
	s.opts.Metrics.ObserveScan(scanDur)
	s.opts.Metrics.ObserveMerge(gather)
	var scanSpan *obs.Span
	if traced {
		// One scan span is shared by every trace of the batch (the scan
		// itself is shared work) with a child per shard carrying the
		// executor's stage breakdown, plus the gather/finalize tail.
		scanSpan = &obs.Span{Name: "scan", Start: scanStart.UnixNano(),
			Dur: scanDur.Nanoseconds(),
			Attrs: map[string]any{
				"batchQueries": len(batch), "factScans": len(facts)}}
		for _, ss := range shardScans {
			scanSpan.Children = append(scanSpan.Children, &obs.Span{
				Name:  "shardScan",
				Start: scanStart.UnixNano(),
				Dur:   ss.Wall.Nanoseconds(),
				Attrs: map[string]any{
					"shard":         ss.Shard,
					"facts":         ss.Facts,
					"filterMaskNs":  ss.FilterMask.Nanoseconds(),
					"groupDecodeNs": ss.GroupDecode.Nanoseconds(),
					"accumulateNs":  ss.Accumulate.Nanoseconds(),
				},
			})
		}
		if gather > 0 {
			scanSpan.Children = append(scanSpan.Children, &obs.Span{
				Name:  "gather",
				Start: scanEnd.Add(-gather).UnixNano(),
				Dur:   gather.Nanoseconds(),
			})
		}
	}
	if err != nil {
		results = nil
	} else {
		// Cost attribution: the batch pays the full measured CPU (every
		// shard's stage time plus the gather), each query gets a share
		// proportional to the facts it scanned, and the rest of the batch's
		// CPU is recorded as its sharing discount — the work it rode along
		// on. The split conserves: Σ per-query CPUNs == batch CPU exactly
		// (obs.SplitTotal pins the tail).
		weights := make([]int64, len(results))
		for i, res := range results {
			weights[i] = res.Cost.FactsScanned + 1
		}
		shares := obs.SplitTotal(batchCPU, weights)
		for i, res := range results {
			res.Cost.CPUNs += shares[i]
			res.Cost.SharedSavedNs += batchCPU - shares[i]
		}
	}
	// Fair-share settle and the sharing counters: one lock hold for the
	// whole batch, after the CPU split above so the charge is the
	// attributed cost.
	settleAt := time.Now()
	s.mu.Lock()
	if err == nil {
		s.sharing.Add(sharing)
	}
	s.settleBatchLocked(batch, results, settleAt)
	s.mu.Unlock()
	for i, r := range batch {
		out := outcome{err: err}
		if err == nil {
			out.res = results[i]
			// Cache only if the doorkeeper admitted the fingerprint (a
			// repeat, not a one-off) and the view did not mutate during
			// the scan: the executor may have seen the newer mask, and an
			// entry must never claim an epoch older than the data it
			// holds.
			if s.cache != nil {
				if !r.admit {
					s.stDoorkept.Add(1)
				} else if r.view == nil || r.view.Epoch() == r.epoch {
					s.cache.put(r.key, out.res)
				}
			}
		}
		wait := assembled.Sub(r.enqueuedAt)
		// Deduplicated waiters split their request's cost evenly: the scan
		// ran once for all of them, so the per-waiter shares sum back to
		// the request's attributed cost (conservation again).
		var wcosts []obs.QueryCost
		if err == nil && len(r.waiters) > 1 {
			wcosts = obs.SplitCost(out.res.Cost, len(r.waiters))
		}
		for wi, w := range r.waiters {
			s.opts.Metrics.ObserveQueueWait(w.user, wait)
			now := time.Now()
			e2e := now.Sub(w.start)
			s.opts.Metrics.ObserveEndToEnd(w.user, e2e)
			if err == nil {
				c := out.res.Cost
				if wcosts != nil {
					c = wcosts[wi]
				}
				s.opts.Costs.RecordQuery(w.user, r.fp, w.tr.ID(), e2e, c)
			}
			if w.tr != nil {
				w.tr.AddSpan("admissionWait", r.enqueuedAt, wait,
					map[string]any{"batchQueries": len(batch)})
				w.tr.Attach(scanSpan)
				var costAttrs map[string]any
				if err == nil {
					c := out.res.Cost
					costAttrs = map[string]any{
						"factsScanned":  c.FactsScanned,
						"bitmapBytes":   c.BitmapBytes,
						"keyColBytes":   c.KeyColBytes,
						"cells":         c.CellsTouched,
						"cpuNs":         c.CPUNs,
						"sharedSavedNs": c.SharedSavedNs,
					}
				}
				w.tr.AddSpan("finalize", scanEnd, time.Since(scanEnd), costAttrs)
				w.tr.Finish(err)
			}
			s.maybeLogSlow(w.tr.ID(), w.user, r.cq.Query().Fact,
				e2e, wait, scanDur, len(batch), out.res, err)
		}
		for _, w := range r.waiters {
			w.ch <- out
		}
	}
}

// execute runs one shared scan. A panic in the executor fails the batch
// with an error wrapping ErrInternal instead of ending the process; it is
// logged with its stack.
func (s *Scheduler) execute(cqs []*cube.CompiledQuery, vs []*cube.View, opts cube.BatchOptions) (results []*cube.Result, sharing cube.SharingStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			results, sharing = nil, cube.SharingStats{}
			err = fmt.Errorf("%w: %v", ErrInternal, r)
			s.logger().Error("shared scan panicked", slog.Any("panic", r),
				slog.Int("batchQueries", len(cqs)), slog.String("stack", string(debug.Stack())))
		}
	}()
	return s.c.ExecuteBatchCompiledOpt(cqs, vs, opts)
}

// logger is Options.Logger, or the default logger when unset.
func (s *Scheduler) logger() *slog.Logger {
	if s.opts.Logger != nil {
		return s.opts.Logger
	}
	return slog.Default()
}

// maybeLogSlow emits the structured slow-query record when the knob is on
// and the query crossed the threshold.
func (s *Scheduler) maybeLogSlow(traceID, user, fact string, e2e, wait, scan time.Duration, batchQueries int, res *cube.Result, err error) {
	if s.opts.SlowQuery <= 0 || e2e < s.opts.SlowQuery {
		return
	}
	attrs := []slog.Attr{
		slog.String("traceId", traceID),
		slog.String("user", user),
		slog.String("fact", fact),
		slog.Duration("total", e2e),
		slog.Duration("queueWait", wait),
		slog.Duration("scan", scan),
		slog.Int("batchQueries", batchQueries),
	}
	if res != nil {
		attrs = append(attrs,
			slog.Int64("factsScanned", res.Cost.FactsScanned),
			slog.Int64("cpuNs", res.Cost.CPUNs),
			slog.Int64("bitmapBytes", res.Cost.BitmapBytes),
			slog.Int64("keyColBytes", res.Cost.KeyColBytes),
			slog.Int64("cells", res.Cost.CellsTouched))
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	s.logger().LogAttrs(context.Background(), slog.LevelWarn, "slow query", attrs...)
}

// Stats is a point-in-time snapshot of the scheduler's counters.
type Stats struct {
	// SnapshotAt is when this snapshot was taken (RFC3339Nano) and
	// UptimeSeconds how long the scheduler has been up — together they
	// let a scraper turn two successive snapshots of the cumulative
	// counters below into rates.
	SnapshotAt    string  `json:"snapshotAt"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// Submitted counts every query handed to Submit/SubmitBatch.
	Submitted int64 `json:"submitted"`
	// CacheHits/CacheMisses count result-cache lookups (both 0 when the
	// cache is disabled).
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
	// Shared counts queries answered by joining an identical queued query
	// instead of executing again.
	Shared int64 `json:"shared"`
	// Executed counts queries answered by a scan; Batches and FactScans
	// count the shared scans that answered them. Executed/FactScans is the
	// coalesce ratio.
	Executed  int64 `json:"executed"`
	Batches   int64 `json:"batches"`
	FactScans int64 `json:"factScans"`
	// QueueDepth/MaxQueueDepth observe the admission queue; InFlight the
	// scans running right now.
	QueueDepth    int   `json:"queueDepth"`
	MaxQueueDepth int64 `json:"maxQueueDepth"`
	InFlight      int   `json:"inFlight"`
	// Cache footprint.
	CacheBytes     int64 `json:"cacheBytes"`
	CacheEntries   int   `json:"cacheEntries"`
	CacheEvictions int64 `json:"cacheEvictions"`
	// CacheDoorkept counts results not cached because their fingerprint
	// had only been requested once (the admission doorkeeper); NegCacheHits
	// counts invalid queries answered from the negative cache without
	// re-compiling; NegCacheEntries is its current size.
	CacheDoorkept   int64 `json:"cacheDoorkept"`
	NegCacheHits    int64 `json:"negCacheHits"`
	NegCacheEntries int   `json:"negCacheEntries"`
	// TimedOut counts queries dropped from the admission queue past their
	// deadline (Options.Timeout / request context) without executing.
	TimedOut int64 `json:"timedOut"`
	// Overload control (all zero with MaxQueueDepth/TargetQueueWait
	// unset): ShedTotal counts queries refused with ErrOverloaded,
	// ShedByTenant breaks them down per tenant and reason (label
	// cardinality capped into "other"), ShedRatePerSec is the decaying
	// shed rate, QueueWaitEWMAMs the smoothed admission wait the
	// queue_wait threshold compares against, and DrainRatePerSec the
	// smoothed admission rate Retry-After hints derive from. The snapshot
	// is taken under one lock: sum over ShedByTenant always equals
	// ShedTotal.
	ShedTotal       int64                       `json:"shedTotal"`
	ShedByTenant    map[string]map[string]int64 `json:"shedByTenant,omitempty"`
	ShedRatePerSec  float64                     `json:"shedRatePerSec"`
	QueueWaitEWMAMs float64                     `json:"queueWaitEwmaMs"`
	DrainRatePerSec float64                     `json:"drainRatePerSec"`
	// FairShares is every live tenant's fair-share ledger, heaviest share
	// first (same lock as the shed counters — never torn against them).
	FairShares []TenantShare `json:"fairShares,omitempty"`
	// Sharded execution (all zero on an unsharded engine; the engine fills
	// them from the shard table): FactShards is the shard count,
	// ShardFactCounts the per-shard fact totals (the hash-partition
	// balance), ShardScans the per-shard scans the scatter-gather executor
	// fanned batches out to (ShardScans/FactScans is the fan-out).
	FactShards      int   `json:"factShards,omitempty"`
	ShardFactCounts []int `json:"shardFactCounts,omitempty"`
	ShardScans      int64 `json:"shardScans,omitempty"`
	// ArtifactCache sums the fact tables' cross-batch artifact caches
	// (filled by the engine — across shards on a sharded engine).
	ArtifactCache cube.ArtifactCacheStats `json:"artifactCache"`
	// Cross-query subexpression sharing inside coalesced scans: FilterSets
	// counts queries that carried filters, FilterMasks the distinct filter
	// bitmaps their scans needed; FilterPredicates counts (query,
	// distinct-predicate) uses, PredicateMasks the distinct single-filter
	// sub-fingerprints among them, ComposedMasks the set masks built with
	// at least one predicate bitmap ANDed in; GroupKeySets
	// counts queries with a dense, non-empty group-by, GroupKeyCols the
	// distinct group-by lists among them (composite roll-up key columns).
	FilterSets       int64 `json:"filterSets"`
	FilterMasks      int64 `json:"filterMasks"`
	FilterPredicates int64 `json:"filterPredicates"`
	PredicateMasks   int64 `json:"predicateMasks"`
	ComposedMasks    int64 `json:"composedMasks"`
	GroupKeySets     int64 `json:"groupKeySets"`
	GroupKeyCols     int64 `json:"groupKeyCols"`
	// PartialsReused / PartialsAllocated count the per-worker partial
	// aggregation tables the executor's scans took from the per-fact-table
	// pools vs allocated fresh (see cube.SharingStats); reused /
	// (reused + allocated) is the pool hit rate — near 1 once the
	// scheduler reaches a warm steady state.
	PartialsReused    int64 `json:"partialsReused"`
	PartialsAllocated int64 `json:"partialsAllocated"`
	// PackedKernelScans counts plan scans that dispatched a monomorphic
	// stage-3 aggregation kernel; PackedPredicateKernels counts the
	// word-at-a-time packed predicate kernels stage 1 ran (see
	// cube.SharingStats).
	PackedKernelScans      int64 `json:"packedKernelScans"`
	PackedPredicateKernels int64 `json:"packedPredicateKernels"`
	// Packed reports the compressed-column storage footprint (bit widths
	// per column, packed vs unpacked bytes; filled by the engine —
	// aggregated across shards on a sharded engine).
	Packed cube.PackedStats `json:"packed"`
	// CoalesceRatio is queries answered per fact scan, (Executed + Shared)
	// / FactScans: > 1 means the scheduler is saving scans. CacheHitRate
	// is hits / lookups. FilterMaskSharing, PredicateSharing and
	// GroupKeySharing are instances per distinct artifact
	// (FilterSets/FilterMasks, FilterPredicates/PredicateMasks and
	// GroupKeySets/GroupKeyCols): > 1 means batches actually shared
	// stage-1/2 work. All 0 until there is data.
	CoalesceRatio     float64 `json:"coalesceRatio"`
	CacheHitRate      float64 `json:"cacheHitRate"`
	FilterMaskSharing float64 `json:"filterMaskSharing"`
	PredicateSharing  float64 `json:"predicateSharing"`
	GroupKeySharing   float64 `json:"groupKeySharing"`
}

// Stats snapshots the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	now := time.Now()
	st := Stats{
		SnapshotAt:    now.UTC().Format(time.RFC3339Nano),
		UptimeSeconds: now.Sub(s.startedAt).Seconds(),
		Submitted:     s.stSubmitted.Load(),
		Shared:        s.stShared.Load(),
		Executed:      s.stExecuted.Load(),
		Batches:       s.stBatches.Load(),
		FactScans:     s.stScans.Load(),
		MaxQueueDepth: s.stMaxQueue.Load(),
		CacheDoorkept: s.stDoorkept.Load(),
		NegCacheHits:  s.stNegHits.Load(),
		TimedOut:      s.stTimedOut.Load(),
	}
	if s.negCache != nil {
		st.NegCacheEntries = s.negCache.size()
	}
	if s.cache != nil {
		st.CacheHits, st.CacheMisses, st.CacheEvictions, st.CacheBytes, st.CacheEntries = s.cache.stats()
	}
	// One lock hold snapshots all the mutually-consistent scheduler state:
	// queue depth, shed counters, the fair-share ledgers and the sharing
	// sums are never torn against each other (sum over ShedByTenant == ShedTotal in any
	// snapshot a scraper sees).
	s.mu.Lock()
	st.QueueDepth = s.queued
	st.InFlight = s.inFlight
	st.ShedTotal = s.shedTotal
	if len(s.shedCounts) > 0 {
		st.ShedByTenant = make(map[string]map[string]int64, len(s.shedCounts))
		for user, byReason := range s.shedCounts {
			m := make(map[string]int64, len(byReason))
			for reason, n := range byReason {
				m[reason] = n
			}
			st.ShedByTenant[user] = m
		}
	}
	st.ShedRatePerSec = s.shedRateLocked(now)
	st.QueueWaitEWMAMs = s.waitEWMA / float64(time.Millisecond)
	st.DrainRatePerSec = s.drainEWMA
	st.FairShares = s.fairSharesLocked(now)
	sh := s.sharing
	s.mu.Unlock()
	st.FilterSets, st.FilterMasks = int64(sh.FilterSets), int64(sh.DistinctFilterSets)
	st.FilterPredicates, st.PredicateMasks = int64(sh.FilterPredicates), int64(sh.DistinctPredicates)
	st.ComposedMasks = int64(sh.ComposedMasks)
	st.GroupKeySets, st.GroupKeyCols = int64(sh.GroupKeySets), int64(sh.DistinctGroupings)
	st.PartialsReused, st.PartialsAllocated = int64(sh.PartialsReused), int64(sh.PartialsAllocated)
	st.PackedKernelScans = int64(sh.PackedKernelScans)
	st.PackedPredicateKernels = int64(sh.PackedPredicateKernels)
	if st.FactScans > 0 {
		st.CoalesceRatio = float64(st.Executed+st.Shared) / float64(st.FactScans)
	}
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		st.CacheHitRate = float64(st.CacheHits) / float64(lookups)
	}
	if st.FilterMasks > 0 {
		st.FilterMaskSharing = float64(st.FilterSets) / float64(st.FilterMasks)
	}
	if st.PredicateMasks > 0 {
		st.PredicateSharing = float64(st.FilterPredicates) / float64(st.PredicateMasks)
	}
	if st.GroupKeyCols > 0 {
		st.GroupKeySharing = float64(st.GroupKeySets) / float64(st.GroupKeyCols)
	}
	return st
}

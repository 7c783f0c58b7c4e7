package qsched

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdwp/internal/cube"
	"sdwp/internal/obs"
)

// TestCostWeightedAssembly drives the assembler directly with two tenants
// of equal weight but 10:1 learned per-query cost estimates: deficit
// scheduling must give the cheap tenant ~10 slots for every expensive one,
// not alternate per count.
func TestCostWeightedAssembly(t *testing.T) {
	s := &Scheduler{tenants: map[string]*tenant{}}
	enqueue := func(user string, n int) {
		for i := 0; i < n; i++ {
			s.enqueueLocked(&request{key: fmt.Sprintf("%s-%d", user, i), user: user})
		}
	}
	enqueue("pricey", 4)
	enqueue("cheap", 4)
	s.tenants["pricey"].estimate = 10 // learned: each query costs 10 units
	s.tenants["cheap"].estimate = 1

	batch := s.assembleLocked(6)
	var order []string
	for _, r := range batch {
		order = append(order, r.key)
	}
	// pricey-0 ties at score 0 and goes first (arrival order), debiting 10;
	// cheap then owns the next 4 slots (scores 1..4 < 10) before pricey is
	// cheapest again.
	want := []string{"pricey-0", "cheap-0", "cheap-1", "cheap-2", "cheap-3", "pricey-1"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("assembly order = %v, want %v", order, want)
	}
	// Provisional debits must match what assembly charged.
	if p := s.tenants["pricey"].pending; p != 20 {
		t.Errorf("pricey pending = %v, want 20", p)
	}
	if p := s.tenants["cheap"].pending; p != 4 {
		t.Errorf("cheap pending = %v, want 4", p)
	}
}

// TestWeightedAssembly gives tenant A twice the weight of tenant B under
// identical cost profiles: A must get exactly two slots for each of B's.
func TestWeightedAssembly(t *testing.T) {
	s := &Scheduler{
		opts:    Options{TenantWeights: map[string]float64{"A": 2, "B": 1}},
		tenants: map[string]*tenant{},
	}
	for i := 0; i < 6; i++ {
		s.enqueueLocked(&request{key: fmt.Sprintf("A-%d", i), user: "A"})
	}
	for i := 0; i < 6; i++ {
		s.enqueueLocked(&request{key: fmt.Sprintf("B-%d", i), user: "B"})
	}
	batch := s.assembleLocked(9)
	counts := map[string]int{}
	for _, r := range batch {
		counts[r.user]++
	}
	if counts["A"] != 6 || counts["B"] != 3 {
		t.Errorf("slots A=%d B=%d, want 6/3 (weight 2:1)", counts["A"], counts["B"])
	}
}

// TestSettleReplacesProvisionalDebit checks the debit lifecycle: assembly
// charges the estimate into pending, settle reverses it and charges the
// measured cost into usage (updating the estimate) — or, on a failed scan,
// reverses the debit and charges nothing.
func TestSettleReplacesProvisionalDebit(t *testing.T) {
	s := &Scheduler{tenants: map[string]*tenant{}}
	s.enqueueLocked(&request{key: "A-0", user: "A"})
	batch := s.assembleLocked(1)
	if len(batch) != 1 {
		t.Fatalf("batch size = %d, want 1", len(batch))
	}
	tn := s.tenants["A"]
	if tn.pending != minDebit {
		t.Fatalf("pending after assembly = %v, want %v", tn.pending, float64(minDebit))
	}

	now := time.Now()
	s.settleBatchLocked(batch, []*cube.Result{{Cost: obs.QueryCost{FactsScanned: 99, CPUNs: 100}}}, now)
	if tn.pending != 0 {
		t.Errorf("pending after settle = %v, want 0", tn.pending)
	}
	if tn.usage != 100 { // the attributed CPU ns
		t.Errorf("usage after settle = %v, want 100", tn.usage)
	}
	wantEst := (1-estimateAlpha)*minDebit + estimateAlpha*100
	if tn.estimate != wantEst {
		t.Errorf("estimate after settle = %v, want %v", tn.estimate, wantEst)
	}

	// A failed scan (nil costs) reverses the debit without charging.
	s.enqueueLocked(&request{key: "A-1", user: "A"})
	batch = s.assembleLocked(1)
	usage, est := tn.usage, tn.estimate
	s.settleBatchLocked(batch, nil, now)
	if tn.pending != 0 {
		t.Errorf("pending after failed settle = %v, want 0", tn.pending)
	}
	if tn.usage != usage || tn.estimate != est {
		t.Errorf("failed settle charged usage/estimate: %v/%v, want %v/%v",
			tn.usage, tn.estimate, usage, est)
	}
}

// TestFairnessSkewedCost is the end-to-end fairness property: two tenants
// of equal weight with standing backlogs, one submitting full-table
// queries and one view-restricted queries scanning ~1/15 of the facts.
// Cost-fair admission must drain the cheap tenant's whole backlog while
// admitting only the few expensive queries its attributed cost pays for —
// per-count round-robin would interleave them ~1:1 instead.
func TestFairnessSkewedCost(t *testing.T) {
	ds := testDataset(t)
	b := cube.NewView(ds.Cube).Builder()
	if err := b.SelectMember("Store", "City", 0); err != nil {
		t.Fatal(err)
	}
	heavyProbe, err := ds.Cube.Execute(countQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := b.View()
	lightProbe, err := ds.Cube.Execute(countQuery, v)
	if err != nil {
		t.Fatal(err)
	}
	if lightProbe.MatchedFacts*5 > heavyProbe.MatchedFacts {
		t.Fatalf("light view matches %d of %d facts: not skewed enough for the property",
			lightProbe.MatchedFacts, heavyProbe.MatchedFacts)
	}

	// A gated executor pins the first scan so both backlogs build before
	// any scheduling decision; MaxBatch 4 keeps batch slots scarce. The
	// fact clock makes the charged scan CPU deterministic and logs which
	// queries each scan ran, in scan order.
	ge := newGatedExec(ds.Cube)
	fc := &factClock{gatedExec: ge}
	s := New(fc, Options{MaxInFlight: 1, MaxBatch: 4})
	defer s.Close()
	defer ge.open()

	const perTenant = 60
	var seq atomic.Int64
	errs := make(chan error, 2*perTenant)
	var wg sync.WaitGroup
	submit := func(user string, view *cube.View) {
		defer wg.Done()
		if _, err := s.Submit(cityQuery(int(seq.Add(1))), view, user); err != nil {
			errs <- err
		}
	}

	// The first heavy query enters the stalled scan and holds the slot.
	wg.Add(1)
	go submit("heavy", nil)
	<-ge.entered
	for i := 1; i < perTenant; i++ {
		wg.Add(2)
		go submit("heavy", nil)
		go submit("light", v)
	}
	wg.Add(1)
	go submit("light", v)
	waitFor(t, "backlogs to build", func() bool {
		return s.Stats().QueueDepth == 2*perTenant-1
	})

	ge.open()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Count the heavy queries scanned up to and including the scan that
	// ran light's last query — scan order, not the order the submitting
	// goroutines happened to wake up in.
	heavy, light, heavyBefore := 0, 0, -1
	for _, views := range fc.scans {
		for _, view := range views {
			if view == nil {
				heavy++
			} else {
				light++
			}
		}
		if light == perTenant && heavyBefore < 0 {
			heavyBefore = heavy
		}
	}
	if heavy != perTenant || light != perTenant {
		t.Fatalf("scanned %d heavy, %d light queries, want %d each", heavy, light, perTenant)
	}
	// Light's whole backlog costs about as much as two full-table scans, so
	// only a handful of heavy queries should be admitted alongside it: the
	// pinned first query, the learning-transient batch, and the cost-paced
	// trickle. Round-robin would finish ~all 60 heavy queries first.
	t.Logf("heavy queries scanned before light's backlog drained: %d of %d", heavyBefore, perTenant)
	if heavyBefore > 15 {
		t.Errorf("heavy got %d slots while light still had backlog, want ≤15 (cost-fair pacing)", heavyBefore)
	}
	// Snapshot consistency: every live tenant's share is normalized.
	var total float64
	for _, sh := range s.Stats().FairShares {
		if sh.Share < 0 || sh.Share > 1 {
			t.Errorf("tenant %s share = %v, want within [0,1]", sh.Tenant, sh.Share)
		}
		total += sh.Share
	}
	if total > 1.0001 {
		t.Errorf("fair shares sum to %v, want ≤1", total)
	}
}

// factClock reports every scan's stage time as one nanosecond per fact
// the batch's queries scanned, in place of the executor's wall-clock
// stage timings, and logs each scan's views in scan order. Fair admission
// charges the attributed scan CPU, and a wall-clock timing picks up
// preemption and GC pauses: one inflated batch of the light tenant would
// let the heavy one look cheap for the rest of a fairness test.
type factClock struct {
	*gatedExec
	mu    sync.Mutex
	scans [][]*cube.View
}

func (f *factClock) ExecuteBatchCompiledOpt(cqs []*cube.CompiledQuery, vs []*cube.View, opts cube.BatchOptions) ([]*cube.Result, cube.SharingStats, error) {
	trace := opts.Trace
	opts.Trace = nil
	res, sharing, err := f.gatedExec.ExecuteBatchCompiledOpt(cqs, vs, opts)
	f.mu.Lock()
	f.scans = append(f.scans, append([]*cube.View(nil), vs...))
	f.mu.Unlock()
	var facts int64
	for _, r := range res {
		facts += r.Cost.FactsScanned
	}
	trace.AddShard(obs.ShardScan{Accumulate: time.Duration(facts)})
	return res, sharing, err
}

// gatedExec wraps the cube so a test can hold scans in flight: every scan
// announces itself on entered and blocks until open closes release. It
// also counts compiles, so a test can tell whether admission got that far.
type gatedExec struct {
	*cube.Cube
	entered  chan struct{}
	release  chan struct{}
	once     sync.Once
	compiles atomic.Int64
}

func (g *gatedExec) Compile(q cube.Query) (*cube.CompiledQuery, error) {
	g.compiles.Add(1)
	return g.Cube.Compile(q)
}

// newGatedExec returns a closed gate over c with room on entered for
// every scan a test announces.
func newGatedExec(c *cube.Cube) *gatedExec {
	return &gatedExec{Cube: c, entered: make(chan struct{}, 256), release: make(chan struct{})}
}

// open lets every held and future scan through. Idempotent, so tests can
// also defer it ahead of Close: a failing test must not hang in Close.
func (g *gatedExec) open() { g.once.Do(func() { close(g.release) }) }

// stallSlot takes the scan slot of a MaxInFlight 1 scheduler with a query
// from user that blocks in the gate — the deterministic way to keep later
// queries queued. It returns once that scan has entered the executor; the
// query's error arrives on the returned channel after the gate opens.
func stallSlot(t *testing.T, s *Scheduler, g *gatedExec, user string) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(cityQuery(100), nil, user)
		done <- err
	}()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("stalling query never entered a scan")
	}
	return done
}

func (g *gatedExec) ExecuteBatchCompiledOpt(cqs []*cube.CompiledQuery, vs []*cube.View, opts cube.BatchOptions) ([]*cube.Result, cube.SharingStats, error) {
	g.entered <- struct{}{}
	<-g.release
	return g.Cube.ExecuteBatchCompiledOpt(cqs, vs, opts)
}

// TestShedStorm fills the admission queue to MaxQueueDepth behind a stalled
// scan and checks the overload contract: the flooding tenant is refused
// with ErrOverloaded carrying a sane Retry-After, an under-share tenant is
// still admitted, the shed counters are consistent in any Stats snapshot,
// and everything drains cleanly — no goroutine leaks — once the scan
// unblocks and the scheduler closes.
func TestShedStorm(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ds := testDataset(t)
	ge := newGatedExec(ds.Cube)
	const depth = 4
	s := New(ge, Options{MaxInFlight: 1, MaxQueueDepth: depth})
	defer ge.open()

	results := make(chan error, depth+2)
	submit := func(user string, i int) {
		_, err := s.Submit(cityQuery(i), nil, user)
		results <- err
	}

	// One query enters the (stalled) scan and pins the in-flight slot.
	go submit("flood", 0)
	<-ge.entered

	// The flood fills the queue to the threshold.
	for i := 1; i <= depth; i++ {
		go submit("flood", i)
	}
	waitFor(t, "queue to fill", func() bool { return s.Stats().QueueDepth == depth })

	// The next flood query must be shed, structured and bounded.
	_, err := s.Submit(cityQuery(depth+1), nil, "flood")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("flooded submit error = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("error %v does not unwrap to *OverloadError", err)
	}
	if oe.Reason != ShedQueueDepth {
		t.Errorf("shed reason = %q, want %q", oe.Reason, ShedQueueDepth)
	}
	if oe.QueueDepth < depth {
		t.Errorf("shed queue depth = %d, want ≥ %d", oe.QueueDepth, depth)
	}
	if oe.RetryAfter < minRetryAfter || oe.RetryAfter > maxRetryAfter {
		t.Errorf("Retry-After = %v, want within [%v, %v]", oe.RetryAfter, minRetryAfter, maxRetryAfter)
	}

	// The snapshot is taken under one lock: the per-tenant breakdown always
	// sums to the total, and this shed is attributed to the flooder.
	st := s.Stats()
	if st.ShedTotal != 1 {
		t.Errorf("ShedTotal = %d, want 1", st.ShedTotal)
	}
	var sum int64
	for _, byReason := range st.ShedByTenant {
		for _, n := range byReason {
			sum += n
		}
	}
	if sum != st.ShedTotal {
		t.Errorf("sum over ShedByTenant = %d != ShedTotal %d (torn snapshot)", sum, st.ShedTotal)
	}
	if st.ShedByTenant["flood"][ShedQueueDepth] != 1 {
		t.Errorf("ShedByTenant[flood][%s] = %d, want 1", ShedQueueDepth, st.ShedByTenant["flood"][ShedQueueDepth])
	}
	if st.ShedRatePerSec <= 0 {
		t.Errorf("ShedRatePerSec = %v, want > 0 right after a shed", st.ShedRatePerSec)
	}

	// A batch from the flooder is shed the same way, once for the whole
	// call and before any entry compiles — a malformed entry included.
	compiled := ge.compiles.Load()
	ghost := cube.Query{Fact: "Ghost", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}}
	_, err = s.SubmitBatch([]cube.Query{cityQuery(depth + 2), ghost, cityQuery(depth + 3)}, nil, "flood")
	if !errors.Is(err, ErrOverloaded) || !errors.As(err, &oe) {
		t.Fatalf("flooded batch error = %v, want *OverloadError", err)
	}
	if n := ge.compiles.Load() - compiled; n != 0 {
		t.Errorf("shed batch compiled %d entries, want none", n)
	}
	st = s.Stats()
	if st.ShedTotal != 2 || st.ShedByTenant["flood"][ShedQueueDepth] != 2 {
		t.Errorf("after the shed batch: ShedTotal = %d, flood = %d; want 2 and 2 (one per call)",
			st.ShedTotal, st.ShedByTenant["flood"][ShedQueueDepth])
	}
	if st.QueueDepth != depth {
		t.Errorf("shed batch left queue depth %d, want %d", st.QueueDepth, depth)
	}

	// An under-share tenant is never shed: it queues past the threshold.
	go submit("light", 50)
	waitFor(t, "under-share tenant to be admitted", func() bool {
		return s.Stats().QueueDepth == depth+1
	})

	// Unblock the scan; everything queued must complete without error.
	ge.open()
	for drained := 0; drained < depth+2; drained++ {
		select {
		case err := <-results:
			if err != nil {
				t.Errorf("queued query failed after drain: %v", err)
			}
		case <-ge.entered: // later batches passing the gate
			drained--
		case <-time.After(5 * time.Second):
			t.Fatal("timed out draining queued queries")
		}
	}
	s.Close()
	waitFor(t, "goroutines to drain after Close", func() bool {
		runtime.Gosched()
		return runtime.NumGoroutine() <= baseline+2
	})
}

// waitFor polls cond until it holds or the test deadline budget runs out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEqualViewsShareCacheAcrossSessions pins the cross-session answers of
// equal views: two sessions' equal-view queries queue as two requests, a
// selection the first session makes while they are queued reaches
// neither answer — each scan reads the view as it was at admission, the
// content its key names — and the second session's repeat is answered
// from the cache under that content, while the first session's wider view
// misses and rescans.
func TestEqualViewsShareCacheAcrossSessions(t *testing.T) {
	ds := testDataset(t)
	ge := newGatedExec(ds.Cube)
	s := New(ge, Options{MaxInFlight: 1, CacheBytes: 1 << 20})
	defer s.Close()
	defer ge.open()
	stalled := stallSlot(t, s, ge, "stall")

	b1, b2 := cube.NewView(ds.Cube).Builder(), cube.NewView(ds.Cube).Builder()
	for _, b := range []*cube.ViewBuilder{b1, b2} {
		if err := b.SelectMember("Store", "City", 0); err != nil {
			t.Fatal(err)
		}
	}
	v1, v2 := b1.View(), b2.View()
	want, err := ds.Cube.Execute(countQuery, v2)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		res *cube.Result
		err error
	}
	answers := make(chan answer, 2)
	submit := func(v *cube.View, user string) {
		res, err := s.Submit(countQuery, v, user)
		answers <- answer{res, err}
	}
	// alice's query queues first, so the doorkeeper keeps her answer out of
	// the cache and admits carol's, the fingerprint's second request.
	go submit(v1, "alice")
	waitFor(t, "the first session's query to queue", func() bool { return s.Stats().QueueDepth == 1 })
	go submit(v2, "carol")
	waitFor(t, "the second session's query to queue", func() bool { return s.Stats().QueueDepth == 2 })
	if err := b1.SelectMember("Store", "City", 1); err != nil {
		t.Fatal(err)
	}
	v1 = b1.View()
	ge.open()
	if err := <-stalled; err != nil {
		t.Fatal(err)
	}
	for range 2 {
		a := <-answers
		if a.err != nil {
			t.Fatal(a.err)
		}
		if !sameAnswer(a.res, want) {
			t.Fatalf("a queued query matched %d facts, the admitted content %d", a.res.MatchedFacts, want.MatchedFacts)
		}
	}
	// The second session hits the answer cached under the admitted content;
	// the first (now wider) misses and rescans.
	if res, err := s.Submit(countQuery, v2, "carol"); err != nil || res.MatchedFacts != want.MatchedFacts {
		t.Fatalf("carol's repeat: %v, %v", res, err)
	}
	wider, err := ds.Cube.Execute(countQuery, v1)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := s.Submit(countQuery, v1, "alice"); err != nil || !sameAnswer(res, wider) {
		t.Fatalf("alice's query after her selection: %v, %v", res, err)
	}
	if st := s.Stats(); st.CacheHits != 1 || st.Executed != 4 {
		t.Errorf("cache hits %d, executed %d; want 1 and 4 (stall, alice, carol, alice's rescan)", st.CacheHits, st.Executed)
	}
}

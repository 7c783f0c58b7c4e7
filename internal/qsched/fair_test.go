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
	s := &Scheduler{tenants: map[string]*tenant{}, byKey: map[string]*request{}}
	enqueue := func(user string, n int) {
		for i := 0; i < n; i++ {
			s.enqueueLocked(&request{key: fmt.Sprintf("%s-%d", user, i), user: user}, user)
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
		tenants: map[string]*tenant{}, byKey: map[string]*request{},
	}
	for i := 0; i < 6; i++ {
		s.enqueueLocked(&request{key: fmt.Sprintf("A-%d", i), user: "A"}, "A")
	}
	for i := 0; i < 6; i++ {
		s.enqueueLocked(&request{key: fmt.Sprintf("B-%d", i), user: "B"}, "B")
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
	s := &Scheduler{tenants: map[string]*tenant{}, byKey: map[string]*request{}}
	s.enqueueLocked(&request{key: "A-0", user: "A"}, "A")
	batch := s.assembleLocked(1)
	if len(batch) != 1 {
		t.Fatalf("batch size = %d, want 1", len(batch))
	}
	tn := s.tenants["A"]
	if tn.pending != minDebit {
		t.Fatalf("pending after assembly = %v, want %v", tn.pending, float64(minDebit))
	}

	now := time.Now()
	s.settleBatchLocked(batch, []obs.QueryCost{{FactsScanned: 99}}, now)
	if tn.pending != 0 {
		t.Errorf("pending after settle = %v, want 0", tn.pending)
	}
	if tn.usage != 100 { // FactsScanned+1 without an accountant
		t.Errorf("usage after settle = %v, want 100", tn.usage)
	}
	wantEst := (1-estimateAlpha)*minDebit + estimateAlpha*100
	if tn.estimate != wantEst {
		t.Errorf("estimate after settle = %v, want %v", tn.estimate, wantEst)
	}

	// A failed scan (nil costs) reverses the debit without charging.
	s.enqueueLocked(&request{key: "A-1", user: "A"}, "A")
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
	v := cube.NewView(ds.Cube)
	if err := v.SelectMember("Store", "City", 0); err != nil {
		t.Fatal(err)
	}
	heavyProbe, err := ds.Cube.Execute(countQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	lightProbe, err := ds.Cube.Execute(countQuery, v)
	if err != nil {
		t.Fatal(err)
	}
	if lightProbe.MatchedFacts*5 > heavyProbe.MatchedFacts {
		t.Fatalf("light view matches %d of %d facts: not skewed enough for the property",
			lightProbe.MatchedFacts, heavyProbe.MatchedFacts)
	}

	// A gated executor pins the first scan so both backlogs build before
	// any scheduling decision; MaxBatch 4 keeps batch slots scarce.
	ge := newGatedExec(ds.Cube)
	s := New(ge, Options{MaxInFlight: 1, MaxBatch: 4})
	defer s.Close()
	defer ge.open()

	const perTenant = 60
	type completion struct {
		user string
		seq  int64
		cost int64
	}
	var done atomic.Int64
	var seq atomic.Int64
	results := make(chan completion, 2*perTenant)
	errs := make(chan error, 2*perTenant)
	var wg sync.WaitGroup
	submit := func(user string, view *cube.View) {
		defer wg.Done()
		res, err := s.Submit(cityQuery(int(seq.Add(1))), view, user)
		if err != nil {
			errs <- err
			return
		}
		results <- completion{user: user, seq: done.Add(1), cost: res.Cost.FactsScanned + 1}
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
	close(results)

	var lastLight int64
	var heavySeqs []int64
	lightDone := 0
	for c := range results {
		if c.user == "light" {
			if c.seq > lastLight {
				lastLight = c.seq
			}
			lightDone++
		} else {
			heavySeqs = append(heavySeqs, c.seq)
		}
	}
	if len(heavySeqs) != perTenant || lightDone != perTenant {
		t.Fatalf("completions: %d heavy, %d light, want %d each", len(heavySeqs), lightDone, perTenant)
	}
	heavyBefore := 0
	for _, hs := range heavySeqs {
		if hs < lastLight {
			heavyBefore++
		}
	}
	// Light's whole backlog costs about as much as two full-table scans, so
	// only a handful of heavy queries should be admitted alongside it: the
	// pinned first query, the learning-transient batch, and the cost-paced
	// trickle. Round-robin would finish ~all 60 heavy queries first.
	t.Logf("heavy queries completed before light's backlog drained: %d of %d", heavyBefore, perTenant)
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

// gatedExec wraps the cube so a test can hold scans in flight: every scan
// announces itself on entered and blocks until open closes release.
type gatedExec struct {
	*cube.Cube
	entered chan struct{}
	release chan struct{}
	once    sync.Once
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

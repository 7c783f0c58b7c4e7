package qsched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"sdwp/internal/cube"
	"sdwp/internal/cube/cubetest"
	"sdwp/internal/datagen"
	"sdwp/internal/obs"
)

// sameAnswer compares two Results ignoring the Cost vector: attribution
// depends on the scheduling and sharing mode a query happened to run
// under (batch CPU shares, artifact splits), the logical answer must not.
func sameAnswer(got, want *cube.Result) bool {
	g, w := *got, *want
	g.Cost, w.Cost = obs.QueryCost{}, obs.QueryCost{}
	return reflect.DeepEqual(&g, &w)
}

// sameWork reports whether two Results carry the same deterministic cost
// fields — the ones that depend on the scan's input, not on the clock.
func sameWork(got, want *cube.Result) bool {
	g, w := got.Cost, want.Cost
	return g.FactsScanned == w.FactsScanned && g.BitmapBytes == w.BitmapBytes &&
		g.KeyColBytes == w.KeyColBytes && g.CellsTouched == w.CellsTouched
}

func testDataset(t testing.TB) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Seed: 1, States: 5, Cities: 15, Stores: 80, Customers: 60,
		Products: 30, Days: 30, Sales: 4000,
		AirportEvery: 5, TrainLines: 4, Hospitals: 5, Highways: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

var countQuery = cube.Query{Fact: "Sales", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}}

// cityQuery returns a distinct single-group query per i (different level
// filters would need attributes; distinct Limit keeps plans apart).
func cityQuery(i int) cube.Query {
	return cube.Query{
		Fact:       "Sales",
		GroupBy:    []cube.LevelRef{{Dimension: "Store", Level: "City"}},
		Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}},
		OrderBy:    &cube.OrderBy{Agg: 0, Desc: true},
		Limit:      i + 1,
	}
}

// TestCoalescingSharedScan floods the scheduler from many goroutines and
// checks (a) every result is identical to the direct serial path and (b)
// fewer fact-table scans ran than queries executed — the coalescing the
// subsystem exists for.
func TestCoalescingSharedScan(t *testing.T) {
	ds := testDataset(t)
	ge := newGatedExec(ds.Cube)
	s := New(ge, Options{MaxInFlight: 1})
	defer s.Close()
	defer ge.open()
	// Every user's first query queues behind the stalled slot, so at least
	// the batch after it coalesces whatever the host's timing.
	stalled := stallSlot(t, s, ge, "staller")

	const users, perUser = 8, 6
	want := make(map[int]*cube.Result)
	for i := 0; i < perUser; i++ {
		res, err := ds.Cube.Execute(cityQuery(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	errs := make(chan error, users*perUser)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for k := 0; k < perUser; k++ {
				i := (k + u) % perUser // stagger so batches mix distinct plans
				res, err := s.Submit(cityQuery(i), nil, fmt.Sprintf("user%d", u))
				if err != nil {
					errs <- err
					return
				}
				if !sameAnswer(res, want[i]) {
					errs <- fmt.Errorf("user %d query %d: result differs from serial", u, i)
					return
				}
			}
		}(u)
	}
	waitFor(t, "every user's first query to queue", func() bool {
		st := s.Stats()
		return int(st.Shared)+st.QueueDepth == users
	})
	ge.open()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := <-stalled; err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Submitted != users*perUser+1 {
		t.Errorf("submitted = %d, want %d", st.Submitted, users*perUser+1)
	}
	if st.Executed+st.Shared != st.Submitted {
		t.Errorf("executed %d + shared %d != submitted %d", st.Executed, st.Shared, st.Submitted)
	}
	if st.FactScans >= st.Submitted {
		t.Errorf("fact scans %d not fewer than %d queries: no coalescing", st.FactScans, st.Submitted)
	}
	if st.CoalesceRatio <= 1 {
		t.Errorf("coalesce ratio = %.2f, want > 1", st.CoalesceRatio)
	}
}

// TestDedupIdenticalConcurrentQueries checks that identical concurrent
// queries execute once and every waiter still gets the full result.
func TestDedupIdenticalConcurrentQueries(t *testing.T) {
	ds := testDataset(t)
	ge := newGatedExec(ds.Cube)
	s := New(ge, Options{MaxInFlight: 1})
	defer s.Close()
	defer ge.open()
	stalled := stallSlot(t, s, ge, "staller")
	want, err := ds.Cube.Execute(countQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := s.Submit(countQuery, nil, fmt.Sprintf("user%d", g%4))
			if err != nil {
				errs <- err
				return
			}
			if !sameAnswer(res, want) {
				errs <- fmt.Errorf("goroutine %d: result differs", g)
			}
		}(g)
	}
	waitFor(t, "identical queries to merge", func() bool {
		st := s.Stats()
		return st.QueueDepth == 1 && st.Shared == n-1
	})
	ge.open()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := <-stalled; err != nil {
		t.Fatal(err)
	}
	// The n identical queries ran as one execution beside the staller's.
	st := s.Stats()
	if st.Shared != n-1 || st.Executed != 2 {
		t.Errorf("shared %d, executed %d; want %d shared and 2 executed", st.Shared, st.Executed, n-1)
	}
}

// TestCacheHitAndEpochInvalidation checks the personalized cache path:
// the doorkeeper admits a fingerprint on its second request (the first
// request of a one-off is never cached), a later repeat is a hit, a wider
// view (a new content key) is a miss that recomputes against the new
// state, and the stale entry is never served.
func TestCacheHitAndEpochInvalidation(t *testing.T) {
	ds := testDataset(t)
	s := New(ds.Cube, Options{CacheBytes: 1 << 20})
	defer s.Close()
	b := cube.NewView(ds.Cube).Builder()
	if err := b.SelectMember("Store", "City", 0); err != nil {
		t.Fatal(err)
	}
	v := b.View()

	first, err := s.Submit(countQuery, v, "alice") // one-off: not cached
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheDoorkept != 1 {
		t.Errorf("doorkept = %d after one-off, want 1", st.CacheDoorkept)
	}
	second, err := s.Submit(countQuery, v, "alice") // admitted and cached
	if err != nil {
		t.Fatal(err)
	}
	third, err := s.Submit(countQuery, v, "alice") // served from cache
	if err != nil {
		t.Fatal(err)
	}
	if third != second {
		t.Error("repeat query did not return the cached result")
	}
	if !sameAnswer(first, second) || !sameWork(first, second) {
		t.Error("cached result differs from the first execution")
	}
	if st := s.Stats(); st.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", st.CacheHits)
	}

	// A wider view has another key: the next lookup must miss and see
	// the wider selection.
	if err := b.SelectMember("Store", "City", 1); err != nil {
		t.Fatal(err)
	}
	v = b.View()
	after, err := s.Submit(countQuery, v, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if after == first {
		t.Fatal("post-mutation query served the pre-mutation cached result")
	}
	want, err := ds.Cube.Execute(countQuery, v)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswer(after, want) || !sameWork(after, want) {
		t.Errorf("post-mutation result differs from direct execution")
	}
	if after.MatchedFacts < first.MatchedFacts {
		t.Errorf("wider selection matched %d < %d", after.MatchedFacts, first.MatchedFacts)
	}
	if st := s.Stats(); st.CacheHits != 1 {
		t.Errorf("cache hits after mutation = %d, want still 1", st.CacheHits)
	}
}

// TestFairAdmissionRoundRobin drives the batch assembler directly: with
// one flooding tenant and several light ones — all with identical (never
// yet measured) cost profiles — deficit-weighted assembly must degrade
// exactly to round-robin: one query per tenant before the flooder gets a
// second slot.
func TestFairAdmissionRoundRobin(t *testing.T) {
	s := &Scheduler{tenants: map[string]*tenant{}, byKey: map[string]*request{}}
	enqueue := func(user string, n int) {
		for i := 0; i < n; i++ {
			s.enqueueLocked(&request{key: fmt.Sprintf("%s-%d", user, i), user: user}, user)
		}
	}
	enqueue("heavy", 10)
	enqueue("lightA", 1)
	enqueue("lightB", 1)

	batch := s.assembleLocked(6)
	if len(batch) != 6 {
		t.Fatalf("batch size = %d, want 6", len(batch))
	}
	var order []string
	for _, r := range batch {
		order = append(order, r.key)
	}
	// One slot per tenant in rotation, then the flooder fills the rest.
	want := []string{"heavy-0", "lightA-0", "lightB-0", "heavy-1", "heavy-2", "heavy-3"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("assembly order = %v, want %v", order, want)
	}
	// The remaining backlog drains in a later batch.
	rest := s.assembleLocked(64)
	if len(rest) != 6 || s.queued != 0 {
		t.Errorf("second batch = %d requests, queued = %d; want 6 / 0", len(rest), s.queued)
	}
	if len(s.byKey) != 0 {
		t.Errorf("dedup index has %d stale entries", len(s.byKey))
	}
}

// TestValidationErrorDoesNotPoisonBatch checks that a malformed query
// fails alone while concurrent valid queries coalesce and succeed.
func TestValidationErrorDoesNotPoisonBatch(t *testing.T) {
	ds := testDataset(t)
	s := New(ds.Cube, Options{MaxInFlight: 1})
	defer s.Close()
	bad := cube.Query{Fact: "Ghost", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}}

	var wg sync.WaitGroup
	errs := make(chan error, 9)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := s.Submit(countQuery, nil, fmt.Sprintf("user%d", g)); err != nil {
				errs <- fmt.Errorf("good query failed: %w", err)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(bad, nil, "mallory"); err == nil {
			errs <- fmt.Errorf("malformed query accepted")
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSubmitBatchPreservesOrder checks order, per-entry views, and the
// view-length mismatch error.
func TestSubmitBatchPreservesOrder(t *testing.T) {
	ds := testDataset(t)
	s := New(ds.Cube, Options{})
	defer s.Close()
	b := cube.NewView(ds.Cube).Builder()
	if err := b.SelectMember("Store", "City", 2); err != nil {
		t.Fatal(err)
	}
	qs := []cube.Query{cityQuery(0), countQuery, cityQuery(2)}
	v := b.View()
	vs := []*cube.View{nil, v, nil}
	got, err := s.SubmitBatch(qs, vs, "alice")
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		want, err := ds.Cube.Execute(qs[i], vs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswer(got[i], want) {
			t.Errorf("batch entry %d differs from direct execution", i)
		}
	}
	if _, err := s.SubmitBatch(qs, vs[:2], "alice"); err == nil {
		t.Error("view-length mismatch accepted")
	}
	bad := cube.Query{Fact: "Ghost", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}}
	if _, err := s.SubmitBatch([]cube.Query{countQuery, bad}, nil, "alice"); err == nil {
		t.Error("batch with malformed query succeeded")
	}
}

// TestSubmitBatchFailedEnqueuesNothing pins that a batch failing on a
// malformed entry scans none of its valid entries — on the compile error
// and on the negative-cache hit that answers the repeat — so a bad query
// appended to a batch can neither waste scans nor slip past the overload
// check.
func TestSubmitBatchFailedEnqueuesNothing(t *testing.T) {
	ds := testDataset(t)
	s := New(ds.Cube, Options{})
	defer s.Close()
	ghost := cube.Query{Fact: "Ghost", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}}
	qs := []cube.Query{countQuery, cityQuery(1), ghost}
	for round := 0; round < 2; round++ {
		if _, err := s.SubmitBatch(qs, nil, "mallory"); err == nil {
			t.Fatalf("round %d: batch with malformed query succeeded", round)
		}
	}
	st := s.Stats()
	if st.Executed != 0 || st.Batches != 0 {
		t.Errorf("failed batches executed %d queries in %d batches, want none", st.Executed, st.Batches)
	}
	if st.NegCacheHits != 1 {
		t.Errorf("negative-cache hits = %d, want 1 (the repeat)", st.NegCacheHits)
	}
}

// TestSubmitBatchSingleScanWhenIdle pins the batch-admission guarantee: a
// whole dashboard batch admitted on an idle scheduler lands in ONE shared
// scan, exactly like the pre-scheduler cube.ExecuteBatch path.
func TestSubmitBatchSingleScanWhenIdle(t *testing.T) {
	ds := testDataset(t)
	s := New(ds.Cube, Options{}) // the default engine shape
	defer s.Close()
	qs := []cube.Query{cityQuery(0), cityQuery(1), cityQuery(2), countQuery}
	res, err := s.SubmitBatch(qs, nil, "alice")
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		want, err := ds.Cube.Execute(qs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswer(res[i], want) {
			t.Errorf("batch entry %d differs from direct execution", i)
		}
	}
	st := s.Stats()
	if st.Batches != 1 || st.FactScans != 1 {
		t.Errorf("batches = %d, factScans = %d; want 1 shared scan for the whole batch",
			st.Batches, st.FactScans)
	}
}

// TestCloseDrainsAndRejects checks lifecycle: Close completes queued work,
// later Submits fail with ErrClosed, and Close is idempotent.
func TestCloseDrainsAndRejects(t *testing.T) {
	ds := testDataset(t)
	s := New(ds.Cube, Options{MaxInFlight: 1})
	const n = 12
	results := make(chan error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, err := s.Submit(cityQuery(g%4), nil, fmt.Sprintf("user%d", g))
			results <- err
		}(g)
	}
	// Give the submitters a moment to queue, then close under load.
	time.Sleep(2 * time.Millisecond)
	s.Close()
	wg.Wait()
	close(results)
	for err := range results {
		// Every submit either completed (drained) or was rejected cleanly.
		if err != nil && err != ErrClosed {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(countQuery, nil, "late"); err != ErrClosed {
		t.Errorf("submit after close: err = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestCloseRejectsCachedQueries pins the shutdown contract for the cache
// path: after Close even a query with a warm cache entry must get
// ErrClosed, not a stealth success.
func TestCloseRejectsCachedQueries(t *testing.T) {
	ds := testDataset(t)
	s := New(ds.Cube, Options{CacheBytes: 1 << 20})
	for i := 0; i < 3; i++ { // doorkeeper admits on the 2nd, 3rd is a hit
		if _, err := s.Submit(countQuery, nil, "alice"); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", st.CacheHits)
	}
	s.Close()
	if _, err := s.Submit(countQuery, nil, "alice"); err != ErrClosed {
		t.Errorf("cached query after close: err = %v, want ErrClosed", err)
	}
}

// TestNegativeCacheRepeatedInvalidQueries checks that a repeated invalid
// query is answered from the negative cache — same error, one compile —
// and that distinct invalid queries occupy distinct entries.
func TestNegativeCacheRepeatedInvalidQueries(t *testing.T) {
	ds := testDataset(t)
	s := New(ds.Cube, Options{})
	defer s.Close()
	bad := cube.Query{Fact: "Ghost", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}}

	_, err1 := s.Submit(bad, nil, "alice")
	if err1 == nil {
		t.Fatal("invalid query accepted")
	}
	if st := s.Stats(); st.NegCacheHits != 0 || st.NegCacheEntries != 1 {
		t.Fatalf("after first failure: negHits=%d entries=%d, want 0/1", st.NegCacheHits, st.NegCacheEntries)
	}
	_, err2 := s.Submit(bad, nil, "bob") // cached, regardless of user
	if err2 == nil || err2.Error() != err1.Error() {
		t.Fatalf("cached error differs: %v vs %v", err2, err1)
	}
	bad2 := cube.Query{Fact: "Sales"} // no aggregates
	if _, err := s.Submit(bad2, nil, "alice"); err == nil {
		t.Fatal("aggregate-less query accepted")
	}
	st := s.Stats()
	if st.NegCacheHits != 1 || st.NegCacheEntries != 2 {
		t.Errorf("negHits=%d entries=%d, want 1/2", st.NegCacheHits, st.NegCacheEntries)
	}
	// The batch path consults the same negative cache.
	if _, err := s.SubmitBatch([]cube.Query{bad}, nil, "carol"); err == nil {
		t.Fatal("batch with cached-invalid query accepted")
	}
	if st := s.Stats(); st.NegCacheHits != 2 {
		t.Errorf("negHits after batch = %d, want 2", st.NegCacheHits)
	}
	// A valid query still passes untouched.
	if _, err := s.Submit(countQuery, nil, "alice"); err != nil {
		t.Fatal(err)
	}
}

// TestErrCacheBounded checks the negative cache's FIFO bound directly.
func TestErrCacheBounded(t *testing.T) {
	c := newErrCache(3)
	for i := 0; i < 5; i++ {
		c.put(fmt.Sprintf("fp%d", i), fmt.Errorf("err%d", i))
	}
	if c.size() != 3 {
		t.Fatalf("size = %d, want 3", c.size())
	}
	for _, fp := range []string{"fp0", "fp1"} {
		if _, ok := c.get(fp); ok {
			t.Errorf("%s survived FIFO eviction", fp)
		}
	}
	for _, fp := range []string{"fp2", "fp3", "fp4"} {
		if _, ok := c.get(fp); !ok {
			t.Errorf("%s missing", fp)
		}
	}
	// Re-putting an existing key neither duplicates nor evicts.
	c.put("fp4", fmt.Errorf("other"))
	if err, _ := c.get("fp4"); err == nil || err.Error() != "err4" {
		t.Errorf("re-put replaced entry: %v", err)
	}
}

// TestDoorkeeperRotation checks the admission filter: first request of a
// fingerprint is not admitted, the second is, and generation rotation
// keeps hot fingerprints while forgetting cold ones.
func TestDoorkeeperRotation(t *testing.T) {
	d := newDoorkeeper(2)
	if d.request("a") {
		t.Error("first request of a admitted")
	}
	if !d.request("a") {
		t.Error("second request of a not admitted")
	}
	// Fill the current generation ("a" + "b"), then force rotation.
	d.request("b")
	d.request("c") // rotates: old={a,b}, cur={c}
	if !d.request("a") {
		t.Error("hot fingerprint forgotten across one rotation")
	}
	// Two full rotations without touching "b" forget it.
	d.request("d")
	d.request("e")
	d.request("f")
	if d.request("b") {
		t.Error("cold fingerprint survived two rotations")
	}
}

// TestSharingStatsReported checks that a batch whose queries share a
// filter set and a grouping reports sharing ratios > 1 through Stats while
// returning the reference results.
func TestSharingStatsReported(t *testing.T) {
	ds := testDataset(t)
	filters := []cube.AttrFilter{{
		LevelRef: cube.LevelRef{Dimension: "Store", Level: "City"},
		Attr:     "population", Op: cube.OpGt, Value: float64(100000),
	}}
	qs := make([]cube.Query, 6)
	for i := range qs {
		qs[i] = cube.Query{
			Fact:       "Sales",
			GroupBy:    []cube.LevelRef{{Dimension: "Store", Level: "City"}},
			Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}},
			Filters:    filters,
			Limit:      i + 1, // distinct plans, shared subexpressions
		}
	}

	shared := New(ds.Cube, Options{})
	defer shared.Close()
	resShared, err := shared.SubmitBatch(qs, nil, "alice")
	if err != nil {
		t.Fatal(err)
	}
	st := shared.Stats()
	if st.FilterSets != 6 || st.FilterMasks != 1 {
		t.Errorf("filter sharing = %d/%d, want 6/1", st.FilterSets, st.FilterMasks)
	}
	if st.GroupKeySets != 6 || st.GroupKeyCols != 1 {
		t.Errorf("group sharing = %d/%d, want 6/1", st.GroupKeySets, st.GroupKeyCols)
	}
	if st.FilterMaskSharing <= 1 || st.GroupKeySharing <= 1 {
		t.Errorf("sharing ratios = %.1f/%.1f, want > 1", st.FilterMaskSharing, st.GroupKeySharing)
	}

	for i := range resShared {
		if !sameAnswer(resShared[i], cubetest.NaiveExecute(ds.Cube, qs[i], nil)) {
			t.Errorf("entry %d: shared batch result differs from the reference", i)
		}
	}
}

// --- randomized concurrent equivalence harness (acceptance criterion) ---

var equivLevels = []cube.LevelRef{
	{Dimension: "Store", Level: "Store"}, {Dimension: "Store", Level: "City"},
	{Dimension: "Store", Level: "State"}, {Dimension: "Store", Level: "Country"},
	{Dimension: "Customer", Level: "Segment"}, {Dimension: "Product", Level: "Family"},
	{Dimension: "Time", Level: "Month"},
}

// randomQuery draws a random aggregation; SUM/AVG only over the
// integer-valued UnitSales so float64 sums are exact and byte-identity
// holds across executors (see internal/cube/exec_equiv_test.go).
func randomQuery(rng *rand.Rand) cube.Query {
	q := cube.Query{Fact: "Sales"}
	refs := append([]cube.LevelRef(nil), equivLevels...)
	rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
	q.GroupBy = refs[:rng.Intn(3)]
	for n := 1 + rng.Intn(2); len(q.Aggregates) < n; {
		switch rng.Intn(4) {
		case 0:
			q.Aggregates = append(q.Aggregates, cube.MeasureAgg{Agg: cube.AggCount})
		case 1:
			q.Aggregates = append(q.Aggregates, cube.MeasureAgg{Measure: "UnitSales", Agg: cube.AggSum})
		case 2:
			q.Aggregates = append(q.Aggregates, cube.MeasureAgg{Measure: "StoreCost", Agg: cube.AggMin})
		case 3:
			q.Aggregates = append(q.Aggregates, cube.MeasureAgg{Measure: "StoreSales", Agg: cube.AggMax})
		}
	}
	if rng.Intn(2) == 0 {
		q.OrderBy = &cube.OrderBy{Agg: rng.Intn(len(q.Aggregates)), Desc: rng.Intn(2) == 0}
	}
	if rng.Intn(2) == 0 {
		q.Limit = 1 + rng.Intn(10)
	}
	return q
}

func randomView(rng *rand.Rand, c *cube.Cube) *cube.View {
	if rng.Intn(3) == 0 {
		return nil
	}
	b := cube.NewView(c).Builder()
	for i := 0; i < 2+rng.Intn(6); i++ {
		if err := b.SelectMember("Store", "City", int32(rng.Intn(15))); err != nil {
			panic(err)
		}
	}
	return b.View()
}

// TestConcurrentEquivalenceRandomized is the correctness bar: randomized
// personalized queries hammered through the scheduler concurrently — with
// dedup, the in-flight bound, and the result cache all active — must
// return results byte-identical to the executor-independent
// reference (cubetest.NaiveExecute).
func TestConcurrentEquivalenceRandomized(t *testing.T) {
	ds := testDataset(t)
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const cases = 40
			qs := make([]cube.Query, cases)
			vs := make([]*cube.View, cases)
			serial := make([]*cube.Result, cases)
			for i := range qs {
				qs[i] = randomQuery(rng)
				vs[i] = randomView(rng, ds.Cube)
				serial[i] = cubetest.NaiveExecute(ds.Cube, qs[i], vs[i])
			}
			s := New(ds.Cube, Options{
				MaxInFlight: 2,
				MaxBatch:    8, // force several batches per round
				CacheBytes:  1 << 20,
			})
			defer s.Close()

			var wg sync.WaitGroup
			errs := make(chan error, cases*3)
			for round := 0; round < 3; round++ { // later rounds exercise cache hits
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func(round, g int) {
						defer wg.Done()
						for i := g; i < cases; i += 4 {
							res, err := s.Submit(qs[i], vs[i], fmt.Sprintf("user%d", i%5))
							if err != nil {
								errs <- fmt.Errorf("round %d case %d: %w", round, i, err)
								return
							}
							if !sameAnswer(res, serial[i]) {
								errs <- fmt.Errorf("round %d case %d: scheduler result differs from reference", round, i)
								return
							}
						}
					}(round, g)
				}
				wg.Wait()
			}
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.CacheHits == 0 {
				t.Error("harness never exercised the cache-hit path")
			}
			if st.Executed+st.Shared+st.CacheHits != st.Submitted {
				t.Errorf("accounting: executed %d + shared %d + hits %d != submitted %d",
					st.Executed, st.Shared, st.CacheHits, st.Submitted)
			}
		})
	}
}

// TestAdmissionTimeoutDropsQueuedQueries covers Options.Timeout: queries
// held queued behind a stalled scan until past their deadline must be
// dropped with ErrTimeout — deterministically, without executing — and
// counted in Stats.TimedOut.
func TestAdmissionTimeoutDropsQueuedQueries(t *testing.T) {
	ds := testDataset(t)
	const timeout = 20 * time.Millisecond
	ge := newGatedExec(ds.Cube)
	s := New(ge, Options{MaxInFlight: 1, Timeout: timeout})
	defer s.Close()
	defer ge.open()
	// The staller is assembled in the lock hold that admits it, long before
	// its own deadline.
	stalled := stallSlot(t, s, ge, "staller")

	const n = 6
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, err := s.Submit(cityQuery(g), nil, fmt.Sprintf("user%d", g))
			errs <- err
		}(g)
	}
	waitFor(t, "queries to queue", func() bool { return s.Stats().QueueDepth == n })
	time.Sleep(timeout + time.Millisecond) // every queued deadline passes
	ge.open()
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
	}
	if err := <-stalled; err != nil {
		t.Fatalf("stalling query: %v", err)
	}
	st := s.Stats()
	if st.TimedOut != n {
		t.Errorf("Stats.TimedOut = %d, want %d", st.TimedOut, n)
	}
	if st.Executed != 1 {
		t.Errorf("executed %d queries, want only the staller", st.Executed)
	}

	// Without a deadline the same scheduler shape executes normally.
	s2 := New(ds.Cube, Options{})
	defer s2.Close()
	if _, err := s2.Submit(countQuery, nil, "alice"); err != nil {
		t.Fatalf("no-timeout submit: %v", err)
	}
	if st := s2.Stats(); st.TimedOut != 0 {
		t.Errorf("spurious timeouts: %d", st.TimedOut)
	}
}

// TestSubmitCtxCancellationUnblocks covers the per-request context: a
// canceled context must unblock the caller with ctx.Err() even while the
// query is still queued behind a busy slot.
func TestSubmitCtxCancellationUnblocks(t *testing.T) {
	ds := testDataset(t)
	ge := newGatedExec(ds.Cube)
	s := New(ge, Options{MaxInFlight: 1})
	defer s.Close()
	defer ge.open()
	stallSlot(t, s, ge, "bob")

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.SubmitCtx(ctx, countQuery, nil, "alice")
		done <- err
	}()
	waitFor(t, "query to queue", func() bool { return s.Stats().QueueDepth == 1 })
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SubmitCtx did not unblock on cancellation")
	}
}

// TestSubmitBatchCtxDeadline covers the batch context path: a context
// deadline that passes while the batch is queued behind a busy slot
// unblocks the caller with DeadlineExceeded, and once the slot frees the
// expired entries are dropped at assembly with ErrTimeout, unexecuted.
func TestSubmitBatchCtxDeadline(t *testing.T) {
	ds := testDataset(t)
	ge := newGatedExec(ds.Cube)
	s := New(ge, Options{MaxInFlight: 1})
	defer s.Close()
	defer ge.open()
	stalled := stallSlot(t, s, ge, "bob")

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := s.SubmitBatchCtx(ctx, []cube.Query{countQuery, cityQuery(1)}, nil, "alice")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
	ge.open()
	if err := <-stalled; err != nil {
		t.Fatalf("stalling query: %v", err)
	}
	waitFor(t, "expired entries to be dropped", func() bool { return s.Stats().TimedOut == 2 })
	if st := s.Stats(); st.Executed != 1 {
		t.Errorf("executed %d queries, want only the staller", st.Executed)
	}
}

// TestCloseUnderInFlightLoad is the shutdown regression of the ISSUE:
// Close called while scans are in flight and queries are still arriving
// must terminate every Submit (result, ErrClosed, or a timeout) and
// return within a bounded time — no goroutine leak, no silent hang.
func TestCloseUnderInFlightLoad(t *testing.T) {
	ds := testDataset(t)
	for round := 0; round < 5; round++ {
		s := New(ds.Cube, Options{MaxInFlight: 1})
		const n = 24
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				res, err := s.Submit(cityQuery(g%6), nil, fmt.Sprintf("user%d", g%4))
				if err == nil && res == nil {
					errs <- fmt.Errorf("nil result without error")
					return
				}
				errs <- err
			}(g)
		}
		// Close races the submitters: some queries are queued, some are
		// mid-scan, some have not been admitted yet.
		closed := make(chan struct{})
		go func() { s.Close(); close(closed) }()

		waited := make(chan struct{})
		go func() { wg.Wait(); close(waited) }()
		deadline := time.After(10 * time.Second)
		select {
		case <-waited:
		case <-deadline:
			t.Fatal("Submit goroutines leaked after Close")
		}
		select {
		case <-closed:
		case <-deadline:
			t.Fatal("Close hung with queries in flight")
		}
		close(errs)
		for err := range errs {
			if err != nil && err != ErrClosed {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}

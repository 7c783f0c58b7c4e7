package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/cube/cubetest"
	"sdwp/internal/prml"
	"sdwp/internal/qsched"
)

// TestSchedulerRoutedQueryEquivalence runs personalized session queries
// through a scheduler-routed engine (cache and coalescing on) and
// requires results identical to the executor-independent reference over
// the session's view — including on cache-hit repeats.
func TestSchedulerRoutedQueryEquivalence(t *testing.T) {
	e1, ds := newTestEngineOpts(t, Options{
		ResultCacheBytes: 1 << 20,
	})
	defer e1.Close()

	s1, err := e1.StartSession("alice", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	queries := []cube.Query{
		{Fact: "Sales", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}},
		{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Store", Level: "City"}},
			Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}}},
		{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Product", Level: "Family"}},
			Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}},
			OrderBy:    &cube.OrderBy{Agg: 0, Desc: true}, Limit: 3},
	}
	for round := 0; round < 3; round++ { // round > 0 hits e1's cache
		for i, q := range queries {
			r1, err := s1.Query(q)
			if err != nil {
				t.Fatalf("round %d query %d scheduler: %v", round, i, err)
			}
			if !sameAnswer(r1, cubetest.NaiveExecute(ds.Cube, q, s1.View())) {
				t.Errorf("round %d query %d: scheduler result differs from the reference", round, i)
			}
			b1, err := s1.QueryBaseline(q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswer(b1, cubetest.NaiveExecute(ds.Cube, q, nil)) {
				t.Errorf("round %d query %d: baseline differs", round, i)
			}
		}
	}
	if st := e1.SchedulerStats(); st.CacheHits == 0 {
		t.Error("repeat rounds never hit the result cache")
	}
}

func mustParam(t *testing.T, e *Engine, name string) prml.Value {
	t.Helper()
	v, ok := e.Param(name)
	if !ok {
		t.Fatalf("param %s missing", name)
	}
	return v
}

// TestEngineExecuteBatchMisuse covers the batch API's misuse paths
// table-driven: empty query lists, mismatched sessions slices, and the
// valid nil/partial-sessions shapes.
func TestEngineExecuteBatchMisuse(t *testing.T) {
	e, ds := newTestEngine(t)
	defer e.Close()
	s, err := e.StartSession("alice", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	good := cube.Query{Fact: "Sales", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}}

	cases := []struct {
		name     string
		qs       []cube.Query
		sessions []*Session
		wantErr  string
		wantLen  int
	}{
		{name: "empty query list", qs: nil, sessions: nil, wantErr: "at least one query"},
		{name: "empty with sessions", qs: []cube.Query{}, sessions: []*Session{s}, wantErr: "at least one query"},
		{name: "too few sessions", qs: []cube.Query{good, good}, sessions: []*Session{s}, wantErr: "2 queries but 1 sessions"},
		{name: "too many sessions", qs: []cube.Query{good}, sessions: []*Session{s, s}, wantErr: "1 queries but 2 sessions"},
		{name: "nil sessions is baseline", qs: []cube.Query{good, good}, sessions: nil, wantLen: 2},
		{name: "nil entry is baseline", qs: []cube.Query{good, good}, sessions: []*Session{s, nil}, wantLen: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := e.ExecuteBatch(tc.qs, tc.sessions)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != tc.wantLen {
				t.Fatalf("len(res) = %d, want %d", len(res), tc.wantLen)
			}
			for i, r := range res {
				if r == nil {
					t.Fatalf("result %d is nil", i)
				}
			}
		})
	}

	// The personalized entry must see no more than the baseline one.
	res, err := e.ExecuteBatch([]cube.Query{good, good}, []*Session{s, nil})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].MatchedFacts > res[1].MatchedFacts {
		t.Errorf("personalized matched %d > baseline %d", res[0].MatchedFacts, res[1].MatchedFacts)
	}
}

// TestEngineCloseRejectsQueries checks the scheduler lifecycle on the
// engine: Close drains, later queries fail, Close is idempotent.
func TestEngineCloseRejectsQueries(t *testing.T) {
	e, ds := newTestEngine(t)
	s, err := e.StartSession("alice", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	q := cube.Query{Fact: "Sales", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}}
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := s.Query(q); err != qsched.ErrClosed {
		t.Errorf("query after close: err = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

// TestSharedSubexprBatchUnderSpatialSelect is the race-stress companion of
// the staged batch executor: several goroutines hammer sharing-heavy
// QueryBatch calls (queries sharing one filter set and grouping, so every
// scan materializes shared stage-1/2 artifacts) while a writer keeps
// mutating the session's selection through SpatialSelect. The run must be
// data-race free (-race in CI), every batch must be internally consistent
// (entries sharing artifacts see the same facts), and the quiescent state
// must equal the executor-independent reference.
func TestSharedSubexprBatchUnderSpatialSelect(t *testing.T) {
	t.Run("shared", func(t *testing.T) {
		e, ds := newTestEngine(t)
		defer e.Close()
		s, err := e.StartSession("alice", ds.CityLocs[0])
		if err != nil {
			t.Fatal(err)
		}
		filters := []cube.AttrFilter{{
			LevelRef: cube.LevelRef{Dimension: "Store", Level: "City"},
			Attr:     "population", Op: cube.OpGt, Value: float64(0),
		}}
		qs := make([]cube.Query, 6)
		for i := range qs {
			qs[i] = cube.Query{
				Fact:       "Sales",
				GroupBy:    []cube.LevelRef{{Dimension: "Store", Level: "City"}},
				Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}},
				Filters:    filters,
				Limit:      1000 + i, // distinct plans, shared subexpressions
			}
		}

		var wg sync.WaitGroup
		errs := make(chan error, 64)
		done := make(chan struct{})
		wg.Add(1)
		go func() { // writer: widen the selection while batches run
			defer wg.Done()
			defer close(done)
			for _, km := range []int{2, 8, 32, 120} {
				pred := fmt.Sprintf(
					"Distance(GeoMD.Store.geometry, SUS.DecisionMaker.dm2session.s2location.geometry) < %dkm", km)
				if _, err := s.SpatialSelect("GeoMD.Store", pred); err != nil {
					errs <- err
					return
				}
			}
		}()
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					res, err := s.QueryBatch(qs, nil)
					if err != nil {
						errs <- err
						return
					}
					// Entries materialize their view snapshot in batch
					// order and selections only ever widen the mask, so
					// within one batch the matched counts must be
					// non-decreasing (an entry seeing *fewer* facts than
					// an earlier one means a torn or stale mask).
					for i := 1; i < len(res); i++ {
						if res[i].MatchedFacts < res[i-1].MatchedFacts {
							errs <- fmt.Errorf("batch entry %d matched %d < entry %d's %d",
								i, res[i].MatchedFacts, i-1, res[i-1].MatchedFacts)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		// Quiescent: batch results equal the reference.
		res, err := s.QueryBatch(qs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			if !sameAnswer(res[i], cubetest.NaiveExecute(e.Cube(), q, s.View())) {
				t.Fatalf("quiescent batch entry %d differs from the reference", i)
			}
		}
	})
}

// TestNoStaleCachedResultsUnderSpatialSelect is the stale-view stress
// test: readers hammer cached personalized queries while a writer keeps
// widening the session's selection through SpatialSelect. Selections only
// ever union within a level, so the personalized fact count is
// monotonically nondecreasing; a reader that observes view content K
// before querying must get a result reflecting at least every selection
// recorded before it queried, and at least K's own recorded count once K
// is recorded — anything smaller is a cache entry of an older view state.
func TestNoStaleCachedResultsUnderSpatialSelect(t *testing.T) {
	e, ds := newTestEngineOpts(t, Options{
		ResultCacheBytes: 1 << 20,
	})
	defer e.Close()
	s, err := e.StartSession("alice", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	q := cube.Query{Fact: "Sales", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}}

	// checkpoints record (content key, direct personalized count) after
	// each completed selection; the slice only grows, and so do the counts
	// (a wider radius only adds stores).
	type checkpoint struct {
		key   string
		count int
	}
	var (
		cpMu        sync.Mutex
		checkpoints []checkpoint
	)
	record := func() {
		v := s.View() // one view: the key and the count describe one content
		direct, err := e.Cube().Execute(q, v)
		if err != nil {
			t.Error(err)
			return
		}
		cpMu.Lock()
		checkpoints = append(checkpoints, checkpoint{key: v.Key(), count: direct.MatchedFacts})
		cpMu.Unlock()
	}
	record() // post-login state

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	done := make(chan struct{})

	// Writer: widen the selection radius step by step. Each SpatialSelect
	// unions more stores into the Store.Store level mask, changing the
	// view's content key.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, km := range []int{2, 4, 8, 16, 32, 64, 120} {
			pred := fmt.Sprintf(
				"Distance(GeoMD.Store.geometry, SUS.DecisionMaker.dm2session.s2location.geometry) < %dkm", km)
			if _, err := s.SpatialSelect("GeoMD.Store", pred); err != nil {
				errs <- err
				return
			}
			record()
		}
	}()

	// Readers: cached scheduler-routed queries racing the selections.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// Strongest state the reader provably observed: the
				// last checkpoint recorded before its query, and the
				// content it saw before querying if that is recorded by
				// now (its selection may have finished before the query
				// but recorded after it).
				k0 := s.View().Key()
				cpMu.Lock()
				floor := checkpoints[len(checkpoints)-1].count
				cpMu.Unlock()
				res, err := s.Query(q)
				if err != nil {
					errs <- err
					return
				}
				cpMu.Lock()
				for _, cp := range checkpoints {
					if cp.key == k0 && cp.count > floor {
						floor = cp.count
					}
				}
				cpMu.Unlock()
				if res.MatchedFacts < floor {
					errs <- fmt.Errorf("stale result: matched %d < %d recorded for the content observed before the query",
						res.MatchedFacts, floor)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The radii must have actually widened the selection, or the harness
	// proves nothing.
	cpMu.Lock()
	first, last := checkpoints[0].count, checkpoints[len(checkpoints)-1].count
	cpMu.Unlock()
	if last <= first {
		t.Fatalf("selection never widened: %d -> %d facts", first, last)
	}

	// Quiescent state: a fresh query (possibly cached) must equal direct
	// execution exactly.
	want, err := e.Cube().Execute(q, s.View())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswer(got, want) {
			t.Fatalf("quiescent query %d differs from direct execution", i)
		}
	}
	if st := e.SchedulerStats(); st.CacheHits == 0 {
		t.Log("note: stress run recorded no cache hits (timing-dependent)")
	}
}

// TestBaselineAnswersFollowAppends pins that the result cache never serves
// an answer from before an append: repeated baseline queries warm the
// cache (the doorkeeper admits a repeat), 500 AddFact calls follow, and
// the next answers must count every fact — the cache key carries the fact
// table's version — and equal the reference over the grown table. It
// covers the unsharded and the sharded executor, which both report their
// table versions to the scheduler.
func TestBaselineAnswersFollowAppends(t *testing.T) {
	q := cube.Query{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Store", Level: "City"}},
		Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}}}
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e, ds := newTestEngineOpts(t, Options{ResultCacheBytes: 32 << 20, FactShards: shards})
			t.Cleanup(e.Close)
			s, err := e.StartSession("alice", ds.CityLocs[0])
			if err != nil {
				t.Fatal(err)
			}
			n := ds.Cube.FactData("Sales").Len()
			query := func() *cube.Result {
				t.Helper()
				res, err := s.QueryBaseline(q)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			for range 4 {
				if res := query(); res.ScannedFacts != n {
					t.Fatalf("before the appends: scanned %d facts, want %d", res.ScannedFacts, n)
				}
			}
			if st := e.SchedulerStats(); st.CacheHits == 0 {
				t.Fatalf("repeats never hit the result cache: %+v", st)
			}
			appendSales(t, e, 500)
			want := cubetest.NaiveExecute(ds.Cube, q, nil)
			for k := range 4 {
				res := query()
				if res.ScannedFacts != n+500 || !sameAnswer(res, want) {
					t.Fatalf("query %d after 500 appends: scanned %d facts, want %d (same answer as the reference: %v)",
						k, res.ScannedFacts, n+500, sameAnswer(res, want))
				}
			}
		})
	}
}

// TestSessionAnswersFollowAppends is TestBaselineAnswersFollowAppends over
// a personalized view: the session's cached view mask (and, sharded, its
// per-shard split) is stamped with the fact table's version, so rows
// appended under the session's level selections become visible to its
// next query instead of the mask built before them answering again.
func TestSessionAnswersFollowAppends(t *testing.T) {
	q := cube.Query{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Store", Level: "City"}},
		Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}}}
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e, ds := newTestEngineOpts(t, Options{ResultCacheBytes: 32 << 20, FactShards: shards})
			t.Cleanup(e.Close)
			s, err := e.StartSession("alice", ds.CityLocs[0])
			if err != nil {
				t.Fatal(err)
			}
			if s.View().Materialize("Sales") == nil {
				t.Fatal("alice's view is unrestricted: the test needs a personalized view")
			}
			query := func() *cube.Result {
				t.Helper()
				res, err := s.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			if res, want := query(), cubetest.NaiveExecute(ds.Cube, q, s.View()); !sameAnswer(res, want) {
				t.Fatalf("before the appends: scanned %d facts, the reference %d", res.ScannedFacts, want.ScannedFacts)
			}
			appendSales(t, e, 500)
			want := cubetest.NaiveExecute(ds.Cube, q, s.View())
			for k := range 2 {
				if res := query(); !sameAnswer(res, want) {
					t.Fatalf("query %d after 500 appends: scanned %d facts, the reference %d",
						k, res.ScannedFacts, want.ScannedFacts)
				}
			}
		})
	}
}

// appendSales appends n Sales facts through the engine, cycling over the
// first members of every dimension.
func appendSales(t *testing.T, e *Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		err := e.AddFact("Sales",
			map[string]int32{"Store": int32(i % 50), "Customer": int32(i % 30), "Product": int32(i % 20), "Time": int32(i % 40)},
			map[string]float64{"UnitSales": float64(i%7 + 1), "StoreSales": 2, "StoreCost": 1})
		if err != nil {
			t.Fatal(err)
		}
	}
}

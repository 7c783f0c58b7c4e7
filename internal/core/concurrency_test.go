package core

import (
	"fmt"
	"sync"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/geom"
)

// TestConcurrentSessions drives many users through the full lifecycle in
// parallel: session start (rule evaluation + schema cloning), queries,
// spatial selections (profile writes) and session end. Run with -race.
func TestConcurrentSessions(t *testing.T) {
	e, ds := newTestEngine(t)
	// Extra users so goroutines hit distinct and shared profiles.
	for i := 0; i < 4; i++ {
		if _, err := e.Users().GetOrCreate(fmt.Sprintf("user%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	q := cube.Query{
		Fact:       "Sales",
		GroupBy:    []cube.LevelRef{{Dimension: "Store", Level: "City"}},
		Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			user := "alice"
			if g%2 == 1 {
				user = "bob"
			}
			loc := ds.CityLocs[g%len(ds.CityLocs)]
			for round := 0; round < 5; round++ {
				s, err := e.StartSession(user, loc)
				if err != nil {
					errs <- err
					return
				}
				if _, err := s.Query(q); err != nil {
					errs <- err
					return
				}
				if user == "alice" {
					if _, err := s.SpatialSelect("GeoMD.Store.City",
						"Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km"); err != nil {
						errs <- err
						return
					}
				}
				if err := e.EndSession(s); err != nil {
					errs <- err
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
	// Alice's degree advanced once per selecting round (4 goroutines × 5).
	deg, err := e.Users().Get("alice").Resolve([]string{"dm2airportcity", "degree"})
	if err != nil {
		t.Fatal(err)
	}
	if deg != 20.0 {
		t.Fatalf("degree = %v, want 20 (no lost updates)", deg)
	}
}

// TestConcurrentQueriesVsViewMutation stress-tests the lone and batch
// executors against live session-view changes: readers hammer Execute /
// ExecuteBatch through the personalized view while writers keep firing
// spatial selections that replace the session's view (and so the mask
// its queries read). Run with -race. Every query must see a consistent
// snapshot: a result computed entirely before or entirely after some
// selection, so MatchedFacts can only shrink over time (selections
// intersect) and must never exceed the baseline.
func TestConcurrentQueriesVsViewMutation(t *testing.T) {
	e, ds := newTestEngine(t)
	s, err := e.StartSession("alice", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	q := cube.Query{
		Fact:       "Sales",
		GroupBy:    []cube.LevelRef{{Dimension: "Product", Level: "Family"}},
		Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}},
	}
	baseline, err := s.QueryBaseline(q)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})

	// Writers: interactive spatial selections narrowing the view.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for round := 0; round < 6; round++ {
			if _, err := s.SpatialSelect("GeoMD.Store.City",
				"Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km"); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Readers: parallel single queries and shared-scan batches.
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if g%2 == 0 {
					res, err := s.Query(q)
					if err != nil {
						errs <- err
						return
					}
					if res.MatchedFacts > baseline.MatchedFacts {
						errs <- fmt.Errorf("matched %d > baseline %d", res.MatchedFacts, baseline.MatchedFacts)
						return
					}
				} else {
					batch, err := s.QueryBatch([]cube.Query{q, q}, []bool{false, true})
					if err != nil {
						errs <- err
						return
					}
					if batch[0].MatchedFacts > batch[1].MatchedFacts {
						errs <- fmt.Errorf("personalized matched %d > baseline %d",
							batch[0].MatchedFacts, batch[1].MatchedFacts)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentQueriesOneSession exercises the view's materialization
// cache under parallel readers.
func TestConcurrentQueriesOneSession(t *testing.T) {
	e, ds := newTestEngine(t)
	s, err := e.StartSession("alice", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	q := cube.Query{Fact: "Sales", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}}
	var wg sync.WaitGroup
	results := make([]int, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Query(q)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res.MatchedFacts
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("inconsistent results: %v", results)
		}
	}
}

// trackStoresRule is a tracking rule that selects: a selection of cities
// near an airport also selects the stores near one.
const trackStoresRule = `
Rule:trackStores When SpatialSelection(GeoMD.Store.City,
    Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km) do
  Foreach s in (GeoMD.Store)
    If (Distance(s.geometry, GeoMD.Airport.geometry) < 3km) then
      SelectInstance(s)
    endIf
  endForeach
endWhen
`

// TestConcurrentSelectsOnOneSessionUnion pins that concurrent selection
// phases on one session lose none of each other's selections: two
// goroutines run disjoint store selections and city selections that fire
// a selecting tracking rule, all on one session. The
// final Store.Store selection holds every store either selected, and the
// view equals, key for key, that of a second session that made the same
// selections one after another. Run with -race.
func TestConcurrentSelectsOnOneSessionUnion(t *testing.T) {
	e, _ := newTestEngineUsers(t, Options{}, map[string]string{
		"alice": "RegionalSalesManager", "carol": "RegionalSalesManager"})
	if _, err := e.AddRules(trackStoresRule); err != nil {
		t.Fatal(err)
	}
	// Both sessions start before any selection, so neither login sees the
	// other's tracking-rule acquisitions.
	loc := geom.Pt(0, 0) // no store within 5 km: the stores start unrestricted
	conc, err := e.StartSession("alice", loc)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := e.StartSession("carol", loc)
	if err != nil {
		t.Fatal(err)
	}
	if conc.View().LevelMask("Store", "Store") != nil {
		t.Fatal("the login selected stores; the test needs them unrestricted")
	}
	type sel struct{ target, pred string }
	// Each goroutine selects three disjoint ranges of stores by name, then
	// the cities near an airport (firing trackStores).
	phases := func(first int) []sel {
		var out []sel
		for lo := first; lo < first+60; lo += 20 {
			out = append(out, sel{"GeoMD.Store", fmt.Sprintf(
				"GeoMD.Store.name >= 'Store%04d' and GeoMD.Store.name < 'Store%04d'", lo, lo+20)})
		}
		return append(out, sel{"GeoMD.Store.City",
			"Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km"})
	}
	goroutines := [2][]sel{phases(0), phases(75)}

	selected := make([][]int32, len(goroutines))
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, len(goroutines))
	for g, ph := range goroutines {
		wg.Add(1)
		go func(g int, ph []sel) {
			defer wg.Done()
			<-start
			for _, p := range ph {
				res, err := conc.SpatialSelect(p.target, p.pred)
				if err != nil {
					errs <- err
					return
				}
				for _, inst := range res.Selected {
					if inst.Level == "Store" {
						selected[g] = append(selected[g], inst.Index)
					}
				}
				if p.target == "GeoMD.Store.City" && len(res.RulesFired) == 0 {
					errs <- fmt.Errorf("goroutine %d: no tracking rule fired", g)
					return
				}
			}
		}(g, ph)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, ph := range goroutines {
		for _, p := range ph {
			if _, err := seq.SpatialSelect(p.target, p.pred); err != nil {
				t.Fatal(err)
			}
		}
	}

	got, want := conc.View(), seq.View()
	stores := got.LevelMask("Store", "Store")
	for g := range selected {
		if len(selected[g]) == 0 {
			t.Fatalf("goroutine %d selected no store: the harness proves nothing", g)
		}
		for _, m := range selected[g] {
			if !stores.Test(int(m)) {
				t.Fatalf("store %d, selected by goroutine %d, is missing from the final view", m, g)
			}
		}
	}
	if !stores.Equal(want.LevelMask("Store", "Store")) || got.Key() != want.Key() {
		t.Fatalf("concurrent selections: %d stores, key %x; one after another: %d stores, key %x",
			stores.Count(), got.Key(), want.LevelMask("Store", "Store").Count(), want.Key())
	}
}

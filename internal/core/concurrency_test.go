package core

import (
	"fmt"
	"sync"
	"testing"

	"sdwp/internal/cube"
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
// executors against live session-view mutation: readers hammer Execute /
// ExecuteBatch through the personalized view while writers keep firing
// spatial selections that mutate the same view and invalidate its
// materialized mask. Run with -race. Every query must see a consistent
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

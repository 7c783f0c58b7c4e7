package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"sdwp/internal/cube"
	"sdwp/internal/cube/cubetest"
)

// dashboardBatch is a 12-tile dashboard: four group-bys × three
// aggregates, every tile filtering on one customer-age parameter and two
// of the three aggregates adding a second predicate of their own, so the
// filter sets overlap without being equal and a scan shares per-predicate
// bitmaps, set masks and key columns.
func dashboardBatch(ageBelow float64) []cube.Query {
	lv := func(dim, level string) cube.LevelRef { return cube.LevelRef{Dimension: dim, Level: level} }
	groupBys := [][]cube.LevelRef{
		{lv("Store", "City")}, {lv("Store", "City"), lv("Product", "Family")},
		{lv("Store", "City"), lv("Time", "Month")}, {lv("Product", "Product")},
	}
	aggs := []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}, {Agg: cube.AggCount},
		{Measure: "UnitSales", Agg: cube.AggMax}}
	age := cube.AttrFilter{LevelRef: lv("Customer", "Customer"), Attr: "age", Op: cube.OpLt, Value: ageBelow}
	extra := []*cube.AttrFilter{nil,
		{LevelRef: lv("Store", "City"), Attr: "population", Op: cube.OpGe, Value: 200000.0},
		{LevelRef: lv("Product", "Product"), Attr: "brand", Op: cube.OpNe, Value: "Brand03"}}
	var qs []cube.Query
	for _, gb := range groupBys {
		for a, agg := range aggs {
			q := cube.Query{Fact: "Sales", GroupBy: gb, Aggregates: []cube.MeasureAgg{agg},
				Filters: []cube.AttrFilter{age}}
			if extra[a] != nil {
				q.Filters = append(q.Filters, *extra[a])
			}
			qs = append(qs, q)
		}
	}
	return qs
}

// TestDefaultEngineCachesDashboardArtifacts pins the artifact cache as
// default behaviour: an engine built with zero Options serves a repeated
// dashboard batch's shared artifacts from the fact table's cache (the
// first run is doorkept, the second admitted, the third hits), and every
// run answers exactly what the reference does.
func TestDefaultEngineCachesDashboardArtifacts(t *testing.T) {
	e, ds := newTestEngineOpts(t, Options{})
	defer e.Close()
	s, err := e.StartSession("bob", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Baseline tiles scan the whole table (a login's 5 km rule leaves
	// too few visible facts for an artifact to pay for itself).
	qs := dashboardBatch(40.25)
	baseline := make([]bool, len(qs))
	for i := range baseline {
		baseline[i] = true
	}
	before := e.SchedulerStats().ArtifactCache
	for run := 0; run < 3; run++ {
		res, err := s.QueryBatch(qs, baseline)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for i, q := range qs {
			if !sameAnswer(res[i], cubetest.NaiveExecute(ds.Cube, q, nil)) {
				t.Errorf("run %d tile %d: result differs from the reference", run, i)
			}
		}
	}
	st := e.SchedulerStats().ArtifactCache
	if st.Hits-before.Hits <= 0 {
		t.Fatalf("three dashboard runs on a default engine took nothing from the artifact cache: %+v", st)
	}
	if st.Doorkept-before.Doorkept <= 0 || st.Entries == 0 {
		t.Errorf("want first offers doorkept and repeats admitted: %+v", st)
	}
}

// TestArtifactCacheUnderConcurrentIngest races scheduler-routed dashboard
// batches — which look up, fill and offer the table's cached artifacts —
// against AddFact ingest bumping the table version under them. Run under
// -race in CI (scripts/stress.sh). Once ingest stops, repeated batches
// must be served from the cache again and match the reference.
func TestArtifactCacheUnderConcurrentIngest(t *testing.T) {
	e, ds := newTestEngineOpts(t, Options{QueryWorkers: 2})
	defer e.Close()
	qs := dashboardBatch(40.25)
	baseline := make([]bool, len(qs))
	for i := range baseline {
		baseline[i] = true
	}

	stop := make(chan struct{})
	var ingest sync.WaitGroup
	ingest.Add(1)
	go func() {
		defer ingest.Done()
		rng := rand.New(rand.NewSource(5))
		for {
			select {
			case <-stop:
				return
			default:
			}
			keys := map[string]int32{
				"Store":    int32(rng.Intn(150)),
				"Customer": int32(rng.Intn(100)),
				"Product":  int32(rng.Intn(40)),
				"Time":     int32(rng.Intn(60)),
			}
			if err := e.AddFact("Sales", keys, map[string]float64{"UnitSales": 1}); err != nil {
				t.Errorf("AddFact: %v", err)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	var queriers sync.WaitGroup
	for g := 0; g < 3; g++ {
		queriers.Add(1)
		go func(g int) {
			defer queriers.Done()
			s, err := e.StartSession("bob", ds.CityLocs[g])
			if err != nil {
				t.Error(err)
				return
			}
			for n := 0; n < 20; n++ {
				if _, err := s.QueryBatch(qs, baseline); err != nil {
					t.Errorf("querier %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	queriers.Wait()
	close(stop)
	ingest.Wait()

	s, err := e.StartSession("bob", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	before := e.SchedulerStats().ArtifactCache
	for run := 0; run < 3; run++ {
		res, err := s.QueryBatch(qs, baseline)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			if !sameAnswer(res[i], cubetest.NaiveExecute(ds.Cube, q, nil)) {
				t.Errorf("quiescent run %d tile %d: result differs from the reference", run, i)
			}
		}
	}
	if st := e.SchedulerStats().ArtifactCache; st.Hits == before.Hits {
		t.Errorf("quiescent repeats took nothing from the cache: %+v", st)
	}
}

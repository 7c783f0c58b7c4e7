package core

// Race-stress companion of the pooled-partial executor: batches (every
// scan takes its partial tables from the per-fact-table pool and releases
// them after finalize) run against concurrent AddFact
// ingest and SpatialSelect selection churn. The run must be data-race
// free (-race in CI; scripts/stress.sh runs the PooledPartial pattern),
// batches must stay internally consistent, and the quiescent state must
// match the executor-independent reference (cubetest.NaiveExecute) —
// pooled state bleeding between scans, or a
// partial released while its scan still reads it, shows up here as
// corrupted aggregates or detector reports.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/cube/cubetest"
	"sdwp/internal/datagen"
)

// TestPackedRepackUnderIngestRespectsScanBound stresses the compressed
// column layer's repack path: the warehouse is seeded with low dimension
// keys (every packed column starts at width 1), then concurrent ingest
// ramps the keys so each column overflows its bit width several times —
// each overflow repacks into a fresh word array — while concurrent batch
// scans hold packed views taken at compile time, and lone filtered
// queries fill their own stage-1 bitmaps from those views. A scan reading
// past its compile-time bound, or through a torn repack, breaks the SUM ==
// MatchedFacts identity below (every fact carries UnitSales 1), the
// filtered queries' match counts (the key sequence is deterministic, so
// the facts passing in any scanned prefix are known), or the quiescent
// equality against the reference.
func TestPackedRepackUnderIngestRespectsScanBound(t *testing.T) {
	const (
		stores    = 400 // forces Store-key widths 1 through 9 bits
		customers = 130
		products  = 70
		days      = 40
	)
	c := cube.New(datagen.SalesSchema())
	mustAdd := func(dim, level, name string, parent int32) int32 {
		t.Helper()
		id, err := c.AddMember(dim, level, name, parent)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	country := mustAdd("Store", "Country", "Spain", cube.NoParent)
	state := mustAdd("Store", "State", "State00", country)
	city := mustAdd("Store", "City", "City000", state)
	for i := 0; i < stores; i++ {
		mustAdd("Store", "Store", fmt.Sprintf("Store%04d", i), city)
	}
	seg := mustAdd("Customer", "Segment", "Retail", cube.NoParent)
	for i := 0; i < customers; i++ {
		cu := mustAdd("Customer", "Customer", fmt.Sprintf("Cust%04d", i), seg)
		if err := c.SetMemberAttr("Customer", "Customer", cu, "age", float64(18+i%70)); err != nil {
			t.Fatal(err)
		}
	}
	fam := mustAdd("Product", "Family", "Food", cube.NoParent)
	for i := 0; i < products; i++ {
		mustAdd("Product", "Product", fmt.Sprintf("Prod%03d", i), fam)
	}
	year := mustAdd("Time", "Year", "2009", cube.NoParent)
	month := mustAdd("Time", "Month", "2009-01", year)
	for i := 0; i < days; i++ {
		mustAdd("Time", "Day", fmt.Sprintf("2009-01-%02d", i), month)
	}
	// Seed low-key facts so every packed dim-key column starts at width 1.
	for i := 0; i < 1500; i++ {
		if err := c.AddFact("Sales", map[string]int32{
			"Store": int32(i % 2), "Customer": int32(i % 2),
			"Product": int32(i % 2), "Time": int32(i % 2),
		}, map[string]float64{"UnitSales": 1}); err != nil {
			t.Fatal(err)
		}
	}
	users, err := datagen.NewUserStore(map[string]string{"alice": "RegionalSalesManager"})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, users, Options{})
	defer e.Close()

	// Single-level SUM and COUNT (the dense monomorphic kernels) plus a
	// multi-level shape (the hashed-cell kernel).
	qs := []cube.Query{
		{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Store", Level: "Store"}},
			Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}}},
		{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Store", Level: "City"}},
			Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}},
		{Fact: "Sales",
			GroupBy:    []cube.LevelRef{{Dimension: "Store", Level: "Store"}, {Dimension: "Time", Level: "Day"}},
			Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}, {Agg: cube.AggCount}}},
	}

	// Lone filtered queries: a sparse code set on Customer (age < 40 holds
	// for customers i%70 < 22) and a contiguous one on Store (the first
	// 200 stores). Fact j's keys are j%2 for j < seed, then (j-seed) modulo
	// each dimension's cardinality, so wantMatched counts the facts of a
	// scanned prefix that pass.
	const seed = 1500
	young := cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: "Customer", Level: "Customer"},
		Attr: "age", Op: cube.OpLt, Value: 40.0}
	low := cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: "Store", Level: "Store"},
		Attr: "name", Op: cube.OpLt, Value: "Store0200"}
	lone := []cube.Query{
		{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Store", Level: "Store"}},
			Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}},
			Filters:    []cube.AttrFilter{young}},
		{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Time", Level: "Day"}},
			Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}},
			Filters:    []cube.AttrFilter{young, low}},
	}
	wantMatched := func(q cube.Query, scanned int) int {
		n := min(scanned, seed) // the seed facts pass both predicates
		for i := 0; i < scanned-seed; i++ {
			pass := i%customers%70 < 22
			if len(q.Filters) > 1 {
				pass = pass && i%stores < 200
			}
			if pass {
				n++
			}
		}
		return n
	}

	stop := make(chan struct{})
	errs := make(chan error, 16)
	var writers sync.WaitGroup
	writers.Add(1)
	go func() { // ingest: ramp keys so every column repacks mid-run
		defer writers.Done()
		for i := 0; i < 40000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.AddFact("Sales", map[string]int32{
				"Store": int32(i % stores), "Customer": int32(i % customers),
				"Product": int32(i % products), "Time": int32(i % days),
			}, map[string]float64{"UnitSales": 1}); err != nil {
				errs <- err
				return
			}
		}
	}()

	var queriers sync.WaitGroup
	for g := 0; g < 3; g++ {
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			for n := 0; n < 25; n++ {
				res, err := e.ExecuteBatch(qs, nil)
				if err != nil {
					errs <- err
					return
				}
				// No filters and no view: every scanned fact matches, and
				// each fact's UnitSales is 1, so each entry's first
				// aggregate (SUM or COUNT) must total MatchedFacts exactly.
				for i, r := range res {
					if r.ScannedFacts != r.MatchedFacts {
						errs <- fmt.Errorf("batch entry %d: scanned %d != matched %d",
							i, r.ScannedFacts, r.MatchedFacts)
						return
					}
					var sum float64
					for _, row := range r.Rows {
						sum += row.Values[0]
					}
					if sum != float64(r.MatchedFacts) {
						errs <- fmt.Errorf("batch entry %d: aggregate total %v != matched %d (scan bound violated)",
							i, sum, r.MatchedFacts)
						return
					}
				}
				for i, q := range lone {
					res, err := e.ExecuteBatch([]cube.Query{q}, nil)
					if err != nil {
						errs <- err
						return
					}
					r := res[0]
					var sum float64
					for _, row := range r.Rows {
						sum += row.Values[0]
					}
					if want := wantMatched(q, r.ScannedFacts); r.MatchedFacts != want || sum != float64(want) {
						errs <- fmt.Errorf("lone query %d over %d facts: matched %d, total %v, want %d",
							i, r.ScannedFacts, r.MatchedFacts, sum, want)
						return
					}
				}
			}
		}()
	}
	queriers.Wait()
	close(stop)
	writers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiescent: the packed batch path equals the reference over the
	// fully repacked columns.
	qs = append(qs, lone...)
	res, err := e.ExecuteBatch(qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if !sameAnswer(res[i], cubetest.NaiveExecute(c, q, nil)) {
			t.Fatalf("quiescent batch entry %d differs from the reference", i)
		}
	}
}

func TestPooledPartialBatchUnderIngestAndSpatialSelect(t *testing.T) {
	t.Run("shared", func(t *testing.T) {
		e, ds := newTestEngine(t)
		defer e.Close()
		s, err := e.StartSession("alice", ds.CityLocs[0])
		if err != nil {
			t.Fatal(err)
		}
		// Alternate group-bys so consecutive scans rebind pooled
		// partials between the dense path (single group) and the
		// hash-cells path (two groups) with different aggregate counts.
		qs := make([]cube.Query, 6)
		for i := range qs {
			qs[i] = cube.Query{
				Fact:       "Sales",
				GroupBy:    []cube.LevelRef{{Dimension: "Store", Level: "City"}},
				Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}, {Measure: "UnitSales", Agg: cube.AggSum}},
				Limit:      1000 + i, // distinct plans, shared subexpressions
			}
			if i%2 == 1 {
				qs[i].GroupBy = []cube.LevelRef{
					{Dimension: "Store", Level: "State"}, {Dimension: "Time", Level: "Month"}}
				qs[i].Aggregates = []cube.MeasureAgg{{Agg: cube.AggCount}}
			}
		}

		stop := make(chan struct{})
		errs := make(chan error, 64)
		var writers sync.WaitGroup
		writers.Add(1)
		go func() { // ingest: append facts while batches scan
			defer writers.Done()
			rng := rand.New(rand.NewSource(11))
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
					errs <- err
					return
				}
			}
		}()
		writers.Add(1)
		go func() { // selection churn: widen the view while batches scan
			defer writers.Done()
			for _, km := range []int{2, 8, 32, 120} {
				pred := fmt.Sprintf(
					"Distance(GeoMD.Store.geometry, SUS.DecisionMaker.dm2session.s2location.geometry) < %dkm", km)
				if _, err := s.SpatialSelect("GeoMD.Store", pred); err != nil {
					errs <- err
					return
				}
			}
		}()

		var queriers sync.WaitGroup
		for g := 0; g < 3; g++ {
			queriers.Add(1)
			go func() {
				defer queriers.Done()
				for n := 0; n < 20; n++ {
					res, err := s.QueryBatch(qs, nil)
					if err != nil {
						errs <- err
						return
					}
					// No query filters, so MatchedFacts is each entry's
					// visible fact count. The table only grows and
					// selections only widen, and entries materialize
					// their view snapshot in batch order — so within
					// one batch the counts must be non-decreasing; a
					// drop means a torn mask or pooled state bleeding
					// between scans.
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
		queriers.Wait()
		close(stop)
		writers.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		// Quiescent: pooled batch results equal the reference. The
		// session's mask was materialized when the last selection
		// landed, so facts ingested after it are not in it; the
		// reference reads that same snapshot through a fact-level view.
		res, err := s.QueryBatch(qs, nil)
		if err != nil {
			t.Fatal(err)
		}
		snapB := cube.NewView(e.Cube()).Builder()
		s.View().Materialize("Sales").ForEach(func(i int) bool {
			if err := snapB.SelectFact("Sales", int32(i)); err != nil {
				t.Fatal(err)
			}
			return true
		})
		snap := snapB.View()
		for i, q := range qs {
			if !sameAnswer(res[i], cubetest.NaiveExecute(e.Cube(), q, snap)) {
				t.Fatalf("quiescent batch entry %d differs from the reference", i)
			}
		}
	})
}

package core

// Engine-level coverage of the shard subsystem: a sharded engine — PRML
// session personalization, spatial selections, the scheduler, and the
// scatter-gather executor all composed — must return results identical to
// an unsharded engine over the same warehouse and to the
// executor-independent reference (cubetest.NaiveExecute), and must survive
// concurrent queries vs SpatialSelect vs routed AddFact under the race
// detector.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/cube/cubetest"
)

// shardedTestQueries is a small personalization-sensitive query mix
// (integer-valued UnitSales keeps SUM exact under any merge order).
var shardedTestQueries = []cube.Query{
	{Fact: "Sales", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}},
	{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Store", Level: "City"}},
		Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}}},
	{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Product", Level: "Family"}},
		Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggAvg}},
		OrderBy:    &cube.OrderBy{Agg: 0, Desc: true}, Limit: 5},
	{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Store", Level: "State"}},
		Aggregates: []cube.MeasureAgg{{Measure: "StoreSales", Agg: cube.AggMax},
			{Measure: "StoreCost", Agg: cube.AggMin}},
		Filters: []cube.AttrFilter{{
			LevelRef: cube.LevelRef{Dimension: "Store", Level: "City"},
			Attr:     "population", Op: cube.OpGt, Value: float64(100000)}}},
}

// TestShardedEngineEquivalence runs the same personalized sessions (rules
// fired, spatial selections applied) through a sharded and an unsharded
// engine over the same cube and requires identical results on every path
// — Query, QueryBaseline, QueryBatch, and Engine.ExecuteBatch.
func TestShardedEngineEquivalence(t *testing.T) {
	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sharded, ds := newTestEngineOpts(t, Options{
				FactShards: shards,
			})
			defer sharded.Close()
			if got := sharded.FactShards(); got != shards {
				t.Fatalf("FactShards() = %d, want %d", got, shards)
			}
			plain := NewEngine(ds.Cube, sharded.Users(), Options{})
			defer plain.Close()
			plain.SetParam("threshold", mustParam(t, sharded, "threshold"))
			if _, err := plain.AddRules(paperRules); err != nil {
				t.Fatal(err)
			}

			s1, err := sharded.StartSession("alice", ds.CityLocs[0])
			if err != nil {
				t.Fatal(err)
			}
			s2, err := plain.StartSession("alice", ds.CityLocs[0])
			if err != nil {
				t.Fatal(err)
			}
			// A spatial selection narrows both sessions' views identically
			// and bumps the view epochs (re-splitting the shard masks).
			const sel = "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 40km"
			if _, err := s1.SpatialSelect("GeoMD.Store.City", sel); err != nil {
				t.Fatal(err)
			}
			if _, err := s2.SpatialSelect("GeoMD.Store.City", sel); err != nil {
				t.Fatal(err)
			}

			for i, q := range shardedTestQueries {
				r1, err := s1.Query(q)
				if err != nil {
					t.Fatalf("query %d sharded: %v", i, err)
				}
				r2, err := s2.Query(q)
				if err != nil {
					t.Fatalf("query %d plain: %v", i, err)
				}
				if !sameAnswer(r1, r2) {
					t.Errorf("query %d: sharded result differs from unsharded", i)
				}
				if !sameAnswer(r2, cubetest.NaiveExecute(ds.Cube, q, s2.View())) {
					t.Errorf("query %d: unsharded result differs from the reference", i)
				}
				b1, err := s1.QueryBaseline(q)
				if err != nil {
					t.Fatal(err)
				}
				b2, err := s2.QueryBaseline(q)
				if err != nil {
					t.Fatal(err)
				}
				if !sameAnswer(b1, b2) {
					t.Errorf("query %d: sharded baseline differs", i)
				}
			}

			// Batch paths.
			batch1, err := s1.QueryBatch(shardedTestQueries, nil)
			if err != nil {
				t.Fatal(err)
			}
			batch2, err := s2.QueryBatch(shardedTestQueries, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswers(batch1, batch2) {
				t.Error("sharded QueryBatch differs from unsharded")
			}
			raw1, err := sharded.ExecuteBatch(shardedTestQueries, []*Session{s1, nil, s1, nil})
			if err != nil {
				t.Fatal(err)
			}
			raw2, err := plain.ExecuteBatch(shardedTestQueries, []*Session{s2, nil, s2, nil})
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswers(raw1, raw2) {
				t.Error("sharded Engine.ExecuteBatch differs from unsharded")
			}

			// Routed ingest through the engine keeps both sides consistent:
			// the sharded engine's parent cube is the plain engine's cube.
			rng := rand.New(rand.NewSource(int64(shards)))
			for i := 0; i < 100; i++ {
				keys := map[string]int32{
					"Store":    int32(rng.Intn(150)),
					"Customer": int32(rng.Intn(100)),
					"Product":  int32(rng.Intn(40)),
					"Time":     int32(rng.Intn(60)),
				}
				measures := map[string]float64{"UnitSales": float64(1 + rng.Intn(9))}
				if err := sharded.AddFact("Sales", keys, measures); err != nil {
					t.Fatalf("AddFact %d: %v", i, err)
				}
			}
			for i, q := range shardedTestQueries {
				b1, err := s1.QueryBaseline(q)
				if err != nil {
					t.Fatal(err)
				}
				if !sameAnswer(b1, cubetest.NaiveExecute(ds.Cube, q, nil)) {
					t.Errorf("post-ingest query %d: sharded differs from the reference", i)
				}
			}

			st := sharded.SchedulerStats()
			if st.FactShards != shards || len(st.ShardFactCounts) != shards || st.ShardScans == 0 {
				t.Errorf("shard stats not composed into SchedulerStats: %+v", st)
			}
		})
	}
}

// TestShardedBatchUnderSpatialSelectAndIngest is the engine-level race
// stress: sharded scheduler-routed batches run while sessions keep
// applying spatial selections and facts stream in through the routed
// ingest path. Run under -race in CI.
func TestShardedBatchUnderSpatialSelectAndIngest(t *testing.T) {
	e, ds := newTestEngineOpts(t, Options{
		FactShards:       3,
		ResultCacheBytes: 1 << 20,
	})
	defer e.Close()

	const sessions = 3
	ss := make([]*Session, sessions)
	for i := range ss {
		s, err := e.StartSession("alice", ds.CityLocs[i%len(ds.CityLocs)])
		if err != nil {
			t.Fatal(err)
		}
		ss[i] = s
	}

	stop := make(chan struct{})
	var mutators sync.WaitGroup

	// Ingest stream.
	mutators.Add(1)
	go func() {
		defer mutators.Done()
		rng := rand.New(rand.NewSource(1))
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
		}
	}()

	// Selection stream: epochs bump, shard masks re-split.
	mutators.Add(1)
	go func() {
		defer mutators.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s := ss[i%sessions]
			if _, err := s.SpatialSelect("GeoMD.Store.City",
				"Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 40km"); err != nil {
				t.Errorf("SpatialSelect: %v", err)
				return
			}
		}
	}()

	var queriers sync.WaitGroup
	for g := 0; g < 4; g++ {
		queriers.Add(1)
		go func(g int) {
			defer queriers.Done()
			s := ss[g%sessions]
			for n := 0; n < 25; n++ {
				q := shardedTestQueries[n%len(shardedTestQueries)]
				if _, err := s.Query(q); err != nil {
					t.Errorf("querier %d: %v", g, err)
					return
				}
				if _, err := s.QueryBatch(shardedTestQueries[:2], []bool{false, true}); err != nil {
					t.Errorf("querier %d batch: %v", g, err)
					return
				}
			}
		}(g)
	}
	queriers.Wait()
	close(stop)
	mutators.Wait()
}

// TestUnshardedAddFactUnderQueries pins Engine.AddFact's concurrency
// contract on the single-table path: ingest through the engine takes the
// executor's write lock, so it is safe against scheduler-routed queries
// (fact-column appends can reallocate the backing arrays mid-scan
// otherwise). Run under -race in CI.
func TestUnshardedAddFactUnderQueries(t *testing.T) {
	e, ds := newTestEngine(t)
	defer e.Close()
	s, err := e.StartSession("alice", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var ingest sync.WaitGroup
	ingest.Add(1)
	go func() {
		defer ingest.Done()
		rng := rand.New(rand.NewSource(3))
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
		}
	}()

	var queriers sync.WaitGroup
	for g := 0; g < 3; g++ {
		queriers.Add(1)
		go func(g int) {
			defer queriers.Done()
			for n := 0; n < 25; n++ {
				if _, err := s.Query(shardedTestQueries[n%len(shardedTestQueries)]); err != nil {
					t.Errorf("querier %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	queriers.Wait()
	close(stop)
	ingest.Wait()

	// After quiescence the scheduler's answer matches the serial oracle.
	got, err := s.QueryBaseline(shardedTestQueries[1])
	if err != nil {
		t.Fatal(err)
	}
	want, err := ds.Cube.Execute(shardedTestQueries[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswer(got, want) {
		t.Error("post-ingest result differs from serial oracle")
	}
}

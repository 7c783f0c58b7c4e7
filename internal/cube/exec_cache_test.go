package cube_test

// Unit coverage of the fact tables' cross-batch artifact caches through
// the batch executor: repeated batches hit, table mutations invalidate,
// the byte budget evicts, and results never change whichever way a lookup
// goes.

import (
	"fmt"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/cube/cubetest"
	"sdwp/internal/datagen"
)

func cacheTestBatch() []cube.Query {
	filters := []cube.AttrFilter{{
		LevelRef: cube.LevelRef{Dimension: "Store", Level: "City"},
		Attr:     "population", Op: cube.OpGt, Value: float64(100000),
	}}
	var qs []cube.Query
	for _, level := range []string{"Store", "City", "State"} {
		for _, agg := range []cube.MeasureAgg{
			{Measure: "UnitSales", Agg: cube.AggSum},
			{Agg: cube.AggCount},
		} {
			qs = append(qs, cube.Query{
				Fact:       "Sales",
				GroupBy:    []cube.LevelRef{{Dimension: "Store", Level: level}},
				Aggregates: []cube.MeasureAgg{agg},
				Filters:    filters,
			})
		}
	}
	return qs
}

func TestArtifactCacheHitStaleAndEquivalence(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Seed: 5, States: 5, Cities: 15, Stores: 80, Customers: 60,
		Products: 30, Days: 30, Sales: 4000,
		AirportEvery: 5, TrainLines: 4, Hospitals: 5, Highways: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := cacheTestBatch()
	stats := ds.Cube.ArtifactCacheStats
	run := func(label string) []*cube.Result {
		res, _, err := cube.ExecuteBatchStats(ds.Cube, qs, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return res
	}

	baseline := make([]*cube.Result, len(qs))
	for i, q := range qs {
		baseline[i], err = ds.Cube.Execute(q, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	// The admission doorkeeper turns first offers away: one batch is not
	// enough to cache anything, the repeat admits, the third run hits.
	first := run("first")
	if st := stats(); st.Entries != 0 || st.Doorkept == 0 {
		t.Fatalf("first batch should be doorkept, not cached: %+v", st)
	}
	admitted := run("admitted")
	if st := stats(); st.Entries == 0 {
		t.Fatalf("second batch cached nothing: %+v", st)
	}
	hitsAfterAdmit := stats().Hits
	second := run("second")
	st := stats()
	if st.Hits <= hitsAfterAdmit {
		t.Fatalf("repeat batch did not hit the cache: %+v", st)
	}
	for i := range qs {
		if !sameAnswer(first[i], baseline[i]) || !sameAnswer(admitted[i], baseline[i]) ||
			!sameAnswer(second[i], baseline[i]) {
			t.Errorf("case %d: cached execution differs from serial", i)
		}
	}

	// AddFact bumps the table version: the next batch must observe stale
	// entries, re-materialize, and still match the serial oracle.
	if err := ds.Cube.AddFact("Sales", map[string]int32{
		"Store": 0, "Customer": 0, "Product": 0, "Time": 0,
	}, map[string]float64{"UnitSales": 3}); err != nil {
		t.Fatal(err)
	}
	third := run("after-addfact")
	if got := stats(); got.Stale == 0 {
		t.Errorf("AddFact did not invalidate cached artifacts: %+v", got)
	}
	for i, q := range qs {
		want, err := ds.Cube.Execute(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswer(third[i], want) {
			t.Errorf("case %d: post-mutation cached execution differs from serial", i)
		}
	}

	// Member attribute mutation invalidates too (filter columns moved).
	if err := ds.Cube.SetMemberAttr("Store", "City", 0, "population", float64(1)); err != nil {
		t.Fatal(err)
	}
	staleBefore := stats().Stale
	fourth := run("after-attr")
	if got := stats(); got.Stale <= staleBefore {
		t.Errorf("SetMemberAttr did not invalidate cached artifacts: %+v", got)
	}
	for i, q := range qs {
		want, err := ds.Cube.Execute(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswer(fourth[i], want) {
			t.Errorf("case %d: post-attr cached execution differs from serial", i)
		}
	}
}

func TestArtifactCacheEviction(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Seed: 9, States: 4, Cities: 12, Stores: 60, Customers: 50,
		Products: 20, Days: 20, Sales: 3000,
		AirportEvery: 4, TrainLines: 3, Hospitals: 4, Highways: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A cache barely big enough for one key column (4 bytes/fact) forces
	// displacement as distinct groupings stream through.
	cube.SetArtifactCacheLimits(ds.Cube, "Sales", int64(4*3000+64), 0)
	for round := 0; round < 3; round++ {
		for _, level := range []string{"Store", "City", "State", "Country"} {
			qs := []cube.Query{
				{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Store", Level: level}},
					Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}}},
				{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Store", Level: level}},
					Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}},
			}
			res, _, err := cube.ExecuteBatchStats(ds.Cube, qs, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				want, werr := ds.Cube.Execute(q, nil)
				if werr != nil {
					t.Fatal(werr)
				}
				if !sameAnswer(res[i], want) {
					t.Errorf("round %d level %s case %d: differs under eviction pressure",
						round, level, i)
				}
			}
		}
	}
	st := ds.Cube.ArtifactCacheStats()
	if st.Evictions == 0 {
		t.Errorf("tiny cache never evicted: %+v", st)
	}
	if st.Bytes > int64(4*3000+64) {
		t.Errorf("cache exceeds its byte bound: %+v", st)
	}
	if st.Entries > 1 {
		// One key column fits; a second must displace the first.
		t.Logf("note: %d entries resident (%d bytes)", st.Entries, st.Bytes)
	}
}

// doorkeeperBatch builds two no-group-by queries sharing one single-filter
// set, so a batch offers the cache exactly one artifact: the composed
// filter-set mask (no groupings → no key columns).
func doorkeeperBatch(value float64) []cube.Query {
	filters := []cube.AttrFilter{{
		LevelRef: cube.LevelRef{Dimension: "Store", Level: "City"},
		Attr:     "population", Op: cube.OpGt, Value: value,
	}}
	return []cube.Query{
		{Fact: "Sales", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}, Filters: filters},
		{Fact: "Sales", Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}}, Filters: filters},
	}
}

// TestArtifactCacheDoorkeeperAdmission pins the two-generation admission
// policy: a one-shot filter's artifact is never cached, its second offer
// admits, and a third run is served from the cache.
func TestArtifactCacheDoorkeeperAdmission(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Seed: 21, States: 4, Cities: 10, Stores: 50, Customers: 40,
		Products: 20, Days: 20, Sales: 2500,
		AirportEvery: 4, TrainLines: 3, Hospitals: 4, Highways: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := ds.Cube.ArtifactCacheStats
	run := func(v float64) {
		if _, _, err := cube.ExecuteBatchStats(ds.Cube, doorkeeperBatch(v), nil); err != nil {
			t.Fatal(err)
		}
	}

	// One-shot filters: each value is offered once and turned away.
	for i := 0; i < 4; i++ {
		run(float64(10000 + i))
	}
	st := stats()
	if st.Entries != 0 {
		t.Fatalf("one-shot filters were cached: %+v", st)
	}
	if st.Doorkept != 4 {
		t.Fatalf("doorkept = %d, want 4 (one per one-shot filter set): %+v", st.Doorkept, st)
	}

	// A repeated filter admits on its second offer and hits from then on.
	run(99999)
	if st := stats(); st.Entries != 0 {
		t.Fatalf("first offer admitted: %+v", st)
	}
	run(99999)
	if st := stats(); st.Entries != 1 {
		t.Fatalf("second offer did not admit: %+v", st)
	}
	hits := stats().Hits
	run(99999)
	if st := stats(); st.Hits <= hits {
		t.Fatalf("admitted artifact not served: %+v", st)
	}
}

// TestArtifactCacheDoorkeeperRotation pins generation rotation: with a
// one-entry generation, a stream of distinct fingerprints keeps rotating
// the maps, so a fingerprint re-offered after two strangers has been
// forgotten (still not admitted), while an immediate repeat — surviving in
// the old generation — is.
func TestArtifactCacheDoorkeeperRotation(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Seed: 22, States: 4, Cities: 10, Stores: 50, Customers: 40,
		Products: 20, Days: 20, Sales: 2500,
		AirportEvery: 4, TrainLines: 3, Hospitals: 4, Highways: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cube.SetArtifactCacheLimits(ds.Cube, "Sales", 0, 1)
	stats := ds.Cube.ArtifactCacheStats
	run := func(v float64) {
		if _, _, err := cube.ExecuteBatchStats(ds.Cube, doorkeeperBatch(v), nil); err != nil {
			t.Fatal(err)
		}
	}

	// A, B, C rotate the single-slot generations twice; by the time A is
	// re-offered both generations have forgotten it.
	run(1)
	run(2)
	run(3)
	run(1)
	if st := stats(); st.Entries != 0 || st.Doorkept != 4 {
		t.Fatalf("rotation should have forgotten A (want 4 doorkept, 0 entries): %+v", st)
	}

	// An immediate repeat survives in the old generation and admits: after
	// offering D (filling the current generation), D's repeat still hits
	// one of the two generations.
	run(4)
	run(4)
	if st := stats(); st.Entries != 1 {
		t.Fatalf("immediate repeat should admit across generations: %+v", st)
	}
}

// TestArtifactCacheDefaultBudget pins the budget rule: a table caches at
// most artifactBytesPerFact (20) bytes per fact — five table-length key
// columns — so a stream of more distinct hot groupings than that evicts
// without any configured bound, and the footprint never exceeds it.
func TestArtifactCacheDefaultBudget(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Seed: 9, States: 4, Cities: 12, Stores: 60, Customers: 50,
		Products: 20, Days: 20, Sales: 3000,
		AirportEvery: 4, TrainLines: 3, Hospitals: 4, Highways: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	budget := cube.ArtifactCacheBudget(ds.Cube, "Sales")
	if want := int64(20 * ds.Cube.FactData("Sales").Len()); budget != want {
		t.Fatalf("budget = %d bytes, want 20 per fact = %d", budget, want)
	}
	groupings := []cube.LevelRef{
		{Dimension: "Store", Level: "Store"}, {Dimension: "Store", Level: "City"},
		{Dimension: "Store", Level: "State"}, {Dimension: "Customer", Level: "Customer"},
		{Dimension: "Customer", Level: "Segment"}, {Dimension: "Product", Level: "Product"},
		{Dimension: "Time", Level: "Day"}, {Dimension: "Time", Level: "Month"},
	}
	for round := 0; round < 3; round++ {
		for _, g := range groupings {
			qs := []cube.Query{
				{Fact: "Sales", GroupBy: []cube.LevelRef{g},
					Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}}},
				{Fact: "Sales", GroupBy: []cube.LevelRef{g},
					Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}},
			}
			res, _, err := cube.ExecuteBatchStats(ds.Cube, qs, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				diffResults(t, fmt.Sprintf("round %d %s case %d", round, g.Level, i),
					res[i], cubetest.NaiveExecute(ds.Cube, q, nil))
			}
			if st := ds.Cube.ArtifactCacheStats(); st.Bytes > budget {
				t.Fatalf("cache holds %d bytes, over its %d-byte budget: %+v", st.Bytes, budget, st)
			}
		}
	}
	if st := ds.Cube.ArtifactCacheStats(); st.Evictions == 0 || st.Entries > 5 {
		t.Errorf("%d hot key columns should overflow a 5-column budget: %+v", len(groupings), st)
	}
}

// TestArtifactCacheSkipsPrefixScans pins the insert guard: a batch
// compiled before AddFact scans only the table prefix its plans cover, so
// the key column it fills must never be cached under the grown table's
// version, where a later full-length scan would take it and misplace the
// new facts.
func TestArtifactCacheSkipsPrefixScans(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Seed: 31, States: 4, Cities: 12, Stores: 60, Customers: 50,
		Products: 20, Days: 20, Sales: 3000,
		AirportEvery: 4, TrainLines: 3, Hospitals: 4, Highways: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	byStore := []cube.LevelRef{{Dimension: "Store", Level: "Store"}}
	qs := []cube.Query{
		{Fact: "Sales", GroupBy: byStore, Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}}},
		{Fact: "Sales", GroupBy: byStore, Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}},
	}
	compile := func() []*cube.CompiledQuery {
		cqs := make([]*cube.CompiledQuery, len(qs))
		for i, q := range qs {
			if cqs[i], err = ds.Cube.Compile(q); err != nil {
				t.Fatal(err)
			}
		}
		return cqs
	}
	stale := compile()
	for i := 0; i < 64; i++ {
		if err := ds.Cube.AddFact("Sales", map[string]int32{
			"Store": int32(7 + i%5), "Customer": 0, "Product": 0, "Time": 0,
		}, map[string]float64{"UnitSales": 5}); err != nil {
			t.Fatal(err)
		}
	}
	// Offered twice, a prefix scan's key column would pass the doorkeeper.
	for run := 0; run < 2; run++ {
		if _, _, err := ds.Cube.ExecuteBatchCompiledOpt(stale, nil, cube.BatchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := ds.Cube.ArtifactCacheStats(); st.Entries != 0 || st.Doorkept != 0 {
		t.Fatalf("prefix scans offered artifacts to the cache: %+v", st)
	}
	for run := 0; run < 3; run++ {
		res, _, err := ds.Cube.ExecuteBatchCompiledOpt(compile(), nil, cube.BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			diffResults(t, fmt.Sprintf("full scan %d case %d", run, i), res[i], cubetest.NaiveExecute(ds.Cube, q, nil))
		}
	}
}

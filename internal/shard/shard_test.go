package shard_test

// Equivalence and race harness for the sharded executor: for generated
// warehouses, randomized queries and randomized personalized views, the
// scatter-gather Table — across shard counts {1, 2, 4, 7} — must return
// Results identical to the executor-independent reference
// (cubetest.NaiveExecute over the parent cube), before and after routed
// ingest. SUM/AVG draw over the integer-valued UnitSales measure so
// per-group sums are exact in float64 and byte-for-byte equality holds
// regardless of merge order (the same convention as the executor harness
// in internal/cube).

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/cube/cubetest"
	"sdwp/internal/datagen"
	"sdwp/internal/obs"
	"sdwp/internal/qsched"
	"sdwp/internal/shard"
)

// executeBatch compiles qs on ex (a sharded table or its parent cube) and
// runs them as one batch.
func executeBatch(ex qsched.Executor, qs []cube.Query, vs []*cube.View) ([]*cube.Result, cube.SharingStats, error) {
	cqs := make([]*cube.CompiledQuery, len(qs))
	for i, q := range qs {
		cq, err := ex.Compile(q)
		if err != nil {
			return nil, cube.SharingStats{}, fmt.Errorf("batch query %d: %w", i, err)
		}
		cqs[i] = cq
	}
	return ex.ExecuteBatchCompiledOpt(cqs, vs, cube.BatchOptions{})
}

func testDataset(t testing.TB, seed int64) (*datagen.Dataset, datagen.Config) {
	t.Helper()
	cfg := datagen.Config{
		Seed: seed, States: 5, Cities: 15, Stores: 80, Customers: 60,
		Products: 30, Days: 30, Sales: 4000,
		AirportEvery: 5, TrainLines: 4, Hospitals: 5, Highways: 2,
	}
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds, cfg
}

var equivLevels = map[string][]string{
	"Store":    {"Store", "City", "State", "Country"},
	"Customer": {"Customer", "Segment"},
	"Product":  {"Product", "Family"},
	"Time":     {"Day", "Month", "Year"},
}

var equivDims = []string{"Store", "Customer", "Product", "Time"}

func randomQuery(rng *rand.Rand) cube.Query {
	q := cube.Query{Fact: "Sales"}
	dims := append([]string(nil), equivDims...)
	rng.Shuffle(len(dims), func(i, j int) { dims[i], dims[j] = dims[j], dims[i] })
	for _, d := range dims[:rng.Intn(4)] {
		levels := equivLevels[d]
		q.GroupBy = append(q.GroupBy, cube.LevelRef{Dimension: d, Level: levels[rng.Intn(len(levels))]})
	}
	for n := 1 + rng.Intn(3); len(q.Aggregates) < n; {
		switch rng.Intn(5) {
		case 0:
			q.Aggregates = append(q.Aggregates, cube.MeasureAgg{Agg: cube.AggCount})
		case 1:
			q.Aggregates = append(q.Aggregates, cube.MeasureAgg{Measure: "UnitSales", Agg: cube.AggSum})
		case 2:
			q.Aggregates = append(q.Aggregates, cube.MeasureAgg{Measure: "UnitSales", Agg: cube.AggAvg})
		case 3:
			q.Aggregates = append(q.Aggregates, cube.MeasureAgg{Measure: "StoreCost", Agg: cube.AggMin})
		case 4:
			q.Aggregates = append(q.Aggregates, cube.MeasureAgg{Measure: "StoreSales", Agg: cube.AggMax})
		}
	}
	// Filter values come from small pools so predicates recur across the
	// batch's queries: overlapping-but-unequal filter sets are exactly
	// what the stage-1 planner's shapes (predicate bitmaps ANDed into set
	// masks, masks of kernels alone, sparse walks) need to be exercised
	// against the reference.
	numericOps := []cube.FilterOp{cube.OpEq, cube.OpNe, cube.OpLt, cube.OpLe, cube.OpGt, cube.OpGe}
	popPool := []float64{100000, 500000, 1500000}
	agePool := []float64{30, 45, 60}
	for i := rng.Intn(3); i > 0; i-- {
		switch rng.Intn(2) {
		case 0:
			q.Filters = append(q.Filters, cube.AttrFilter{
				LevelRef: cube.LevelRef{Dimension: "Store", Level: "City"},
				Attr:     "population",
				Op:       numericOps[rng.Intn(len(numericOps))],
				Value:    popPool[rng.Intn(len(popPool))],
			})
		case 1:
			q.Filters = append(q.Filters, cube.AttrFilter{
				LevelRef: cube.LevelRef{Dimension: "Customer", Level: "Customer"},
				Attr:     "age",
				Op:       numericOps[rng.Intn(len(numericOps))],
				Value:    agePool[rng.Intn(len(agePool))],
			})
		}
	}
	if len(q.Aggregates) > 0 && rng.Intn(2) == 0 {
		q.OrderBy = &cube.OrderBy{Agg: rng.Intn(len(q.Aggregates)), Desc: rng.Intn(2) == 0}
	}
	if rng.Intn(2) == 0 {
		q.Limit = 1 + rng.Intn(10)
	}
	return q
}

func randomView(rng *rand.Rand, c *cube.Cube, cfg datagen.Config) *cube.View {
	if rng.Intn(3) == 0 {
		return nil
	}
	b := cube.NewView(c).Builder()
	pick := func(dim, level string, max, n int) {
		for i := 0; i < n; i++ {
			if err := b.SelectMember(dim, level, int32(rng.Intn(max))); err != nil {
				panic(err)
			}
		}
	}
	switch rng.Intn(4) {
	case 0:
		pick("Store", "City", cfg.Cities, 2+rng.Intn(8))
	case 1:
		pick("Store", "Store", cfg.Stores, 5+rng.Intn(20))
	case 2:
		pick("Product", "Family", 5, 1+rng.Intn(3))
	case 3:
		pick("Store", "City", cfg.Cities, 2+rng.Intn(8))
		pick("Customer", "Segment", 3, 1+rng.Intn(2))
	}
	if rng.Intn(4) == 0 {
		for i := 0; i < 50; i++ {
			if err := b.SelectFact("Sales", int32(rng.Intn(cfg.Sales))); err != nil {
				panic(err)
			}
		}
	}
	return b.View()
}

func diffResults(t *testing.T, label string, got, want *cube.Result) {
	t.Helper()
	// Cost attribution varies with execution mode (sharding splits artifact
	// charges differently than a single-node scan); the equivalence law
	// covers the logical answer, not the cost vector.
	g, w := *got, *want
	g.Cost, w.Cost = obs.QueryCost{}, obs.QueryCost{}
	if reflect.DeepEqual(&g, &w) {
		return
	}
	t.Errorf("%s: results differ", label)
	t.Logf("want: cols=%v/%v scanned=%d matched=%d rows=%d",
		want.GroupCols, want.AggCols, want.ScannedFacts, want.MatchedFacts, len(want.Rows))
	t.Logf("got:  cols=%v/%v scanned=%d matched=%d rows=%d",
		got.GroupCols, got.AggCols, got.ScannedFacts, got.MatchedFacts, len(got.Rows))
	for i := 0; i < len(want.Rows) && i < len(got.Rows); i++ {
		if !reflect.DeepEqual(want.Rows[i], got.Rows[i]) {
			t.Logf("first differing row %d: want %v, got %v", i, want.Rows[i], got.Rows[i])
			break
		}
	}
}

// randomFact builds a valid Sales instance with an integer-valued
// UnitSales (so SUM stays exact under any merge order).
func randomFact(rng *rand.Rand, cfg datagen.Config) (map[string]int32, map[string]float64) {
	keys := map[string]int32{
		"Store":    int32(rng.Intn(cfg.Stores)),
		"Customer": int32(rng.Intn(cfg.Customers)),
		"Product":  int32(rng.Intn(cfg.Products)),
		"Time":     int32(rng.Intn(cfg.Days)),
	}
	measures := map[string]float64{
		"UnitSales":  float64(1 + rng.Intn(9)),
		"StoreCost":  float64(rng.Intn(4000)) / 4,
		"StoreSales": float64(rng.Intn(8000)) / 4,
	}
	return keys, measures
}

// TestShardedEquivalenceRandomized is the extended equivalence harness of
// the sharded executor: shard counts × random views must match
// the reference exactly — including after a round of routed ingest
// re-hashes new facts across the shards.
func TestShardedEquivalenceRandomized(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 7} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ds, cfg := testDataset(t, int64(100+shards))
			rng := rand.New(rand.NewSource(int64(shards) * 17))
			table := shard.New(ds.Cube, shard.Options{Shards: shards})
			if got := table.Shards(); got != shards {
				t.Fatalf("Shards() = %d, want %d", got, shards)
			}

			const cases = 16
			check := func(phase string) {
				qs := make([]cube.Query, cases)
				vs := make([]*cube.View, cases)
				want := make([]*cube.Result, cases)
				for i := range qs {
					qs[i] = randomQuery(rng)
					vs[i] = randomView(rng, ds.Cube, cfg)
					want[i] = cubetest.NaiveExecute(ds.Cube, qs[i], vs[i])
				}
				// Per-predicate composition happens per shard and must
				// stay byte-identical after the gather.
				batch, stats, err := executeBatch(table, qs, vs)
				if err != nil {
					t.Fatalf("%s: %v", phase, err)
				}
				if stats.Queries != cases {
					t.Errorf("%s: stats.Queries = %d, want %d", phase, stats.Queries, cases)
				}
				for i := range qs {
					diffResults(t, fmt.Sprintf("%s case %d shards %d", phase, i, shards), batch[i], want[i])
				}
				// Lone queries: the scatter-gather of a batch of one.
				for i := 0; i < 4; i++ {
					got, _, err := executeBatch(table, qs[i:i+1], vs[i:i+1])
					if err != nil {
						t.Fatalf("%s single %d: %v", phase, i, err)
					}
					diffResults(t, fmt.Sprintf("%s single %d", phase, i), got[0], want[i])
				}
			}

			check("initial")

			// Routed ingest: new facts hash across the shards and the parent
			// stays authoritative, so the reference sees them too.
			for i := 0; i < 300; i++ {
				keys, measures := randomFact(rng, cfg)
				if err := table.AddFact("Sales", keys, measures); err != nil {
					t.Fatalf("AddFact %d: %v", i, err)
				}
			}
			if got := ds.Cube.FactData("Sales").Len(); got != cfg.Sales+300 {
				t.Fatalf("parent has %d facts, want %d", got, cfg.Sales+300)
			}
			counts := table.FactCounts()
			total := 0
			for _, c := range counts {
				total += c
			}
			if total != cfg.Sales+300 {
				t.Fatalf("shard fact counts sum to %d, want %d (%v)", total, cfg.Sales+300, counts)
			}

			check("after-ingest")

			st := table.Stats()
			if st.Shards != shards || st.Batches == 0 || st.ShardScans < st.Batches {
				t.Errorf("implausible shard stats: %+v", st)
			}
		})
	}
}

// TestShardedMultiLevelGroupBy gathers multi-level group-bys through
// MergeFinalize on both sides of the executor's dense-table constant: the
// dense composite-key tables (Store x Family, two levels of one dimension,
// three levels) and the hashed fallback (Store x Customer is 521² keys)
// must merge across shards into exactly the reference answer, ordered,
// limited and under views.
func TestShardedMultiLevelGroupBy(t *testing.T) {
	cfg := datagen.Config{
		Seed: 9, States: 5, Cities: 15, Stores: 520, Customers: 520,
		Products: 30, Days: 30, Sales: 20000,
		AirportEvery: 5, TrainLines: 4, Hospitals: 5, Highways: 2,
	}
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := func(d, l string) cube.LevelRef { return cube.LevelRef{Dimension: d, Level: l} }
	groupPool := [][]cube.LevelRef{
		{ref("Store", "Store"), ref("Product", "Family")},
		{ref("Store", "City"), ref("Store", "State")},
		{ref("Store", "State"), ref("Product", "Family"), ref("Time", "Month")},
		{ref("Store", "Store"), ref("Customer", "Customer")},
		{ref("Customer", "Customer"), ref("Store", "Store"), ref("Store", "City")},
	}
	aggPool := [][]cube.MeasureAgg{
		{{Agg: cube.AggCount}},
		{{Measure: "UnitSales", Agg: cube.AggSum}},
		{{Measure: "StoreCost", Agg: cube.AggMin}, {Measure: "UnitSales", Agg: cube.AggAvg}},
	}
	rng := rand.New(rand.NewSource(9))
	var qs []cube.Query
	var vs []*cube.View
	for _, groupBy := range groupPool {
		for k := 0; k < 3; k++ {
			q := cube.Query{Fact: "Sales", GroupBy: groupBy, Aggregates: aggPool[rng.Intn(len(aggPool))]}
			if rng.Intn(3) > 0 {
				q.OrderBy = &cube.OrderBy{Agg: rng.Intn(len(q.Aggregates)), Desc: rng.Intn(2) == 0}
			}
			if rng.Intn(2) == 0 {
				q.Limit = 1 + rng.Intn(40)
			}
			qs = append(qs, q)
			vs = append(vs, randomView(rng, ds.Cube, cfg))
		}
	}
	serial := make([]*cube.Result, len(qs))
	for i := range qs {
		serial[i] = cubetest.NaiveExecute(ds.Cube, qs[i], vs[i])
	}

	for _, shards := range []int{2, 5} {
		table := shard.New(ds.Cube, shard.Options{Shards: shards})
		batch, _, err := executeBatch(table, qs, vs)
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		for i := range qs {
			diffResults(t, fmt.Sprintf("case %d shards %d", i, shards), batch[i], serial[i])
		}
	}
}

// TestShardedArtifactCacheAcrossBatches checks the shards' cross-batch
// artifact caches end to end: a repeated sharing-heavy batch must hit the cache on
// its second run, and ingest must invalidate (table-version bump → stale
// drop → re-materialize) without changing any result.
func TestShardedArtifactCacheAcrossBatches(t *testing.T) {
	ds, cfg := testDataset(t, 7)
	rng := rand.New(rand.NewSource(7))
	table := shard.New(ds.Cube, shard.Options{Shards: 3})

	filters := []cube.AttrFilter{{
		LevelRef: cube.LevelRef{Dimension: "Store", Level: "City"},
		Attr:     "population", Op: cube.OpGt, Value: float64(100000),
	}}
	// SUM stays on the integer-valued UnitSales (exact under any merge
	// order); the float measures use order-insensitive MIN/MAX.
	var qs []cube.Query
	for _, level := range []string{"Store", "City", "State"} {
		for _, agg := range []cube.MeasureAgg{
			{Measure: "UnitSales", Agg: cube.AggSum},
			{Measure: "StoreSales", Agg: cube.AggMax},
		} {
			qs = append(qs, cube.Query{
				Fact:       "Sales",
				GroupBy:    []cube.LevelRef{{Dimension: "Store", Level: level}},
				Aggregates: []cube.MeasureAgg{agg},
				Filters:    filters,
			})
		}
	}
	run := func(label string) []*cube.Result {
		res, _, err := executeBatch(table, qs, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return res
	}
	first := run("first")
	if st := table.Stats().ArtifactCache; st.Doorkept == 0 || st.Entries != 0 {
		t.Errorf("first batch should be doorkept, not cached: %+v", st)
	}
	run("admit") // the admission doorkeeper caches fingerprints on their second offer
	before := table.Stats().ArtifactCache
	second := run("second")
	after := table.Stats().ArtifactCache
	if after.Hits <= before.Hits {
		t.Errorf("no artifact cache hits on repeat: before %+v after %+v", before, after)
	}
	for i := range first {
		diffResults(t, fmt.Sprintf("repeat case %d", i), second[i], first[i])
	}

	// Ingest bumps shard table versions: cached artifacts must go stale,
	// and re-materialized results must still match the reference.
	keys, measures := randomFact(rng, cfg)
	if err := table.AddFact("Sales", keys, measures); err != nil {
		t.Fatal(err)
	}
	third := run("after-ingest")
	for i, q := range qs {
		diffResults(t, fmt.Sprintf("post-ingest case %d", i), third[i], cubetest.NaiveExecute(ds.Cube, q, nil))
	}
	if st := table.Stats().ArtifactCache; st.Stale == 0 {
		t.Errorf("ingest did not invalidate cached artifacts: %+v", st)
	}

	// Member-attribute mutation on the PARENT must invalidate the
	// per-shard caches too: shards share the parent's member data by
	// reference, so a filter bitmap built before the mutation is wrong
	// afterwards (regression: bumpFactVersions used to bump only the
	// mutated cube's own fact tables, leaving shard scans serving stale
	// artifacts).
	run("rewarm") // re-populate the caches at the current version
	for city := int32(0); int(city) < cfg.Cities; city++ {
		if err := ds.Cube.SetMemberAttr("Store", "City", city, "population", float64(1)); err != nil {
			t.Fatal(err)
		}
	}
	fourth := run("after-member-mutation")
	for i, q := range qs {
		diffResults(t, fmt.Sprintf("post-mutation case %d", i), fourth[i], cubetest.NaiveExecute(ds.Cube, q, nil))
		if len(fourth[i].Rows) != 0 {
			// Every city's population is now 1, so the OpGt(100000) filter
			// matches nothing — a non-empty result means a stale bitmap.
			t.Errorf("post-mutation case %d: %d rows from a filter that matches nothing",
				i, len(fourth[i].Rows))
		}
	}
}

// TestShardedBatchUnderIngestAndSelection is the race stress of the shard
// subsystem: scatter-gather batches run while facts stream in through the
// routed ingest path and a shared view is replaced by wider ones.
// Every query must complete without error; run under -race in CI.
func TestShardedBatchUnderIngestAndSelection(t *testing.T) {
	ds, cfg := testDataset(t, 11)
	table := shard.New(ds.Cube, shard.Options{Shards: 4})
	b := cube.NewView(ds.Cube).Builder()
	if err := b.SelectMember("Store", "City", 0); err != nil {
		t.Fatal(err)
	}
	var shared atomic.Pointer[cube.View]
	shared.Store(b.View())

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Ingest: a stream of routed AddFacts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			keys, measures := randomFact(rng, cfg)
			if err := table.AddFact("Sales", keys, measures); err != nil {
				t.Errorf("AddFact: %v", err)
				return
			}
		}
	}()

	// Selection: the shared view keeps growing (each new key re-splits
	// the per-shard masks).
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := b.SelectMember("Store", "City", int32(rng.Intn(cfg.Cities))); err != nil {
				t.Errorf("SelectMember: %v", err)
				return
			}
			shared.Store(b.View())
		}
	}()

	// Queriers: concurrent sharded batches through the shared view. They
	// run a fixed number of batches; the mutators loop until stopped.
	var queriers sync.WaitGroup
	for g := 0; g < 4; g++ {
		queriers.Add(1)
		go func(g int) {
			defer queriers.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for n := 0; n < 30; n++ {
				qs := []cube.Query{randomQuery(rng), randomQuery(rng)}
				vs := []*cube.View{shared.Load(), nil}
				if _, _, err := executeBatch(table, qs, vs); err != nil {
					t.Errorf("querier %d: %v", g, err)
					return
				}
			}
		}(g)
	}

	queriers.Wait()
	close(stop)
	wg.Wait()
}

// TestShardScanPanicReachesTheCaller pins the fan-out's fault contract: a
// panic in one shard's scan goroutine (here a plan that cannot rebind) is
// re-raised on the calling goroutine once every shard has stopped, where
// the scheduler recovers it, instead of ending the process.
func TestShardScanPanicReachesTheCaller(t *testing.T) {
	ds, _ := testDataset(t, 9)
	table := shard.New(ds.Cube, shard.Options{Shards: 3})
	var r any
	func() {
		defer func() { r = recover() }()
		_, _, _ = table.ExecuteBatchCompiledOpt([]*cube.CompiledQuery{{}}, nil, cube.BatchOptions{})
	}()
	if r == nil {
		t.Fatal("the shard scan's panic never reached the caller")
	}
	// The table still scans.
	q := cube.Query{Fact: "Sales", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}}
	cq, err := ds.Cube.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := table.ExecuteBatchCompiledOpt([]*cube.CompiledQuery{cq}, nil, cube.BatchOptions{})
	if err != nil || res[0].MatchedFacts != ds.Cube.FactData("Sales").Len() {
		t.Fatalf("scan after the panic: %+v, %v", res, err)
	}
}

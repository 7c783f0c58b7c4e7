package cube_test

// Randomized equivalence harness for the query executor: for generated
// warehouses and randomized queries/views, lone queries and shared-scan
// batches must return Results identical to the executor-independent
// reference (cubetest.NaiveExecute) — rows, row
// order, group/aggregate columns, and ScannedFacts/MatchedFacts.
//
// SUM/AVG aggregates are drawn over UnitSales only: it is integer-valued,
// so per-group sums are exact in float64 and byte-for-byte equality holds
// regardless of summation order. COUNT/MIN/MAX are order-insensitive and
// drawn over every measure.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/cube/cubetest"
	"sdwp/internal/datagen"
	"sdwp/internal/obs"
)

// equivLevels lists the group-by candidates of the generated Sales schema.
var equivLevels = map[string][]string{
	"Store":    {"Store", "City", "State", "Country"},
	"Customer": {"Customer", "Segment"},
	"Product":  {"Product", "Family"},
	"Time":     {"Day", "Month", "Year"},
}

var equivDims = []string{"Store", "Customer", "Product", "Time"}

func randomQuery(rng *rand.Rand) cube.Query {
	q := cube.Query{Fact: "Sales"}

	// 0–3 group-by levels over distinct dimensions.
	dims := append([]string(nil), equivDims...)
	rng.Shuffle(len(dims), func(i, j int) { dims[i], dims[j] = dims[j], dims[i] })
	for _, d := range dims[:rng.Intn(4)] {
		levels := equivLevels[d]
		q.GroupBy = append(q.GroupBy, cube.LevelRef{Dimension: d, Level: levels[rng.Intn(len(levels))]})
	}

	// 1–3 aggregates.
	for n := 1 + rng.Intn(3); len(q.Aggregates) < n; {
		switch rng.Intn(5) {
		case 0:
			q.Aggregates = append(q.Aggregates, cube.MeasureAgg{Agg: cube.AggCount})
		case 1:
			q.Aggregates = append(q.Aggregates, cube.MeasureAgg{Measure: "UnitSales", Agg: cube.AggSum})
		case 2:
			q.Aggregates = append(q.Aggregates, cube.MeasureAgg{Measure: "UnitSales", Agg: cube.AggAvg})
		case 3:
			q.Aggregates = append(q.Aggregates, cube.MeasureAgg{Measure: measureAt(rng), Agg: cube.AggMin})
		case 4:
			q.Aggregates = append(q.Aggregates, cube.MeasureAgg{Measure: measureAt(rng), Agg: cube.AggMax})
		}
	}

	// 0–2 attribute filters.
	numericOps := []cube.FilterOp{cube.OpEq, cube.OpNe, cube.OpLt, cube.OpLe, cube.OpGt, cube.OpGe}
	for i := rng.Intn(3); i > 0; i-- {
		switch rng.Intn(3) {
		case 0:
			q.Filters = append(q.Filters, cube.AttrFilter{
				LevelRef: cube.LevelRef{Dimension: "Store", Level: "City"},
				Attr:     "population",
				Op:       numericOps[rng.Intn(len(numericOps))],
				Value:    float64(20000 + rng.Intn(3000000)),
			})
		case 1:
			op := cube.OpEq
			if rng.Intn(2) == 0 {
				op = cube.OpNe
			}
			q.Filters = append(q.Filters, cube.AttrFilter{
				LevelRef: cube.LevelRef{Dimension: "Product", Level: "Product"},
				Attr:     "brand",
				Op:       op,
				Value:    fmt.Sprintf("Brand%02d", rng.Intn(17)),
			})
		case 2:
			q.Filters = append(q.Filters, cube.AttrFilter{
				LevelRef: cube.LevelRef{Dimension: "Customer", Level: "Customer"},
				Attr:     "age",
				Op:       numericOps[rng.Intn(len(numericOps))],
				Value:    float64(18 + rng.Intn(70)),
			})
		}
	}

	// Optional aggregate-value ordering and top-n limit.
	if len(q.Aggregates) > 0 && rng.Intn(2) == 0 {
		q.OrderBy = &cube.OrderBy{Agg: rng.Intn(len(q.Aggregates)), Desc: rng.Intn(2) == 0}
	}
	if rng.Intn(2) == 0 {
		q.Limit = 1 + rng.Intn(10)
	}
	return q
}

func measureAt(rng *rand.Rand) string {
	return []string{"UnitSales", "StoreCost", "StoreSales"}[rng.Intn(3)]
}

// randomView builds nil (baseline) or a view with random member and fact
// selections.
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

// sameAnswer compares two Results ignoring the Cost vector: cost
// attribution is a property of the execution mode (a shared batch charges
// artifact shares a solo scan never materializes), not of the logical
// answer — the equivalence law covers everything else.
func sameAnswer(got, want *cube.Result) bool {
	g, w := *got, *want
	g.Cost, w.Cost = obs.QueryCost{}, obs.QueryCost{}
	return reflect.DeepEqual(&g, &w)
}

func diffResults(t *testing.T, label string, got, want *cube.Result) {
	t.Helper()
	if sameAnswer(got, want) {
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

// reference answers every query through cubetest.NaiveExecute (nil vs =
// every query over the whole table).
func reference(c *cube.Cube, qs []cube.Query, vs []*cube.View) []*cube.Result {
	out := make([]*cube.Result, len(qs))
	for i := range qs {
		var v *cube.View
		if vs != nil {
			v = vs[i]
		}
		out[i] = cubetest.NaiveExecute(c, qs[i], v)
	}
	return out
}

// cachePhases runs one batch through the fact table's artifact cache in
// three phases and diffs every run against the reference at the table's
// then-current state: cold (an emptied cache, whose first offers the
// doorkeeper turns away), warm (a repeat the doorkeeper admits, then one
// served from the cache), and warm again after one AddFact and one
// SetMemberAttr, where every entry built before them must be dropped as
// stale. The batch must share at least one artifact.
func cachePhases(t *testing.T, c *cube.Cube, qs []cube.Query, vs []*cube.View) {
	t.Helper()
	cube.ResetArtifactCaches(c)
	run := func(phase string, vs []*cube.View) cube.SharingStats {
		t.Helper()
		res, stats, err := cube.ExecuteBatchStats(c, qs, vs)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		want := reference(c, qs, vs)
		for i := range qs {
			diffResults(t, fmt.Sprintf("%s case %d", phase, i), res[i], want[i])
		}
		return stats
	}
	if st := run("cold", vs); st.ArtifactCacheHits != 0 {
		t.Errorf("cold run took %d artifacts from an emptied cache", st.ArtifactCacheHits)
	}
	run("admit", vs)
	warm := run("warm", vs)
	cached := c.ArtifactCacheStats()
	if cached.Entries == 0 || warm.ArtifactCacheHits == 0 {
		t.Fatalf("warm run took %d artifacts from the cache (%+v)", warm.ArtifactCacheHits, cached)
	}
	if err := c.AddFact("Sales", map[string]int32{"Store": 1, "Customer": 1, "Product": 1, "Time": 1},
		map[string]float64{"UnitSales": 7, "StoreCost": 2, "StoreSales": 9}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetMemberAttr("Store", "City", 1, "population", float64(2500000)); err != nil {
		t.Fatal(err)
	}
	// The views' materialized masks were built before the append; their
	// version stamps rebuild them over the grown table.
	mutated := run("after mutation", vs)
	if st := c.ArtifactCacheStats(); st.Stale == cached.Stale || mutated.ArtifactCacheHits != 0 {
		t.Errorf("mutation left cached artifacts live: %d hits after it, stale %d -> %d",
			mutated.ArtifactCacheHits, cached.Stale, st.Stale)
	}
}

func TestExecutorEquivalenceRandomized(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := datagen.Config{
				Seed: seed, States: 5, Cities: 15, Stores: 80, Customers: 60,
				Products: 30, Days: 30, Sales: 4000,
				AirportEvery: 5, TrainLines: 4, Hospitals: 5, Highways: 2,
			}
			ds, err := datagen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed * 1000))

			const cases = 24
			qs := make([]cube.Query, cases)
			vs := make([]*cube.View, cases)
			for i := range qs {
				qs[i] = randomQuery(rng)
				vs[i] = randomView(rng, ds.Cube, cfg)
			}
			want := reference(ds.Cube, qs, vs)

			// Lone queries.
			for i := range qs {
				got, err := ds.Cube.Execute(qs[i], vs[i])
				if err != nil {
					t.Fatalf("case %d: %v", i, err)
				}
				diffResults(t, fmt.Sprintf("case %d", i), got, want[i])
			}

			// All cases in one shared-scan batch.
			batch, _, err := cube.ExecuteBatchStats(ds.Cube, qs, vs)
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			if len(batch) != cases {
				t.Fatalf("batch: %d results, want %d", len(batch), cases)
			}
			for i := range qs {
				diffResults(t, fmt.Sprintf("batch case %d", i), batch[i], want[i])
			}
		})
	}
}

// TestSharedSubexprBatchEquivalence targets the sharing-heavy shape the
// staged executor exists for: many queries differing only in selection
// mask, measure, or limit over a handful of filter sets and groupings.
// Every result — across randomized views, and cold,
// warm and stale in the table's artifact cache (cachePhases) — must be
// byte-identical to the reference, and the reported SharingStats must
// account for every query.
func TestSharedSubexprBatchEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 11, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := datagen.Config{
				Seed: seed, States: 5, Cities: 15, Stores: 80, Customers: 60,
				Products: 30, Days: 30, Sales: 4000,
				AirportEvery: 5, TrainLines: 4, Hospitals: 5, Highways: 2,
			}
			ds, err := datagen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))

			// A small pool of filter sets — including reorderings of the
			// same set (which must share one bitmap) and
			// overlapping-but-unequal sets drawn from three predicates
			// (which must share per-predicate bitmaps through full and
			// partial AND-composition) — and groupings.
			popFilter := cube.AttrFilter{
				LevelRef: cube.LevelRef{Dimension: "Store", Level: "City"},
				Attr:     "population", Op: cube.OpGt, Value: float64(500000),
			}
			ageFilter := cube.AttrFilter{
				LevelRef: cube.LevelRef{Dimension: "Customer", Level: "Customer"},
				Attr:     "age", Op: cube.OpLe, Value: float64(40),
			}
			brandFilter := cube.AttrFilter{
				LevelRef: cube.LevelRef{Dimension: "Product", Level: "Product"},
				Attr:     "brand", Op: cube.OpNe, Value: "Brand03",
			}
			filterPool := [][]cube.AttrFilter{
				nil,
				{popFilter},
				{ageFilter},
				{popFilter, ageFilter},
				{ageFilter, popFilter}, // reordered: same sub-fingerprint
				{popFilter, brandFilter},
				{ageFilter, brandFilter},
				{brandFilter, popFilter, ageFilter},
			}
			groupPool := [][]cube.LevelRef{
				{{Dimension: "Store", Level: "City"}},
				{{Dimension: "Store", Level: "State"}},
				{{Dimension: "Store", Level: "City"}, {Dimension: "Product", Level: "Family"}},
			}
			aggPool := [][]cube.MeasureAgg{
				{{Agg: cube.AggCount}},
				{{Measure: "UnitSales", Agg: cube.AggSum}},
				{{Measure: "StoreCost", Agg: cube.AggMin}, {Measure: "StoreSales", Agg: cube.AggMax}},
			}

			const cases = 20
			qs := make([]cube.Query, cases)
			vs := make([]*cube.View, cases)
			for i := range qs {
				qs[i] = cube.Query{
					Fact:       "Sales",
					GroupBy:    groupPool[rng.Intn(len(groupPool))],
					Aggregates: aggPool[rng.Intn(len(aggPool))],
					Filters:    filterPool[rng.Intn(len(filterPool))],
				}
				if rng.Intn(2) == 0 {
					qs[i].Limit = 1 + rng.Intn(8)
				}
				vs[i] = randomView(rng, ds.Cube, cfg)
			}
			want := reference(ds.Cube, qs, vs)

			batch, stats, err := cube.ExecuteBatchStats(ds.Cube, qs, vs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range qs {
				diffResults(t, fmt.Sprintf("shared case %d", i), batch[i], want[i])
			}
			if stats.Queries != cases {
				t.Errorf("stats.Queries = %d, want %d", stats.Queries, cases)
			}
			// The pool admits at most 6 distinct non-empty filter sets
			// (the reordered {pop,age} pair shares one key) built from 3
			// distinct predicates, and 3 groupings.
			if stats.DistinctFilterSets > 6 {
				t.Errorf("distinct filter sets = %d, want <= 6 (reordered sets must share)",
					stats.DistinctFilterSets)
			}
			if stats.DistinctPredicates > 3 {
				t.Errorf("distinct predicates = %d, want <= 3", stats.DistinctPredicates)
			}
			if stats.DistinctGroupings > 4 {
				t.Errorf("distinct groupings = %d, want <= 4", stats.DistinctGroupings)
			}
			if stats.FilterSets < stats.DistinctFilterSets ||
				stats.FilterPredicates < stats.DistinctPredicates ||
				stats.GroupKeySets < stats.DistinctGroupings {
				t.Errorf("instances below distinct counts: %+v", stats)
			}
			cachePhases(t, ds.Cube, qs, vs)
		})
	}
}

// TestExecuteBatchValidation covers the batch-specific error paths: length
// mismatch, an invalid query aborting the whole batch, and the empty
// batch.
func TestExecuteBatchValidation(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Seed: 1, States: 3, Cities: 6, Stores: 12, Customers: 10,
		Products: 8, Days: 10, Sales: 200,
		AirportEvery: 3, TrainLines: 2, Hospitals: 2, Highways: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	good := cube.Query{Fact: "Sales", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}}

	if _, err := ds.Cube.ExecuteBatch([]cube.Query{good}, make([]*cube.View, 2), 1); err == nil {
		t.Error("length mismatch accepted")
	}
	bad := cube.Query{Fact: "Ghost", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}}
	if _, err := ds.Cube.ExecuteBatch([]cube.Query{good, bad}, nil, 1); err == nil {
		t.Error("invalid query accepted in batch")
	}
	res, err := ds.Cube.ExecuteBatch(nil, nil, 4)
	if err != nil || len(res) != 0 {
		t.Errorf("empty batch: res=%v err=%v", res, err)
	}

	// A batch mixing facts... the schema has one fact, so instead check a
	// batch mixing personalized and baseline views of the same query.
	b := cube.NewView(ds.Cube).Builder()
	if err := b.SelectMember("Store", "City", 0); err != nil {
		t.Fatal(err)
	}
	v := b.View()
	batch, err := ds.Cube.ExecuteBatch([]cube.Query{good, good}, []*cube.View{v, nil}, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantPers := cubetest.NaiveExecute(ds.Cube, good, v)
	wantBase := cubetest.NaiveExecute(ds.Cube, good, nil)
	if !sameAnswer(batch[0], wantPers) || !sameAnswer(batch[1], wantBase) {
		t.Errorf("mixed views batch: got %+v / %+v, want %+v / %+v",
			batch[0], batch[1], wantPers, wantBase)
	}
	if batch[0].MatchedFacts >= batch[1].MatchedFacts {
		t.Errorf("personalized view should see fewer facts: %d vs %d",
			batch[0].MatchedFacts, batch[1].MatchedFacts)
	}
}

// TestPerFilterCompositionPaths pins the stage-1 planner on a
// deterministic batch: a predicate shared across three filter sets
// materializes one bitmap, and every set — used twice or once, all with no
// view — gets a whole mask that ANDs the shared bitmap with a bitmap of
// its unshared predicate (offered to the cache like the shared one).
// Results must match the reference, cold, warm and stale in the artifact
// cache (cachePhases).
func TestPerFilterCompositionPaths(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Seed: 13, States: 5, Cities: 15, Stores: 80, Customers: 60,
		Products: 30, Days: 30, Sales: 4000,
		AirportEvery: 5, TrainLines: 4, Hospitals: 5, Highways: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(attrDim, level, attr string, v any) cube.AttrFilter {
		return cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: attrDim, Level: level},
			Attr: attr, Op: cube.OpGt, Value: v}
	}
	shared := mk("Store", "City", "population", float64(300000)) // in all three sets
	b := mk("Customer", "Customer", "age", float64(30))
	c := mk("Customer", "Customer", "age", float64(50))
	d := mk("Store", "City", "population", float64(900000))
	agg := []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}}
	group := []cube.LevelRef{{Dimension: "Store", Level: "State"}}
	qs := []cube.Query{
		{Fact: "Sales", GroupBy: group, Aggregates: agg, Filters: []cube.AttrFilter{shared, b}},
		{Fact: "Sales", GroupBy: group, Aggregates: agg, Filters: []cube.AttrFilter{b, shared}},
		{Fact: "Sales", GroupBy: group, Aggregates: agg, Filters: []cube.AttrFilter{shared, c}},
		{Fact: "Sales", GroupBy: group, Aggregates: agg, Filters: []cube.AttrFilter{c, shared}},
		{Fact: "Sales", GroupBy: group, Aggregates: agg, Filters: []cube.AttrFilter{shared, d}},
	}
	want := reference(ds.Cube, qs, nil)
	// Start cold, so the stats below count builds.
	cube.ResetArtifactCaches(ds.Cube)
	batch, stats, err := cube.ExecuteBatchStats(ds.Cube, qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		diffResults(t, fmt.Sprintf("case %d", i), batch[i], want[i])
	}
	// All three sets compose from the shared bitmap, so b, c and d get
	// bitmaps of their own: four kernels and seven bitmaps (four
	// predicate bitmaps, three set masks).
	if stats.DistinctPredicates != 4 || stats.FilterPredicates != 10 {
		t.Errorf("predicates = %d/%d, want 4 distinct / 10 instances",
			stats.DistinctPredicates, stats.FilterPredicates)
	}
	if stats.ComposedMasks != 3 {
		t.Errorf("composed masks = %d, want 3", stats.ComposedMasks)
	}
	bitmap := int64((ds.Cube.FactData("Sales").Len() + 7) / 8)
	if stats.PackedPredicateKernels != 4 || stats.BitmapBytesBuilt != 7*bitmap {
		t.Errorf("%d kernels and %d bitmap bytes, want 4 and %d",
			stats.PackedPredicateKernels, stats.BitmapBytesBuilt, 7*bitmap)
	}
	checkCostConservation(t, "batch", batch, stats)
	cachePhases(t, ds.Cube, qs, nil)
}

// TestPredicateBitmapCountsCachedSets pins rule (c) of the stage-1
// planner across the artifact cache: a predicate shared with a set whose
// mask the cache serves still counts as shared, so the one set left to
// build ANDs in a fresh bitmap of it (offered to the cache) instead of
// running its kernel into the set mask — and, composing anyway, takes a
// bitmap of its other predicate too.
func TestPredicateBitmapCountsCachedSets(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Seed: 15, States: 5, Cities: 15, Stores: 80, Customers: 60,
		Products: 30, Days: 30, Sales: 4000,
		AirportEvery: 5, TrainLines: 4, Hospitals: 5, Highways: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(v float64) cube.AttrFilter {
		return cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: "Customer", Level: "Customer"},
			Attr: "age", Op: cube.OpGt, Value: v}
	}
	shared := cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: "Store", Level: "City"},
		Attr: "population", Op: cube.OpGt, Value: float64(300000)}
	batch := func(others ...cube.AttrFilter) []cube.Query {
		var qs []cube.Query
		for _, o := range others {
			for _, agg := range []cube.Agg{cube.AggSum, cube.AggMax} {
				qs = append(qs, cube.Query{Fact: "Sales",
					Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: agg}},
					Filters:    []cube.AttrFilter{shared, o}})
			}
		}
		return qs
	}
	cube.ResetArtifactCaches(ds.Cube)
	// One set alone: the doorkeeper admits its mask on the second offer,
	// and shared, in no second set, gets no bitmap of its own.
	for i := 0; i < 2; i++ {
		if _, _, err := cube.ExecuteBatchStats(ds.Cube, batch(mk(30)), nil); err != nil {
			t.Fatal(err)
		}
	}
	qs := batch(mk(30), mk(40))
	res, stats, err := cube.ExecuteBatchStats(ds.Cube, qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := reference(ds.Cube, qs, nil)
	for i := range qs {
		diffResults(t, fmt.Sprintf("case %d", i), res[i], want[i])
	}
	checkCostConservation(t, "mixed cached batch", res, stats)
	bitmap := int64((ds.Cube.FactData("Sales").Len() + 7) / 8)
	if stats.ArtifactCacheHits != 1 || stats.ComposedMasks != 1 || stats.PackedPredicateKernels != 2 ||
		stats.BitmapBytesBuilt != 3*bitmap {
		t.Errorf("want {shared, age>30} from the cache and {shared, age>40} composed from fresh bitmaps of shared and age>40: %+v", stats)
	}

	// Both sets holding shared hit the cache and the set that needs it is
	// left to a sparse walk: shared's bitmap is still filled and offered,
	// with no set mask built, and once cached it composes correctly.
	cube.ResetArtifactCaches(ds.Cube)
	for _, o := range []cube.AttrFilter{mk(30), mk(50)} {
		for i := 0; i < 2; i++ {
			if _, _, err := cube.ExecuteBatchStats(ds.Cube, batch(o), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	tinyB := cube.NewView(ds.Cube).Builder()
	for i := int32(0); i < 10; i++ {
		if err := tinyB.SelectFact("Sales", i*97); err != nil {
			t.Fatal(err)
		}
	}
	sparseQ := func(fs ...cube.AttrFilter) cube.Query {
		return cube.Query{Fact: "Sales", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}, Filters: fs}
	}
	qs = append(batch(mk(30), mk(50)), sparseQ(shared, mk(60)))
	vs := make([]*cube.View, len(qs))
	tiny := tinyB.View()
	vs[len(qs)-1] = tiny
	want = reference(ds.Cube, qs, vs)
	for run := 0; run < 2; run++ { // the doorkeeper admits shared on the second offer
		res, stats, err = cube.ExecuteBatchStats(ds.Cube, qs, vs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			diffResults(t, fmt.Sprintf("run %d case %d", run, i), res[i], want[i])
		}
		checkCostConservation(t, fmt.Sprintf("sparse-walk batch run %d", run), res, stats)
		if stats.ArtifactCacheHits != 2 || stats.PackedPredicateKernels != 1 || stats.BitmapBytesBuilt != bitmap {
			t.Errorf("run %d: want both set masks from the cache and one fresh bitmap of shared: %+v", run, stats)
		}
	}
	qs = []cube.Query{sparseQ(shared), sparseQ()}
	vs = []*cube.View{tiny, nil}
	res, stats, err = cube.ExecuteBatchStats(ds.Cube, qs, vs)
	if err != nil {
		t.Fatal(err)
	}
	want = reference(ds.Cube, qs, vs)
	for i := range qs {
		diffResults(t, fmt.Sprintf("cached shared case %d", i), res[i], want[i])
	}
	if stats.ArtifactCacheHits != 1 || stats.ComposedMasks != 1 {
		t.Errorf("want {shared} composed from its cached bitmap: %+v", stats)
	}
}

// TestPerFilterArtifactCachePredicates checks that per-predicate bitmaps
// flow through the table's cross-batch artifact cache: after the doorkeeper
// admits them, a repeated overlapping-set batch takes its shared
// predicate bitmap (and composed set masks) from the cache.
func TestPerFilterArtifactCachePredicates(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Seed: 14, States: 5, Cities: 15, Stores: 80, Customers: 60,
		Products: 30, Days: 30, Sales: 4000,
		AirportEvery: 5, TrainLines: 4, Hospitals: 5, Highways: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	shared := cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: "Store", Level: "City"},
		Attr: "population", Op: cube.OpGt, Value: float64(300000)}
	young := cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: "Customer", Level: "Customer"},
		Attr: "age", Op: cube.OpLe, Value: float64(35)}
	old := cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: "Customer", Level: "Customer"},
		Attr: "age", Op: cube.OpGt, Value: float64(55)}
	agg := []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}}
	var qs []cube.Query
	for _, fs := range [][]cube.AttrFilter{{shared, young}, {shared, old}} {
		for _, level := range []string{"City", "State"} {
			qs = append(qs, cube.Query{Fact: "Sales",
				GroupBy:    []cube.LevelRef{{Dimension: "Store", Level: level}},
				Aggregates: agg, Filters: fs})
		}
	}
	want := reference(ds.Cube, qs, nil)
	var last cube.SharingStats
	for i := 0; i < 3; i++ {
		res, stats, err := cube.ExecuteBatchStats(ds.Cube, qs, nil)
		if err != nil {
			t.Fatal(err)
		}
		last = stats
		for j := range qs {
			diffResults(t, fmt.Sprintf("run %d case %d", i, j), res[j], want[j])
		}
	}
	// Run 1 materializes the shared predicate bitmap and both composed set
	// masks and offers all three (doorkept); run 2 re-materializes and is
	// admitted; run 3 takes both composed set masks straight from the
	// cache (the predicate bitmap is then not even needed). Key columns
	// never materialize here — the selective filters leave less than a
	// table pass of decode work.
	if last.ArtifactCacheHits < 2 {
		t.Errorf("third run took %d artifacts from the cache, want >= 2 (stats %+v, cache %+v)",
			last.ArtifactCacheHits, last, ds.Cube.ArtifactCacheStats())
	}
	st := ds.Cube.ArtifactCacheStats()
	if st.Doorkept < 3 || st.Entries < 3 {
		t.Errorf("doorkeeper flow: want >= 3 doorkept (run 1) and >= 3 entries (run 2 admits the"+
			" predicate bitmap and both set masks): %+v", st)
	}
}

// keySpace is a group-by's composite key space — the product of the
// levels' slot counts — which decides its side of cube.MaxDenseCells.
func keySpace(c *cube.Cube, groupBy []cube.LevelRef) int {
	cells := 1
	for _, g := range groupBy {
		cells *= c.Dimension(g.Dimension).Level(g.Level).Len() + 1
	}
	return cells
}

// TestMultiLevelGroupByEquivalence sweeps 2- and 3-level group-bys on both
// sides of the dense-table constant — including two levels of one
// dimension, NoParent groups (orphaned stores and cities), OrderBy over
// heavily tied COUNTs, Limit below the row count, and views — through
// lone and batched scans at several worker counts, the batch also cold,
// warm and stale in the artifact cache (cachePhases). Every result must
// equal the executor-independent reference.
func TestMultiLevelGroupByEquivalence(t *testing.T) {
	// Three scan chunks of facts, so multi-worker runs really merge.
	cfg := datagen.Config{
		Seed: 5, States: 5, Cities: 15, Stores: 520, Customers: 520,
		Products: 30, Days: 30, Sales: 20000,
		AirportEvery: 5, TrainLines: 4, Hospitals: 5, Highways: 2,
	}
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := ds.Cube
	for _, s := range []int32{3, 77, 300} {
		cube.OrphanMember(c, "Store", "Store", s)
	}
	cube.OrphanMember(c, "Store", "City", 4)

	ref := func(d, l string) cube.LevelRef { return cube.LevelRef{Dimension: d, Level: l} }
	shapes := []struct {
		groupBy []cube.LevelRef
		dense   bool
	}{
		{[]cube.LevelRef{ref("Store", "Store"), ref("Product", "Family")}, true},
		{[]cube.LevelRef{ref("Store", "City"), ref("Time", "Month")}, true},
		{[]cube.LevelRef{ref("Store", "City"), ref("Store", "State")}, true},
		{[]cube.LevelRef{ref("Store", "State"), ref("Product", "Family"), ref("Time", "Month")}, true},
		{[]cube.LevelRef{ref("Store", "Store"), ref("Customer", "Segment"), ref("Time", "Day")}, true},
		{[]cube.LevelRef{ref("Store", "Store"), ref("Customer", "Customer")}, false},
		{[]cube.LevelRef{ref("Customer", "Customer"), ref("Store", "Store"), ref("Store", "City")}, false},
		{[]cube.LevelRef{ref("Product", "Product"), ref("Customer", "Customer"), ref("Time", "Day")}, false},
	}
	for _, sh := range shapes {
		if got := keySpace(c, sh.groupBy) <= cube.MaxDenseCells; got != sh.dense {
			t.Fatalf("group-by %v: key space %d is on the wrong side of the dense constant %d",
				sh.groupBy, keySpace(c, sh.groupBy), cube.MaxDenseCells)
		}
	}
	aggPool := [][]cube.MeasureAgg{
		{{Agg: cube.AggCount}}, // small integers: OrderBy ties everywhere
		{{Measure: "UnitSales", Agg: cube.AggSum}},
		{{Measure: "UnitSales", Agg: cube.AggAvg}},
		{{Measure: "StoreCost", Agg: cube.AggMin}},
		{{Measure: "StoreSales", Agg: cube.AggMax}, {Agg: cube.AggCount}, {Measure: "UnitSales", Agg: cube.AggSum}},
	}
	popFilter := cube.AttrFilter{LevelRef: ref("Store", "City"),
		Attr: "population", Op: cube.OpGe, Value: float64(100000)}

	rng := rand.New(rand.NewSource(5))
	var qs []cube.Query
	var vs []*cube.View
	for _, sh := range shapes {
		for k := 0; k < 2; k++ {
			q := cube.Query{Fact: "Sales", GroupBy: sh.groupBy,
				Aggregates: aggPool[rng.Intn(len(aggPool))]}
			if rng.Intn(2) == 0 {
				q.Filters = []cube.AttrFilter{popFilter}
			}
			if rng.Intn(3) > 0 {
				q.OrderBy = &cube.OrderBy{Agg: rng.Intn(len(q.Aggregates)), Desc: rng.Intn(2) == 0}
			}
			if rng.Intn(2) == 0 {
				q.Limit = 1 + rng.Intn(40)
			}
			qs = append(qs, q)
			vs = append(vs, randomView(rng, c, cfg))
		}
	}
	// Two copies of one plan sharing filter set and group-by list over the
	// whole table, so the staged path materializes a composite key column
	// for a dense multi-level plan.
	for k := 0; k < 2; k++ {
		qs = append(qs, cube.Query{Fact: "Sales", GroupBy: shapes[0].groupBy,
			Aggregates: aggPool[1+k], Filters: []cube.AttrFilter{popFilter}})
		vs = append(vs, nil)
	}

	want := reference(c, qs, vs)
	serial := make([]*cube.Result, len(qs))
	truncated := 0
	for i := range qs {
		if serial[i], err = c.Execute(qs[i], vs[i]); err != nil {
			t.Fatalf("case %d: serial: %v", i, err)
		}
		diffResults(t, fmt.Sprintf("case %d serial", i), serial[i], want[i])
		if qs[i].Limit > 0 && int(serial[i].Cost.CellsTouched) > qs[i].Limit {
			truncated++
		}
	}
	if truncated == 0 {
		t.Error("no case truncated its rows: Limit < rows is not covered")
	}
	sawNone := false
	for _, res := range serial {
		for _, row := range res.Rows {
			for _, g := range row.Groups {
				sawNone = sawNone || g == "(none)"
			}
		}
	}
	if !sawNone {
		t.Error("no (none) group in any result: NoParent slots are not covered")
	}

	// Start cold, so KeyColBytesBuilt counts a build.
	cube.ResetArtifactCaches(c)
	batch, stats, err := cube.ExecuteBatchStats(c, qs, vs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		diffResults(t, fmt.Sprintf("batch case %d", i), batch[i], want[i])
	}
	if stats.KeyColBytesBuilt == 0 {
		t.Error("no composite key column materialized")
	}
	cachePhases(t, c, qs, vs)
}

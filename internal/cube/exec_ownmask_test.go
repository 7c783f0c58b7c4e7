package cube_test

// Equivalence harness for the own stage-1 bitmap: a filtered query no
// shared artifact covers — a lone query, or one whose filter set is unique
// in its batch — fills a bitmap of its own from the packed predicate
// kernels and accumulates off it, unless its view is sparse. Across every
// code-set kind, 1–3 predicates (repeats included), views on both sides
// of the sparse-view constant, a fact count that is neither a multiple of
// 64 nor of the scan chunk, results must equal the
// executor-independent reference — rows and ScannedFacts/MatchedFacts —
// and across AddFact a plan must aggregate exactly its compile-time
// prefix, seen through a view mask however stale.

import (
	"fmt"
	"math/rand"
	"testing"

	"sdwp/internal/bitset"
	"sdwp/internal/cube"
	"sdwp/internal/cube/cubetest"
	"sdwp/internal/datagen"
)

// ownMaskConfig has 2 chunks + 3 words + 37 facts: the last scan chunk
// and the last bitmap word are both partial.
func ownMaskConfig(seed int64) datagen.Config {
	return datagen.Config{
		Seed: seed, States: 5, Cities: 15, Stores: 80, Customers: 300,
		Products: 30, Days: 30, Sales: 2*8192 + 3*64 + 37,
		AirportEvery: 5, TrainLines: 4, Hospitals: 5, Highways: 2,
	}
}

// ownMaskPredicates spans the code-set kinds: an empty and a full set,
// a contiguous run of customer codes, and scattered sets on three
// dimensions.
func ownMaskPredicates() []cube.AttrFilter {
	cust := cube.LevelRef{Dimension: "Customer", Level: "Customer"}
	return []cube.AttrFilter{
		{LevelRef: cust, Attr: "age", Op: cube.OpLt, Value: 0.0},
		{LevelRef: cust, Attr: "age", Op: cube.OpGe, Value: 0.0},
		{LevelRef: cust, Attr: "name", Op: cube.OpLt, Value: "Customer00120"},
		{LevelRef: cust, Attr: "age", Op: cube.OpLt, Value: 40.0},
		{LevelRef: cube.LevelRef{Dimension: "Store", Level: "City"}, Attr: "population",
			Op: cube.OpGe, Value: 500000.0},
		{LevelRef: cube.LevelRef{Dimension: "Product", Level: "Product"}, Attr: "brand",
			Op: cube.OpNe, Value: "Brand03"},
	}
}

// ownMaskQuery draws a query with 1–3 predicates from the pool, with
// replacement, so some conjunctions repeat a predicate.
func ownMaskQuery(rng *rand.Rand, preds []cube.AttrFilter) cube.Query {
	groupBys := [][]cube.LevelRef{
		nil,
		{{Dimension: "Store", Level: "City"}},
		{{Dimension: "Product", Level: "Family"}, {Dimension: "Time", Level: "Month"}},
	}
	aggs := [][]cube.MeasureAgg{
		{{Measure: "UnitSales", Agg: cube.AggSum}},
		{{Agg: cube.AggCount}},
		{{Measure: "StoreCost", Agg: cube.AggMin}, {Measure: "UnitSales", Agg: cube.AggAvg}},
	}
	q := cube.Query{Fact: "Sales", GroupBy: groupBys[rng.Intn(len(groupBys))],
		Aggregates: aggs[rng.Intn(len(aggs))]}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		q.Filters = append(q.Filters, preds[rng.Intn(len(preds))])
	}
	return q
}

// ownMaskViews returns no view, a dense one (a product family, a fifth of
// the facts), fact views just below and just above n/SparseViewK visible
// facts, and a sparse member view (three stores).
func ownMaskViews(t *testing.T, rng *rand.Rand, c *cube.Cube) []*cube.View {
	t.Helper()
	n := c.FactData("Sales").Len()
	dense := cube.NewView(c)
	if err := dense.SelectMember("Product", "Family", 1); err != nil {
		t.Fatal(err)
	}
	facts := func(count int) *cube.View {
		v := cube.NewView(c)
		for _, i := range rng.Perm(n)[:count] {
			if err := v.SelectFact("Sales", int32(i)); err != nil {
				t.Fatal(err)
			}
		}
		return v
	}
	below := (n - 1) / cube.SparseViewK // the largest count still sparse
	stores := cube.NewView(c)
	for _, s := range []int32{3, 40, 77} {
		if err := stores.SelectMember("Store", "Store", s); err != nil {
			t.Fatal(err)
		}
	}
	vs := []*cube.View{nil, dense, facts(below), facts(below + 1), stores}
	for i, wantSparse := range []bool{false, false, true, false, true} {
		if vs[i] == nil {
			continue
		}
		visible := vs[i].Materialize("Sales").Count()
		if sparse := visible*cube.SparseViewK < n; sparse != wantSparse {
			t.Fatalf("view %d shows %d of %d facts: sparse=%v, want %v", i, visible, n, sparse, wantSparse)
		}
	}
	return vs
}

func TestOwnMaskEquivalence(t *testing.T) {
	cfg := ownMaskConfig(21)
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := ds.Cube
	rng := rand.New(rand.NewSource(21))
	preds := ownMaskPredicates()
	views := ownMaskViews(t, rng, c)

	var qs []cube.Query
	var vs []*cube.View
	kinds := map[string]bool{}
	predCounts := map[int]bool{}
	repeated := false
	for len(qs) < 40 {
		q := ownMaskQuery(rng, preds)
		cq, err := c.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range cube.CodeSetKinds(cq) {
			kinds[k] = true
		}
		predCounts[len(q.Filters)] = true
		for i := range q.Filters {
			for j := range i {
				repeated = repeated || q.Filters[i] == q.Filters[j]
			}
		}
		qs = append(qs, q)
		vs = append(vs, views[len(qs)%len(views)])
	}
	for _, k := range []string{"empty", "all", "range", "sparse"} {
		if !kinds[k] {
			t.Errorf("no predicate compiled to a %q code set", k)
		}
	}
	if !repeated || !predCounts[1] || !predCounts[2] || !predCounts[3] {
		t.Errorf("predicate shapes not covered: counts %v, repeated %v", predCounts, repeated)
	}
	want := reference(c, qs, vs)

	for i := range qs {
		got, err := c.Execute(qs[i], vs[i])
		if err != nil {
			t.Fatal(err)
		}
		diffResults(t, fmt.Sprintf("lone case %d", i), got, want[i])
	}

	// Batches whose filter sets are pairwise distinct: every set is unique
	// in its batch, so each query is left to its own bitmap (or, over a
	// sparse view, its fused walk) unless a predicate bitmap is shared.
	seen := map[string]bool{}
	var bqs []cube.Query
	var bvs []*cube.View
	var bwant []*cube.Result
	for i, q := range qs {
		if fp := q.FilterFingerprint(); !seen[fp] {
			seen[fp] = true
			bqs, bvs, bwant = append(bqs, q), append(bvs, vs[i]), append(bwant, want[i])
		}
	}
	res, stats, err := cube.ExecuteBatchStats(c, bqs, bvs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bqs {
		diffResults(t, fmt.Sprintf("unique-set batch case %d", i), res[i], bwant[i])
	}
	checkCostConservation(t, "unique-set batch", res, stats)
}

// TestOwnMaskOnlyBatch pins a batch of unique filter sets sharing no
// predicate: nothing is composed, every set's one query gets the set's
// mask from the packed kernels alone, and each is charged exactly that
// bitmap with no sharing discount.
func TestOwnMaskOnlyBatch(t *testing.T) {
	ds, err := datagen.Generate(ownMaskConfig(22))
	if err != nil {
		t.Fatal(err)
	}
	c := ds.Cube
	p := ownMaskPredicates()
	sum := []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}}
	// Distinct group-bys too, so no key column is shared either.
	qs := []cube.Query{
		{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Store", Level: "City"}},
			Aggregates: sum, Filters: []cube.AttrFilter{p[3]}},
		{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Store", Level: "State"}},
			Aggregates: sum, Filters: []cube.AttrFilter{p[2], p[4], p[2]}},
		{Fact: "Sales", Aggregates: sum, Filters: []cube.AttrFilter{p[5]}},
	}
	want := reference(c, qs, nil)
	bitmap := int64((c.FactData("Sales").Len() + 7) / 8)
	res, stats, err := cube.ExecuteBatchStats(c, qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ComposedMasks != 0 || stats.BitmapBytesBuilt != 3*bitmap {
		t.Errorf("want three own bitmaps of %d bytes and no composition: %+v", bitmap, stats)
	}
	// Four distinct predicates, every one on a packed column.
	if stats.PackedPredicateKernels != 4 {
		t.Errorf("PackedPredicateKernels = %d, want 4", stats.PackedPredicateKernels)
	}
	for i := range qs {
		diffResults(t, fmt.Sprintf("case %d", i), res[i], want[i])
		if res[i].Cost.BitmapBytes != bitmap || res[i].Cost.SharedSavedBytes != 0 {
			t.Errorf("case %d: charged %+v, want the whole bitmap (%d bytes) and no discount",
				i, res[i].Cost, bitmap)
		}
	}
}

// TestStage1PricingRule pins the stage-1 rule on one batch: set A has a
// baseline user and a sparse-view user, so it gets a mask (a user with no
// view weighs the whole table) that both iterate, the sparse one through
// its view; set B has only sparse-view users, so it gets a mask only once
// both its predicates have bitmaps — here from the artifact cache, warmed
// by a batch in which each recurs across two priced sets — and is then
// composed by word-ANDs alone. Results match the reference and the bytes
// conserve; cachePhases then runs the batch cold, warm and stale.
func TestStage1PricingRule(t *testing.T) {
	ds, err := datagen.Generate(ownMaskConfig(24))
	if err != nil {
		t.Fatal(err)
	}
	c := ds.Cube
	rng := rand.New(rand.NewSource(24))
	p := ownMaskPredicates()
	n := c.FactData("Sales").Len()
	sparse := ownMaskViews(t, rng, c)[2]
	// B's two users together still see fewer than n/SparseViewK facts.
	tiny := func() *cube.View {
		v := cube.NewView(c)
		for _, i := range rng.Perm(n)[:n/(4*cube.SparseViewK)] {
			if err := v.SelectFact("Sales", int32(i)); err != nil {
				t.Fatal(err)
			}
		}
		return v
	}
	sum := []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}}
	city := []cube.LevelRef{{Dimension: "Store", Level: "City"}}
	setA, setB := []cube.AttrFilter{p[3]}, []cube.AttrFilter{p[4], p[5]}
	qs := []cube.Query{
		{Fact: "Sales", GroupBy: city, Aggregates: sum, Filters: setA},
		{Fact: "Sales", Aggregates: sum, Filters: setA},
		{Fact: "Sales", GroupBy: city, Aggregates: sum, Filters: setB},
		{Fact: "Sales", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}, Filters: setB},
	}
	vs := []*cube.View{nil, sparse, tiny(), tiny()}
	warm := []cube.Query{
		{Fact: "Sales", Aggregates: sum, Filters: []cube.AttrFilter{p[4], p[0]}},
		{Fact: "Sales", Aggregates: sum, Filters: []cube.AttrFilter{p[5], p[0]}},
		{Fact: "Sales", Aggregates: sum, Filters: []cube.AttrFilter{p[4], p[1]}},
		{Fact: "Sales", Aggregates: sum, Filters: []cube.AttrFilter{p[5], p[1]}},
	}
	bitmap := int64((n + 7) / 8)
	want := reference(c, qs, vs)
	cube.ResetArtifactCaches(c)
	// Cold: B's predicates have no bitmaps, so its sparse users walk
	// their views; A's mask runs p[3]'s kernel.
	res, stats, err := cube.ExecuteBatchStats(c, qs, vs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		diffResults(t, fmt.Sprintf("cold case %d", i), res[i], want[i])
	}
	checkCostConservation(t, "cold", res, stats)
	if stats.BitmapBytesBuilt != bitmap || stats.PackedPredicateKernels != 1 || stats.ComposedMasks != 0 {
		t.Errorf("cold: want one mask from one kernel: %+v", stats)
	}
	if res[0].Cost.BitmapBytes+res[1].Cost.BitmapBytes != bitmap || res[2].Cost.BitmapBytes+res[3].Cost.BitmapBytes != 0 {
		t.Errorf("cold: set A's users charged %d + %d, B's %d + %d; want the one mask split over A",
			res[0].Cost.BitmapBytes, res[1].Cost.BitmapBytes, res[2].Cost.BitmapBytes, res[3].Cost.BitmapBytes)
	}
	for i := 0; i < 2; i++ { // the doorkeeper admits on the second offer
		if _, _, err := cube.ExecuteBatchStats(c, warm, nil); err != nil {
			t.Fatal(err)
		}
	}
	res, stats, err = cube.ExecuteBatchStats(c, qs, vs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		diffResults(t, fmt.Sprintf("warm case %d", i), res[i], want[i])
	}
	checkCostConservation(t, "warm", res, stats)
	// B is composed from the two cached predicate bitmaps and runs no
	// kernel; A's mask (offered once, in the cold run) is built again.
	if stats.ArtifactCacheHits != 2 || stats.ComposedMasks != 1 ||
		stats.PackedPredicateKernels != 1 || stats.BitmapBytesBuilt != 2*bitmap {
		t.Errorf("warm: want B's predicates from the cache and B composed: %+v", stats)
	}
	if res[2].Cost.BitmapBytes+res[3].Cost.BitmapBytes != bitmap {
		t.Errorf("warm: set B's users charged %d + %d, want its mask (%d)",
			res[2].Cost.BitmapBytes, res[3].Cost.BitmapBytes, bitmap)
	}
	cachePhases(t, c, qs, vs)
}

// TestOwnMaskAcrossAddFact runs lone filtered plans across ingest. A plan
// compiled before the table grew (its n < the table's) fills its own
// bitmap, sized to the grown table, over its prefix only; a view mask
// materialized before the ingest is ANDed in over its own length, both
// for those plans and for plans compiled after the ingest, whose scan
// runs past the mask's end (facts there are invisible).
func TestOwnMaskAcrossAddFact(t *testing.T) {
	cfg := ownMaskConfig(23)
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := ds.Cube
	p := ownMaskPredicates()
	v := cube.NewView(c)
	if err := v.SelectMember("Product", "Family", 2); err != nil {
		t.Fatal(err)
	}
	qs := []cube.Query{
		{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Store", Level: "City"}},
			Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}},
			Filters:    []cube.AttrFilter{p[3]}},
		{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Time", Level: "Month"}},
			Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}, {Measure: "StoreSales", Agg: cube.AggMax}},
			Filters:    []cube.AttrFilter{p[2], p[4]}},
	}
	var cqs []*cube.CompiledQuery
	var wantBase, wantView []*cube.Result
	for _, q := range qs {
		cq, err := c.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		cqs = append(cqs, cq)
		wantBase = append(wantBase, cubetest.NaiveExecute(c, q, nil))
		wantView = append(wantView, cubetest.NaiveExecute(c, q, v))
	}
	oldMask := v.Materialize("Sales")

	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 101; i++ {
		keys := map[string]int32{
			"Store": int32(rng.Intn(cfg.Stores)), "Customer": int32(rng.Intn(cfg.Customers)),
			"Product": int32(rng.Intn(cfg.Products)), "Time": int32(rng.Intn(cfg.Days)),
		}
		if err := c.AddFact("Sales", keys, map[string]float64{"UnitSales": 1}); err != nil {
			t.Fatal(err)
		}
	}

	var fresh []*cube.CompiledQuery
	for _, q := range qs {
		cq, err := c.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, cq)
	}

	var opts cube.BatchOptions
	for i, cq := range cqs {
		label := fmt.Sprintf("query %d", i)
		res, _, err := c.ExecuteBatchCompiledOpt(cqs[i:i+1], nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		diffResults(t, label+" baseline", res[0], wantBase[i])
		parts, _, err := c.ExecuteBatchCompiledPartials([]*cube.CompiledQuery{cq}, []*bitset.Set{oldMask}, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err = cube.MergeFinalize([][]*cube.BatchPartial{parts})
		if err != nil {
			t.Fatal(err)
		}
		diffResults(t, label+" pre-ingest view mask", res[0], wantView[i])
		parts, _, err = c.ExecuteBatchCompiledPartials(fresh[i:i+1], []*bitset.Set{oldMask}, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err = cube.MergeFinalize([][]*cube.BatchPartial{parts})
		if err != nil {
			t.Fatal(err)
		}
		diffResults(t, label+" post-ingest plan, pre-ingest view mask", res[0], wantView[i])
	}
	// Both stale plans in one batch of unique sets.
	res, _, err := c.ExecuteBatchCompiledOpt(cqs, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cqs {
		diffResults(t, fmt.Sprintf("batch query %d", i), res[i], wantBase[i])
	}
}

package cube_test

// Randomized equivalence harness for the query executors: for generated
// warehouses and randomized queries/views, the parallel partitioned
// executor (every worker count 1–8) and the shared-scan batch executor
// must return Results identical to the serial path — rows, row order,
// group/aggregate columns, and ScannedFacts/MatchedFacts.
//
// SUM/AVG aggregates are drawn over UnitSales only: it is integer-valued,
// so per-group sums are exact in float64 and byte-for-byte equality holds
// regardless of summation order. COUNT/MIN/MAX are order-insensitive and
// drawn over every measure.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"sdwp/internal/cube"
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
	v := cube.NewView(c)
	pick := func(dim, level string, max, n int) {
		for i := 0; i < n; i++ {
			if err := v.SelectMember(dim, level, int32(rng.Intn(max))); err != nil {
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
			if err := v.SelectFact("Sales", int32(rng.Intn(cfg.Sales))); err != nil {
				panic(err)
			}
		}
	}
	return v
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

// unpackedOracle runs f with packed execution forced off: the serial
// unpacked scalar path is the oracle every packed kernel must match
// byte-for-byte.
func unpackedOracle(c *cube.Cube, f func()) {
	prev := c.PackedColumns()
	c.SetPackedColumns(false)
	f()
	c.SetPackedColumns(prev)
}

// packedModes sweeps compressed-column execution on and off; results must
// be byte-identical in both (the off side also pins the scalar path
// against accidental kernel dependence).
var packedModes = []struct {
	name string
	on   bool
}{
	{"packed", true},
	{"unpacked", false},
}

// batchSharingModes enumerates the executor's stage-1/2 sharing levels:
// fully fused (PR 1), whole-filter-set artifacts, and per-predicate
// bitmaps AND-composed into set masks (the default). Results must be
// byte-identical across all three.
var batchSharingModes = []struct {
	name string
	opts cube.BatchOptions
}{
	{"fused", cube.BatchOptions{DisableSharing: true}},
	{"per-set", cube.BatchOptions{DisablePredicateSharing: true}},
	{"per-predicate", cube.BatchOptions{}},
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
			serial := make([]*cube.Result, cases)
			for i := range qs {
				qs[i] = randomQuery(rng)
				vs[i] = randomView(rng, ds.Cube, cfg)
			}
			unpackedOracle(ds.Cube, func() {
				for i := range qs {
					serial[i], err = ds.Cube.Execute(qs[i], vs[i])
					if err != nil {
						t.Fatalf("case %d: serial: %v", i, err)
					}
				}
			})

			prev := ds.Cube.PackedColumns()
			defer ds.Cube.SetPackedColumns(prev)
			for _, pm := range packedModes {
				ds.Cube.SetPackedColumns(pm.on)

				// Parallel executor across worker counts.
				for i := range qs {
					for w := 1; w <= 8; w++ {
						got, err := ds.Cube.ExecuteParallel(qs[i], vs[i], w)
						if err != nil {
							t.Fatalf("case %d workers %d %s: %v", i, w, pm.name, err)
						}
						diffResults(t, fmt.Sprintf("case %d workers %d %s", i, w, pm.name),
							got, serial[i])
					}
				}

				// Shared-scan batch executor (all cases in one batch), across
				// every sharing mode: fused (the PR 1 path), whole-set
				// artifacts, and per-predicate bitmaps with AND-composition.
				for _, w := range []int{1, 3, 8} {
					for _, mode := range batchSharingModes {
						batch, _, err := ds.Cube.ExecuteBatchOpt(qs, vs,
							cube.BatchOptions{Workers: w, DisableSharing: mode.opts.DisableSharing,
								DisablePredicateSharing: mode.opts.DisablePredicateSharing})
						if err != nil {
							t.Fatalf("batch workers %d mode %s %s: %v", w, mode.name, pm.name, err)
						}
						if len(batch) != cases {
							t.Fatalf("batch workers %d: %d results, want %d", w, len(batch), cases)
						}
						for i := range qs {
							diffResults(t, fmt.Sprintf("batch case %d workers %d mode %s %s",
								i, w, mode.name, pm.name), batch[i], serial[i])
						}
					}
				}
			}
		})
	}
}

// TestSharedSubexprBatchEquivalence targets the sharing-heavy shape the
// staged executor exists for: many queries differing only in selection
// mask, measure, or limit over a handful of filter sets and groupings.
// Every result — with sharing on, across worker counts and randomized
// views — must be byte-identical to the serial path, and the reported
// SharingStats must account for every query.
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
			serial := make([]*cube.Result, cases)
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
			unpackedOracle(ds.Cube, func() {
				for i := range qs {
					serial[i], err = ds.Cube.Execute(qs[i], vs[i])
					if err != nil {
						t.Fatalf("case %d: serial: %v", i, err)
					}
				}
			})

			prev := ds.Cube.PackedColumns()
			defer ds.Cube.SetPackedColumns(prev)
			for _, pm := range packedModes {
				ds.Cube.SetPackedColumns(pm.on)
				for _, w := range []int{1, 2, 5, 8} {
					for _, mode := range batchSharingModes {
						opts := mode.opts
						opts.Workers = w
						batch, stats, err := ds.Cube.ExecuteBatchOpt(qs, vs, opts)
						if err != nil {
							t.Fatalf("workers %d mode %s %s: %v", w, mode.name, pm.name, err)
						}
						for i := range qs {
							diffResults(t, fmt.Sprintf("shared case %d workers %d mode %s %s",
								i, w, mode.name, pm.name), batch[i], serial[i])
						}
						if mode.opts.DisableSharing {
							continue // fused scans report no sharing stats
						}
						if stats.Queries != cases {
							t.Errorf("mode %s: stats.Queries = %d, want %d", mode.name, stats.Queries, cases)
						}
						// The pool admits at most 6 distinct non-empty filter
						// sets (the reordered {pop,age} pair shares one key)
						// built from 3 distinct predicates, and 3 groupings.
						if stats.DistinctFilterSets > 6 {
							t.Errorf("mode %s: distinct filter sets = %d, want <= 6 (reordered sets must share)",
								mode.name, stats.DistinctFilterSets)
						}
						if stats.DistinctPredicates > 3 {
							t.Errorf("mode %s: distinct predicates = %d, want <= 3",
								mode.name, stats.DistinctPredicates)
						}
						if stats.DistinctGroupings > 4 {
							t.Errorf("mode %s: distinct groupings = %d, want <= 4",
								mode.name, stats.DistinctGroupings)
						}
						if stats.FilterSets < stats.DistinctFilterSets ||
							stats.FilterPredicates < stats.DistinctPredicates ||
							stats.GroupKeySets < stats.DistinctGroupings {
							t.Errorf("mode %s: instances below distinct counts: %+v", mode.name, stats)
						}
						if mode.opts.DisablePredicateSharing &&
							(stats.ComposedMasks > 0 || stats.PartialMasks > 0) {
							t.Errorf("per-set mode composed masks: %+v", stats)
						}
					}
				}
			}
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
	v := cube.NewView(ds.Cube)
	if err := v.SelectMember("Store", "City", 0); err != nil {
		t.Fatal(err)
	}
	batch, err := ds.Cube.ExecuteBatch([]cube.Query{good, good}, []*cube.View{v, nil}, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantPers, _ := ds.Cube.Execute(good, v)
	wantBase, _ := ds.Cube.Execute(good, nil)
	if !reflect.DeepEqual(batch[0], wantPers) || !reflect.DeepEqual(batch[1], wantBase) {
		t.Errorf("mixed views batch: got %+v / %+v, want %+v / %+v",
			batch[0], batch[1], wantPers, wantBase)
	}
	if batch[0].MatchedFacts >= batch[1].MatchedFacts {
		t.Errorf("personalized view should see fewer facts: %d vs %d",
			batch[0].MatchedFacts, batch[1].MatchedFacts)
	}
}

// TestPerFilterCompositionPaths pins the per-predicate planner's three
// stage-1 shapes on a deterministic batch: a predicate shared across
// three filter sets materializes one bitmap; qualifying sets compose it
// and refine their unshared predicate in one pass (full masks); a
// single-use set AND-composes the shared bitmap into a partial mask and
// leaves its residue to the per-fact path. Results must match the serial
// oracle in every mode.
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
	serial := make([]*cube.Result, len(qs))
	unpackedOracle(ds.Cube, func() {
		for i, q := range qs {
			if serial[i], err = ds.Cube.Execute(q, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	prev := ds.Cube.PackedColumns()
	defer ds.Cube.SetPackedColumns(prev)
	for _, pm := range packedModes {
		ds.Cube.SetPackedColumns(pm.on)
		for _, w := range []int{1, 4} {
			for _, mode := range batchSharingModes {
				opts := mode.opts
				opts.Workers = w
				batch, stats, err := ds.Cube.ExecuteBatchOpt(qs, nil, opts)
				if err != nil {
					t.Fatalf("workers %d mode %s %s: %v", w, mode.name, pm.name, err)
				}
				for i := range qs {
					diffResults(t, fmt.Sprintf("case %d workers %d mode %s %s", i, w, mode.name, pm.name),
						batch[i], serial[i])
				}
				if mode.name != "per-predicate" {
					continue
				}
				// {shared,b} and {shared,c} qualify (2 uses each) and compose
				// the shared bitmap, refining b/c once per set; {shared,d}
				// (one use) gets a partial mask and evaluates d inline.
				if stats.DistinctPredicates != 4 || stats.FilterPredicates != 10 {
					t.Errorf("workers %d: predicates = %d/%d, want 4 distinct / 10 instances",
						w, stats.DistinctPredicates, stats.FilterPredicates)
				}
				if stats.ComposedMasks != 2 {
					t.Errorf("workers %d: composed masks = %d, want 2", w, stats.ComposedMasks)
				}
				if stats.PartialMasks != 1 {
					t.Errorf("workers %d: partial masks = %d, want 1", w, stats.PartialMasks)
				}
			}
		}
	}
}

// TestPerFilterArtifactCachePredicates checks that per-predicate bitmaps
// flow through the cross-batch artifact cache: after the doorkeeper
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
	ac := cube.NewArtifactCache(16 << 20)
	var last cube.SharingStats
	for i := 0; i < 3; i++ {
		res, stats, err := ds.Cube.ExecuteBatchOpt(qs, nil, cube.BatchOptions{Artifacts: ac})
		if err != nil {
			t.Fatal(err)
		}
		last = stats
		for j, q := range qs {
			want, werr := ds.Cube.Execute(q, nil)
			if werr != nil {
				t.Fatal(werr)
			}
			diffResults(t, fmt.Sprintf("run %d case %d", i, j), res[j], want)
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
			last.ArtifactCacheHits, last, ac.Stats())
	}
	st := ac.Stats()
	if st.Doorkept < 3 || st.Entries < 3 {
		t.Errorf("doorkeeper flow: want >= 3 doorkept (run 1) and >= 3 entries (run 2 admits the"+
			" predicate bitmap and both set masks): %+v", st)
	}
}

// naiveExecute is an executor-independent reference: one pass over the
// fact table through the public accessors only — no plans, partials,
// group tables or kernels — folding measures in fact order (the serial
// fold order, so SUM/AVG bits match) and ordering rows by the documented
// total order: OrderBy value, then group names level by level, then
// member indices. It is what pins the dense and the hashed group tables
// to the same semantics; every other comparison is executor vs executor.
func naiveExecute(t *testing.T, c *cube.Cube, q cube.Query, v *cube.View) *cube.Result {
	t.Helper()
	fd := c.FactData(q.Fact)
	type level struct {
		dd *cube.DimData
		li int
	}
	resolve := func(r cube.LevelRef) level {
		dd := c.Dimension(r.Dimension)
		return level{dd, dd.LevelIndex(r.Level)}
	}
	ancestor := func(l level, dim string, i int32) int32 {
		key, _ := fd.DimKey(dim, i)
		return l.dd.Ancestor(0, l.li, key)
	}
	passes := func(f cube.AttrFilter, i int32) bool {
		l := resolve(f.LevelRef)
		anc := ancestor(l, f.Dimension, i)
		if anc == cube.NoParent {
			return false
		}
		val, ok := l.dd.LevelAt(l.li).Attr(f.Attr, anc)
		if !ok {
			return false
		}
		if s, isStr := val.(string); isStr {
			return (s == f.Value.(string)) == (f.Op == cube.OpEq)
		}
		a, b := val.(float64), f.Value.(float64)
		switch f.Op {
		case cube.OpEq:
			return a == b
		case cube.OpNe:
			return a != b
		case cube.OpLt:
			return a < b
		case cube.OpLe:
			return a <= b
		case cube.OpGt:
			return a > b
		default:
			return a >= b
		}
	}

	type group struct {
		members          []int32
		names            []string
		count            float64
		sums, mins, maxs []float64
	}
	res := &cube.Result{}
	groups := map[string]*group{}
	levels := make([]level, len(q.GroupBy))
	for gi, g := range q.GroupBy {
		levels[gi] = resolve(g)
		res.GroupCols = append(res.GroupCols, g.Dimension+"."+g.Level)
	}
	for _, a := range q.Aggregates {
		if a.Agg == cube.AggCount {
			res.AggCols = append(res.AggCols, "COUNT(*)")
		} else {
			res.AggCols = append(res.AggCols, fmt.Sprintf("%s(%s)", a.Agg, a.Measure))
		}
	}
facts:
	for i := int32(0); int(i) < fd.Len(); i++ {
		if v != nil && !v.FactVisible(q.Fact, i) {
			continue
		}
		res.ScannedFacts++
		for _, f := range q.Filters {
			if !passes(f, i) {
				continue facts
			}
		}
		res.MatchedFacts++
		members := make([]int32, len(levels))
		for gi, l := range levels {
			members[gi] = ancestor(l, q.GroupBy[gi].Dimension, i)
		}
		key := fmt.Sprint(members)
		g := groups[key]
		if g == nil {
			g = &group{members: members}
			for gi, l := range levels {
				name := "(none)"
				if members[gi] != cube.NoParent {
					name = l.dd.LevelAt(l.li).Name(members[gi])
				}
				g.names = append(g.names, name)
			}
			for range q.Aggregates {
				g.sums = append(g.sums, 0)
				g.mins = append(g.mins, math.Inf(1))
				g.maxs = append(g.maxs, math.Inf(-1))
			}
			groups[key] = g
		}
		g.count++
		for j, a := range q.Aggregates {
			if a.Agg == cube.AggCount {
				continue
			}
			mv, _ := fd.Measure(a.Measure, i)
			g.sums[j] += mv
			g.mins[j] = math.Min(g.mins[j], mv)
			g.maxs[j] = math.Max(g.maxs[j], mv)
		}
	}

	value := func(g *group, j int) float64 {
		switch q.Aggregates[j].Agg {
		case cube.AggSum:
			return g.sums[j]
		case cube.AggCount:
			return g.count
		case cube.AggAvg:
			return g.sums[j] / g.count
		case cube.AggMin:
			return g.mins[j]
		default:
			return g.maxs[j]
		}
	}
	ordered := make([]*group, 0, len(groups))
	for _, g := range groups {
		ordered = append(ordered, g)
	}
	sort.Slice(ordered, func(x, y int) bool {
		a, b := ordered[x], ordered[y]
		if ob := q.OrderBy; ob != nil {
			if va, vb := value(a, ob.Agg), value(b, ob.Agg); va != vb {
				return (va < vb) != ob.Desc
			}
		}
		if c := slices.Compare(a.names, b.names); c != 0 {
			return c < 0
		}
		return slices.Compare(a.members, b.members) < 0
	})
	if q.Limit > 0 && len(ordered) > q.Limit {
		ordered = ordered[:q.Limit]
	}
	for _, g := range ordered {
		row := cube.Row{Groups: g.names}
		for j := range q.Aggregates {
			row.Values = append(row.Values, value(g, j))
		}
		res.Rows = append(res.Rows, row)
	}
	return res
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
// every executor and sharing mode. The serial result must equal the
// executor-independent reference, and everything else the serial result.
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

	serial := make([]*cube.Result, len(qs))
	truncated := 0
	unpackedOracle(c, func() {
		for i := range qs {
			if serial[i], err = c.Execute(qs[i], vs[i]); err != nil {
				t.Fatalf("case %d: serial: %v", i, err)
			}
			diffResults(t, fmt.Sprintf("case %d serial vs reference", i),
				serial[i], naiveExecute(t, c, qs[i], vs[i]))
			if qs[i].Limit > 0 && int(serial[i].Cost.CellsTouched) > qs[i].Limit {
				truncated++
			}
		}
	})
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

	prev := c.PackedColumns()
	defer c.SetPackedColumns(prev)
	for _, pm := range packedModes {
		c.SetPackedColumns(pm.on)
		for i := range qs {
			got, err := c.ExecuteParallel(qs[i], vs[i], 3)
			if err != nil {
				t.Fatal(err)
			}
			diffResults(t, fmt.Sprintf("case %d workers 3 %s", i, pm.name), got, serial[i])
		}
		for _, w := range []int{1, 4} {
			for _, mode := range batchSharingModes {
				opts := mode.opts
				opts.Workers = w
				batch, stats, err := c.ExecuteBatchOpt(qs, vs, opts)
				if err != nil {
					t.Fatal(err)
				}
				for i := range qs {
					diffResults(t, fmt.Sprintf("batch case %d workers %d mode %s %s",
						i, w, mode.name, pm.name), batch[i], serial[i])
				}
				if !mode.opts.DisableSharing && stats.KeyColBytesBuilt == 0 {
					t.Errorf("mode %s: no composite key column materialized", mode.name)
				}
			}
		}
	}
}

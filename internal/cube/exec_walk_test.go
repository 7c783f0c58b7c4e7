package cube_test

import (
	"fmt"
	"math/rand"
	"testing"

	"sdwp/internal/bitset"
	"sdwp/internal/cube"
	"sdwp/internal/cube/cubetest"
	"sdwp/internal/datagen"
)

// walkCase is one query of a shared-walk batch: its view for the
// reference, and the mask the executor is handed for it (the view's
// Materialize mask, or a direct fact mask shorter than the table).
type walkCase struct {
	q    cube.Query
	v    *cube.View
	mask *bitset.Set
}

// TestSharedWalkEquivalence pins stage 3's shared walk: batches of 2–16
// queries in which several users iterate one (filter set, view) mask — on
// one view, on two views and on no view, beside a view given as a direct
// fact mask shorter than the table — with kernel plans (one aggregate)
// and generic plans (two) mixed, filtered and not. Every Result, its
// ScannedFacts/MatchedFacts and its Cost.FactsScanned/FactsMatched must
// equal the reference's (cubetest.NaiveExecute) and those of the query
// run alone.
func TestSharedWalkEquivalence(t *testing.T) {
	cfg := datagen.Config{
		Seed: 5, States: 5, Cities: 15, Stores: 80, Customers: 60,
		Products: 30, Days: 30, Sales: 6000,
		AirportEvery: 5, TrainLines: 4, Hospitals: 5, Highways: 2,
	}
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := ds.Cube
	n := c.FactData("Sales").Len()

	view := func(dim, level string, members ...int32) *cube.View {
		b := cube.NewView(c).Builder()
		for _, m := range members {
			if err := b.SelectMember(dim, level, m); err != nil {
				t.Fatal(err)
			}
		}
		return b.View()
	}
	// Two views dense enough that their users' sets get masks, and a
	// direct fact selection handed to the executor as a mask of n-700
	// facts: the facts past it are invisible, as the reference's view
	// never selects them.
	families := view("Product", "Family", 0, 1)
	cities := view("Store", "City", 0, 2, 4, 6, 8, 10)
	fb := cube.NewView(c).Builder()
	short := bitset.New(n - 700)
	for i := 0; i < short.Len(); i += 3 {
		if err := fb.SelectFact("Sales", int32(i)); err != nil {
			t.Fatal(err)
		}
		short.Set(i)
	}
	direct := fb.View()
	views := []struct {
		v    *cube.View
		mask *bitset.Set
	}{{nil, nil}, {families, families.Materialize("Sales")}, {cities, cities.Materialize("Sales")}, {direct, short}}

	age := cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: "Customer", Level: "Customer"},
		Attr: "age", Op: cube.OpLe, Value: float64(45)}
	pop := cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: "Store", Level: "City"},
		Attr: "population", Op: cube.OpGt, Value: float64(300000)}
	brand := cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: "Product", Level: "Product"},
		Attr: "brand", Op: cube.OpNe, Value: "Brand03"}
	filterPool := [][]cube.AttrFilter{nil, {age}, {age, pop}, {pop, age}, {age, brand}}
	groupPool := [][]cube.LevelRef{
		{{Dimension: "Store", Level: "City"}},
		{{Dimension: "Product", Level: "Family"}},
		{{Dimension: "Store", Level: "City"}, {Dimension: "Time", Level: "Month"}},
		{{Dimension: "Store", Level: "Store"}, {Dimension: "Customer", Level: "Customer"}, {Dimension: "Product", Level: "Product"}, {Dimension: "Time", Level: "Month"}},
		nil,
	}
	// SUM and AVG over UnitSales only: its sums are exact in any order.
	aggPool := [][]cube.MeasureAgg{
		{{Measure: "UnitSales", Agg: cube.AggSum}},
		{{Agg: cube.AggCount}},
		{{Measure: "UnitSales", Agg: cube.AggAvg}},
		{{Measure: "StoreCost", Agg: cube.AggMin}},
		{{Measure: "StoreSales", Agg: cube.AggMax}},
		{{Measure: "UnitSales", Agg: cube.AggSum}, {Agg: cube.AggCount}},
	}

	// The fixed batch: four users of (age, families), three of (age,
	// cities), two of (age, no view), two of (age, direct) — kernel and
	// generic plans of each — and an unfiltered pair on families.
	var fixed []walkCase
	for i, vi := range []int{1, 1, 1, 1, 2, 2, 2, 0, 0, 3, 3} {
		fixed = append(fixed, walkCase{
			q: cube.Query{Fact: "Sales", Filters: filterPool[1], GroupBy: groupPool[i%len(groupPool)],
				Aggregates: aggPool[i%len(aggPool)]},
			v: views[vi].v, mask: views[vi].mask})
	}
	for _, a := range []int{0, 5} {
		fixed = append(fixed, walkCase{
			q: cube.Query{Fact: "Sales", GroupBy: groupPool[0], Aggregates: aggPool[a]},
			v: families, mask: views[1].mask})
	}
	batches := [][]walkCase{fixed}
	rng := rand.New(rand.NewSource(43))
	for b := 0; b < 12; b++ {
		batch := make([]walkCase, 2+rng.Intn(15))
		for i := range batch {
			vw := views[rng.Intn(len(views))]
			batch[i] = walkCase{
				q: cube.Query{Fact: "Sales", Filters: filterPool[rng.Intn(len(filterPool))],
					GroupBy:    groupPool[rng.Intn(len(groupPool))],
					Aggregates: aggPool[rng.Intn(len(aggPool))]},
				v: vw.v, mask: vw.mask}
		}
		batches = append(batches, batch)
	}

	// run executes queries as one batch over the given masks and
	// finalizes it.
	run := func(cases []walkCase) []*cube.Result {
		t.Helper()
		cqs := make([]*cube.CompiledQuery, len(cases))
		masks := make([]*bitset.Set, len(cases))
		for i, wc := range cases {
			cq, err := c.Compile(wc.q)
			if err != nil {
				t.Fatal(err)
			}
			cqs[i], masks[i] = cq, wc.mask
		}
		parts, _, err := c.ExecuteBatchCompiledPartials(cqs, masks, cube.BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cube.MergeFinalize([][]*cube.BatchPartial{parts})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	same := func(label string, got, want *cube.Result) {
		t.Helper()
		diffResults(t, label, got, want)
		if got.Cost.FactsScanned != int64(want.ScannedFacts) || got.Cost.FactsMatched != int64(want.MatchedFacts) {
			t.Errorf("%s: cost counts %d/%d facts scanned/matched, want %d/%d", label,
				got.Cost.FactsScanned, got.Cost.FactsMatched, want.ScannedFacts, want.MatchedFacts)
		}
	}
	for b, batch := range batches {
		got := run(batch)
		for i, wc := range batch {
			label := fmt.Sprintf("batch %d query %d", b, i)
			want := cubetest.NaiveExecute(c, wc.q, wc.v)
			same(label, got[i], want)
			same(label+" alone", run(batch[i : i+1])[0], want)
		}
	}
}

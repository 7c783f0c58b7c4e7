package cube_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/cube/cubetest"
	"sdwp/internal/geomd"
	"sdwp/internal/mdmodel"
)

// orderWarehouse builds a warehouse whose answers stress finalize's
// ordering: A's 600 members share 90 names (equal names tie in name
// order), one of them is orphaned (the "(none)" region group), A x B has
// 601² keys (hashed) while every other group-by is dense, and the measure
// draws from small integers, −0 and ±Inf, so COUNT ties everywhere, MIN
// and MAX meet ±0 and ±Inf, and SUM and AVG of a group holding both
// infinities are NaN.
func orderWarehouse(t *testing.T) *cube.Cube {
	t.Helper()
	b := mdmodel.NewBuilder("Order")
	b.Dimension("A").Level("a", "name").Level("region", "name")
	b.Dimension("B").Level("b", "name")
	b.Fact("F").Measure("m").Uses("A", "B")
	c := cube.New(geomd.New(b.MustBuild()))
	must := func(_ int32, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 4; r++ {
		must(c.AddMember("A", "region", fmt.Sprintf("r%d", r), cube.NoParent))
	}
	for i := 0; i < 600; i++ {
		must(c.AddMember("A", "a", fmt.Sprintf("a%02d", i%90), int32(i%4)))
		must(c.AddMember("B", "b", fmt.Sprintf("b%03d", i), cube.NoParent))
	}
	cube.OrphanMember(c, "A", "a", 7)
	rng := rand.New(rand.NewSource(38))
	values := []float64{-3, -1, math.Copysign(0, -1), 0, 1, 2, 4}
	for i := 0; i < 4000; i++ {
		m := values[rng.Intn(len(values))]
		switch rng.Intn(40) {
		case 0:
			m = math.Inf(1)
		case 1:
			m = math.Inf(-1)
		}
		// A is drawn from a fifth of its members so its groups hold
		// several facts each.
		err := c.AddFact("F",
			map[string]int32{"A": int32(rng.Intn(120)), "B": int32(rng.Intn(600))},
			map[string]float64{"m": m})
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// sameValue is float equality with NaN equal to NaN; −0 equals +0, as
// the executor's MIN keeps the first zero it meets where math.Min
// prefers −0.
func sameValue(a, b float64) bool { return a == b || a != a && b != b }

// TestFinalizeOrderRandomized pins finalize's row order — the dense
// plans' radix sort and the hashed plans' comparator — against
// cubetest.NaiveExecute: every aggregate, OrderBy ascending, descending
// and absent, with and without Limit, over dense and hashed group-bys. It
// also pins the NaN rule both follow: a NaN value sorts after every
// number whichever the direction.
func TestFinalizeOrderRandomized(t *testing.T) {
	c := orderWarehouse(t)
	ref := func(d, l string) cube.LevelRef { return cube.LevelRef{Dimension: d, Level: l} }
	shapes := [][]cube.LevelRef{
		nil,
		{ref("A", "a")},
		{ref("A", "region")},
		{ref("A", "a"), ref("A", "region")},
		{ref("A", "region"), ref("B", "b")},
		{ref("A", "a"), ref("B", "b")},
		{ref("B", "b"), ref("A", "a")},
	}
	aggs := []cube.MeasureAgg{
		{Measure: "m", Agg: cube.AggSum},
		{Agg: cube.AggCount},
		{Measure: "m", Agg: cube.AggAvg},
		{Measure: "m", Agg: cube.AggMin},
		{Measure: "m", Agg: cube.AggMax},
	}
	rng := rand.New(rand.NewSource(7))
	var hashed, dense, nans, negZeros, ties int
	for _, gb := range shapes {
		if keySpace(c, gb) > cube.MaxDenseCells {
			hashed++
		} else {
			dense++
		}
		for ai := range aggs {
			for _, ob := range []*cube.OrderBy{nil, {Agg: 0}, {Agg: 0, Desc: true}, {Agg: 1, Desc: true}} {
				q := cube.Query{Fact: "F", GroupBy: gb, OrderBy: ob,
					Aggregates: []cube.MeasureAgg{aggs[ai], aggs[(ai+1+rng.Intn(4))%len(aggs)]}}
				if rng.Intn(3) == 0 {
					q.Limit = 1 + rng.Intn(60)
				}
				label := fmt.Sprintf("group-by %v aggs %v order %+v limit %d", gb, q.Aggregates, ob, q.Limit)
				got, err := c.Execute(q, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := cubetest.NaiveExecute(c, q, nil)
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("%s: %d rows, reference %d", label, len(got.Rows), len(want.Rows))
				}
				for r := range want.Rows {
					g, w := got.Rows[r], want.Rows[r]
					same := slices.Equal(g.Groups, w.Groups) && len(g.Values) == len(w.Values)
					for j := range w.Values {
						same = same && sameValue(g.Values[j], w.Values[j])
					}
					if !same {
						t.Fatalf("%s: row %d = %v, reference %v", label, r, g, w)
					}
				}
				if ob == nil {
					continue
				}
				// The NaN rule: no number after a NaN.
				seenNaN := false
				for r, row := range got.Rows {
					v := row.Values[ob.Agg]
					switch {
					case math.IsNaN(v):
						seenNaN = true
						nans++
					case seenNaN:
						t.Fatalf("%s: row %d holds %v after a NaN", label, r, v)
					case v == 0 && math.Signbit(v):
						negZeros++
					}
					if r > 0 && got.Rows[r-1].Values[ob.Agg] == v {
						ties++
					}
				}
			}
		}
	}
	if hashed == 0 || dense == 0 || nans == 0 || negZeros == 0 || ties == 0 {
		t.Fatalf("the data missed a case: %d hashed and %d dense shapes, %d NaN rows, %d −0 rows, %d ties",
			hashed, dense, nans, negZeros, ties)
	}
}

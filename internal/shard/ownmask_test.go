package shard_test

// The own stage-1 bitmap under scatter-gather: every shard decides per
// filtered query, from its own slice of the view, whether to fill the
// query a bitmap of its own or walk a sparse view fact by fact. Lone
// queries and batches of unique filter sets must gather into exactly the
// reference answer for shard counts {1, 2, 4}.

import (
	"fmt"
	"math/rand"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/cube/cubetest"
	"sdwp/internal/datagen"
	"sdwp/internal/shard"
)

func TestShardedOwnMaskEquivalence(t *testing.T) {
	cust := cube.LevelRef{Dimension: "Customer", Level: "Customer"}
	preds := []cube.AttrFilter{
		{LevelRef: cust, Attr: "age", Op: cube.OpLt, Value: 0.0},              // empty
		{LevelRef: cust, Attr: "age", Op: cube.OpGe, Value: 0.0},              // all
		{LevelRef: cust, Attr: "name", Op: cube.OpLt, Value: "Customer00120"}, // range
		{LevelRef: cust, Attr: "age", Op: cube.OpLt, Value: 40.0},             // sparse
		{LevelRef: cube.LevelRef{Dimension: "Product", Level: "Product"}, Attr: "brand",
			Op: cube.OpNe, Value: "Brand03"}, // sparse
	}
	aggs := [][]cube.MeasureAgg{
		{{Measure: "UnitSales", Agg: cube.AggSum}},
		{{Agg: cube.AggCount}, {Measure: "StoreCost", Agg: cube.AggMin}},
	}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := datagen.Config{
				Seed: int64(40 + shards), States: 5, Cities: 15, Stores: 80, Customers: 300,
				Products: 30, Days: 30, Sales: 2*8192 + 3*64 + 37,
				AirportEvery: 5, TrainLines: 4, Hospitals: 5, Highways: 2,
			}
			ds, err := datagen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := ds.Cube
			rng := rand.New(rand.NewSource(int64(shards)))
			dense := cube.NewView(c)
			if err := dense.SelectMember("Product", "Family", 1); err != nil {
				t.Fatal(err)
			}
			sparse := cube.NewView(c)
			for _, s := range []int32{3, 40, 77} {
				if err := sparse.SelectMember("Store", "Store", s); err != nil {
					t.Fatal(err)
				}
			}
			views := []*cube.View{nil, dense, sparse}

			var qs []cube.Query
			var vs []*cube.View
			for i := 0; i < 12; i++ {
				q := cube.Query{Fact: "Sales", Aggregates: aggs[i%len(aggs)],
					GroupBy: []cube.LevelRef{{Dimension: "Store", Level: "City"}}}
				for k := 1 + rng.Intn(3); k > 0; k-- {
					q.Filters = append(q.Filters, preds[rng.Intn(len(preds))])
				}
				qs = append(qs, q)
				vs = append(vs, views[i%len(views)])
			}
			want := make([]*cube.Result, len(qs))
			for i := range qs {
				want[i] = cubetest.NaiveExecute(c, qs[i], vs[i])
			}
			table := shard.New(c, shard.Options{Shards: shards})
			for i := range qs {
				got, _, err := executeBatch(table, qs[i:i+1], vs[i:i+1])
				if err != nil {
					t.Fatal(err)
				}
				diffResults(t, fmt.Sprintf("lone %d", i), got[0], want[i])
			}
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
			res, _, err := executeBatch(table, bqs, bvs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range bqs {
				diffResults(t, fmt.Sprintf("unique-set batch %d", i), res[i], bwant[i])
			}
		})
	}
}

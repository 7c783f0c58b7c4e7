package shard_test

// Cost conservation across the scatter-gather executor: per-shard scans
// each charge their freshly built artifacts to the queries using them,
// the per-shard partials carry those charges through merge/finalize, and
// the gathered SharingStats sums the per-shard byte totals — so summing
// Result.Cost across the batch must reproduce the summed stats exactly,
// for every shard count.

import (
	"fmt"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/shard"
)

// costTestBatch shares bitmaps and key columns among its first six
// queries; the last one's filter set is unique, so each shard fills it a
// bitmap of its own.
func costTestBatch() []cube.Query {
	shared := cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: "Store", Level: "City"},
		Attr: "population", Op: cube.OpGt, Value: float64(100000)}
	young := cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: "Customer", Level: "Customer"},
		Attr: "age", Op: cube.OpLe, Value: float64(35)}
	old := cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: "Customer", Level: "Customer"},
		Attr: "age", Op: cube.OpGt, Value: float64(55)}
	agg := []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}}
	var qs []cube.Query
	for _, fs := range [][]cube.AttrFilter{nil, {shared}, {shared, young}} {
		for _, level := range []string{"City", "State"} {
			qs = append(qs, cube.Query{Fact: "Sales",
				GroupBy:    []cube.LevelRef{{Dimension: "Store", Level: level}},
				Aggregates: agg, Filters: fs})
		}
	}
	return append(qs, cube.Query{Fact: "Sales", Aggregates: agg, Filters: []cube.AttrFilter{old}})
}

// TestShardedCostConservation sweeps shard counts {1,2,4,7} and pins the conservation law on the gathered results: nothing
// leaks and nothing double-counts across the fan-out.
func TestShardedCostConservation(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 7} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ds, _ := testDataset(t, int64(300+shards))
			table := shard.New(ds.Cube, shard.Options{Shards: shards})
			qs := costTestBatch()
			res, stats, err := executeBatch(table, qs, nil)
			if err != nil {
				t.Fatal(err)
			}
			var bitmap, keyCol int64
			for i, r := range res {
				c := r.Cost
				if c.FactsScanned != int64(r.ScannedFacts) {
					t.Errorf("query %d: Cost.FactsScanned %d != ScannedFacts %d", i, c.FactsScanned, r.ScannedFacts)
				}
				if c.FactsMatched != int64(r.MatchedFacts) {
					t.Errorf("query %d: Cost.FactsMatched %d != MatchedFacts %d", i, c.FactsMatched, r.MatchedFacts)
				}
				bitmap += c.BitmapBytes
				keyCol += c.KeyColBytes
			}
			if bitmap != stats.BitmapBytesBuilt {
				t.Errorf("Σ BitmapBytes %d != BitmapBytesBuilt %d across %d shards", bitmap, stats.BitmapBytesBuilt, shards)
			}
			if keyCol != stats.KeyColBytesBuilt {
				t.Errorf("Σ KeyColBytes %d != KeyColBytesBuilt %d across %d shards", keyCol, stats.KeyColBytesBuilt, shards)
			}
		})
	}
}

// TestShardedCostMatchesUnsharded checks the scan-counter attribution is
// independent of the fan-out: the same batch charges identical
// FactsScanned/FactsMatched per query whether the table is sharded or not
// (byte charges differ — shards materialize per-shard artifacts — but the
// row counters are physical and must agree).
func TestShardedCostMatchesUnsharded(t *testing.T) {
	ds, _ := testDataset(t, 77)
	qs := costTestBatch()
	base, _, err := executeBatch(ds.Cube, qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	table := shard.New(ds.Cube, shard.Options{Shards: 4})
	res, _, err := executeBatch(table, qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if res[i].Cost.FactsScanned != base[i].Cost.FactsScanned ||
			res[i].Cost.FactsMatched != base[i].Cost.FactsMatched {
			t.Errorf("query %d: sharded scan counters (%d/%d) != unsharded (%d/%d)",
				i, res[i].Cost.FactsScanned, res[i].Cost.FactsMatched,
				base[i].Cost.FactsScanned, base[i].Cost.FactsMatched)
		}
	}
}

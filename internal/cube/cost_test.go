package cube_test

// Conservation tests for shared-scan cost attribution: summing the
// per-query Cost vectors of a batch must reproduce the batch's measured
// totals exactly — artifact bytes against SharingStats.BitmapBytesBuilt /
// KeyColBytesBuilt, and the scan counters against the Result's own
// ScannedFacts/MatchedFacts — in every sharing mode and with packed
// columns on and off. Attribution that leaks or double-counts shows up
// here as a broken sum.

import (
	"fmt"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/datagen"
)

// costTestBatch builds a batch with overlapping filter sets and repeated
// groupings so the staged scan materializes shared bitmaps and key
// columns (several queries per artifact, enough mass to pay for staging),
// plus one query whose filter set is unique: it owns its bitmap alone.
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

// checkCostConservation asserts the attribution sums for one executed
// batch against its sharing stats and per-result scan counters.
func checkCostConservation(t *testing.T, label string, res []*cube.Result, stats cube.SharingStats) {
	t.Helper()
	var bitmap, keyCol int64
	for i, r := range res {
		c := r.Cost
		if c.FactsScanned != int64(r.ScannedFacts) {
			t.Errorf("%s query %d: Cost.FactsScanned %d != ScannedFacts %d",
				label, i, c.FactsScanned, r.ScannedFacts)
		}
		if c.FactsMatched != int64(r.MatchedFacts) {
			t.Errorf("%s query %d: Cost.FactsMatched %d != MatchedFacts %d",
				label, i, c.FactsMatched, r.MatchedFacts)
		}
		if want := int64(len(r.Rows)); c.CellsTouched < want {
			t.Errorf("%s query %d: CellsTouched %d < result rows %d",
				label, i, c.CellsTouched, want)
		}
		if c.BitmapBytes < 0 || c.KeyColBytes < 0 || c.SharedSavedBytes < 0 {
			t.Errorf("%s query %d: negative cost field %+v", label, i, c)
		}
		bitmap += c.BitmapBytes
		keyCol += c.KeyColBytes
	}
	if bitmap != stats.BitmapBytesBuilt {
		t.Errorf("%s: Σ BitmapBytes %d != BitmapBytesBuilt %d (leaked or double-charged)",
			label, bitmap, stats.BitmapBytesBuilt)
	}
	if keyCol != stats.KeyColBytesBuilt {
		t.Errorf("%s: Σ KeyColBytes %d != KeyColBytesBuilt %d (leaked or double-charged)",
			label, keyCol, stats.KeyColBytesBuilt)
	}
}

// TestBatchCostConservation pins the conservation law on a sharing-heavy
// batch.
func TestBatchCostConservation(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Seed: 11, States: 5, Cities: 15, Stores: 80, Customers: 60,
		Products: 30, Days: 30, Sales: 4000,
		AirportEvery: 5, TrainLines: 4, Hospitals: 5, Highways: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := costTestBatch()
	res, stats, err := cube.ExecuteBatchStats(ds.Cube, qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkCostConservation(t, "batch", res, stats)
}

// TestBatchCostChargesSharedArtifacts checks the attribution is not
// trivially zero: the default sharing mode on this batch materializes
// both bitmap and key-column artifacts, charges them out, and credits
// their sharers the discount.
func TestBatchCostChargesSharedArtifacts(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Seed: 11, States: 5, Cities: 15, Stores: 80, Customers: 60,
		Products: 30, Days: 30, Sales: 4000,
		AirportEvery: 5, TrainLines: 4, Hospitals: 5, Highways: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := cube.ExecuteBatchStats(ds.Cube, costTestBatch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BitmapBytesBuilt == 0 && stats.KeyColBytesBuilt == 0 {
		t.Fatalf("sharing batch built no artifacts: %+v", stats)
	}
	var charged, saved int64
	for _, r := range res {
		charged += r.Cost.BitmapBytes + r.Cost.KeyColBytes
		saved += r.Cost.SharedSavedBytes
	}
	if charged == 0 {
		t.Error("artifacts were built but no query was charged")
	}
	if saved == 0 {
		t.Error("artifacts were shared but no sharing discount recorded")
	}
}

// TestCachedArtifactsChargeNothing checks the cache-hit credit side: a
// repeated batch over a warm artifact cache takes its masks from the
// cache and must not charge their build cost again.
func TestCachedArtifactsChargeNothing(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Seed: 11, States: 5, Cities: 15, Stores: 80, Customers: 60,
		Products: 30, Days: 30, Sales: 4000,
		AirportEvery: 5, TrainLines: 4, Hospitals: 5, Highways: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := costTestBatch()
	var last []*cube.Result
	var lastStats cube.SharingStats
	for i := 0; i < 3; i++ { // 1st doorkept, 2nd admits, 3rd hits
		last = nil
		last, lastStats, err = cube.ExecuteBatchStats(ds.Cube, qs, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkCostConservation(t, fmt.Sprintf("run %d", i), last, lastStats)
	}
	if lastStats.ArtifactCacheHits == 0 {
		t.Fatalf("third run hit no cached artifacts: %+v", lastStats)
	}
	var bitmap int64
	for _, r := range last {
		bitmap += r.Cost.BitmapBytes
	}
	if bitmap != lastStats.BitmapBytesBuilt {
		t.Errorf("cache-hit run charged %d bitmap bytes but built %d — cached artifacts must charge nothing",
			bitmap, lastStats.BitmapBytesBuilt)
	}
}

// TestLoneOwnedBitmapCost pins the attribution of a bitmap one query owns
// alone: in a batch beside shared artifacts and as a lone query, the
// query is charged the whole bitmap with no sharing discount, and the
// batch's conservation law still holds.
func TestLoneOwnedBitmapCost(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Seed: 12, States: 5, Cities: 15, Stores: 80, Customers: 60,
		Products: 30, Days: 30, Sales: 4000,
		AirportEvery: 5, TrainLines: 4, Hospitals: 5, Highways: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := costTestBatch()
	own := qs[len(qs)-1]
	bitmap := int64((ds.Cube.FactData("Sales").Len() + 7) / 8)
	res, stats, err := cube.ExecuteBatchStats(ds.Cube, qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkCostConservation(t, "batch", res, stats)
	if c := res[len(res)-1].Cost; c.BitmapBytes != bitmap || c.SharedSavedBytes != 0 {
		t.Errorf("unique-set query charged %+v, want its whole %d-byte bitmap and no discount", c, bitmap)
	}
	lone, stats, err := cube.ExecuteBatchStats(ds.Cube, []cube.Query{own}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := lone[0].Cost; c.BitmapBytes != bitmap || stats.BitmapBytesBuilt != bitmap || c.SharedSavedBytes != 0 {
		t.Errorf("lone query charged %+v of %d bytes built, want its whole %d-byte bitmap",
			c, stats.BitmapBytesBuilt, bitmap)
	}
}

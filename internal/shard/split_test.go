package shard

import (
	"math/rand"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/datagen"
)

// TestSplitLockedMatchesFactVisible checks the per-shard masks a sharded
// engine scans — the view's postings-built Materialize mask scattered
// through the routing table — against FactVisible on every global fact,
// before and after routed ingest (which leaves the parent's postings stale
// until the next materialization rebuilds them).
func TestSplitLockedMatchesFactVisible(t *testing.T) {
	cfg := datagen.Config{
		Seed: 9, States: 4, Cities: 12, Stores: 70, Customers: 40,
		Products: 20, Days: 20, Sales: 3000,
		AirportEvery: 5, TrainLines: 2, Hospitals: 2, Highways: 1,
	}
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := ds.Cube
	tbl := New(c, Options{Shards: 3})
	rng := rand.New(rand.NewSource(9))
	dims := c.Schema().MD.Fact("Sales").Dimensions

	check := func(v *cube.View, label string) {
		t.Helper()
		tbl.mu.RLock()
		masks, err := tbl.splitLocked("Sales", v)
		r := tbl.routes["Sales"]
		tbl.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < c.FactData("Sales").Len(); g++ {
			got := masks[r.shardOf[g]].Test(int(r.localOf[g]))
			if want := v.FactVisible("Sales", int32(g)); got != want {
				t.Fatalf("%s: global fact %d visible %v in its shard, FactVisible %v", label, g, got, want)
			}
		}
	}
	pick := func(v *cube.ViewBuilder) {
		dim := dims[rng.Intn(len(dims))]
		dd := c.Dimension(dim)
		li := rng.Intn(dd.NumLevels())
		if err := v.SelectMember(dim, dd.LevelName(li), int32(rng.Intn(dd.LevelAt(li).Len()))); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 12; trial++ {
		b := cube.NewView(c).Builder()
		for n := 2 + rng.Intn(8); n > 0; n-- {
			pick(b)
		}
		v := b.View()
		check(v, "fresh")
		for n := 1 + rng.Intn(40); n > 0; n-- {
			keys := map[string]int32{}
			for _, dim := range dims {
				keys[dim] = int32(rng.Intn(c.Dimension(dim).LevelAt(0).Len()))
			}
			if err := tbl.AddFact("Sales", keys, nil); err != nil {
				t.Fatal(err)
			}
		}
		check(v, "built before ingest")
		pick(b)
		check(b.View(), "after ingest")
	}
}

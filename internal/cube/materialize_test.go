package cube_test

import (
	"math/rand"
	"testing"

	"sdwp/internal/bitset"
	"sdwp/internal/cube"
	"sdwp/internal/datagen"
)

// visibleRef is the per-fact reference for View.Materialize: bit i is set
// iff FactVisible(i), over the capacity Materialize documents (the direct
// fact mask's when there is one, the table's otherwise).
func visibleRef(v *cube.View, c *cube.Cube, fact string) *bitset.Set {
	n := c.FactData(fact).Len()
	if fm := v.FactMask(fact); fm != nil {
		n = fm.Len()
	}
	m := bitset.New(n)
	for i := 0; i < n; i++ {
		if v.FactVisible(fact, int32(i)) {
			m.Set(i)
		}
	}
	return m
}

// selectRandom adds one random member selection on a random level of dim.
func selectRandom(rng *rand.Rand, v *cube.View, c *cube.Cube, dim string, level int) {
	dd := c.Dimension(dim)
	ld := dd.LevelAt(level)
	if err := v.SelectMember(dim, dd.LevelName(level), int32(rng.Intn(ld.Len()))); err != nil {
		panic(err)
	}
}

// randomSelections restricts v on 1–3 Sales dimensions — sometimes on two
// levels of one dimension — and sometimes by direct fact selections.
func randomSelections(rng *rand.Rand, v *cube.View, c *cube.Cube) {
	dims := append([]string(nil), c.Schema().MD.Fact("Sales").Dimensions...)
	rng.Shuffle(len(dims), func(i, j int) { dims[i], dims[j] = dims[j], dims[i] })
	for _, dim := range dims[:1+rng.Intn(3)] {
		levels := rng.Perm(c.Dimension(dim).NumLevels())
		for _, level := range levels[:1+rng.Intn(min(2, len(levels)))] {
			for n := 1 + rng.Intn(6); n > 0; n-- {
				selectRandom(rng, v, c, dim, level)
			}
		}
	}
	if rng.Intn(3) == 0 {
		n := c.FactData("Sales").Len()
		for k := 10 + rng.Intn(n/4); k > 0; k-- {
			if err := v.SelectFact("Sales", int32(rng.Intn(n))); err != nil {
				panic(err)
			}
		}
	}
}

func addRandomFacts(t *testing.T, rng *rand.Rand, c *cube.Cube, n int) {
	t.Helper()
	for ; n > 0; n-- {
		keys := map[string]int32{}
		for _, dim := range c.Schema().MD.Fact("Sales").Dimensions {
			keys[dim] = int32(rng.Intn(c.Dimension(dim).LevelAt(0).Len()))
		}
		if err := c.AddFact("Sales", keys, map[string]float64{"UnitSales": 1}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMaterializeMatchesFactVisible pins the postings-driven Materialize
// bit for bit against the per-fact FactVisible reference on randomized
// warehouses: orphaned members at several levels, masks on two levels of
// one dimension, up to three constrained dimensions plus direct fact
// masks, and ingest after a first materialization (the postings go stale
// and are rebuilt; a fact mask taken before the ingest keeps its shorter
// capacity).
func TestMaterializeMatchesFactVisible(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := datagen.Config{
			Seed: seed, States: 2 + rng.Intn(5), Cities: 5 + rng.Intn(20), Stores: 20 + rng.Intn(200),
			Customers: 10 + rng.Intn(100), Products: 5 + rng.Intn(40), Days: 10 + rng.Intn(60),
			Sales: 500 + rng.Intn(4000), AirportEvery: 4, TrainLines: 2, Hospitals: 2, Highways: 1,
		}
		ds, err := datagen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := ds.Cube
		for i := 0; i < 4; i++ {
			cube.OrphanMember(c, "Store", "Store", int32(rng.Intn(cfg.Stores)))
		}
		cube.OrphanMember(c, "Store", "City", int32(rng.Intn(cfg.Cities)))
		cube.OrphanMember(c, "Product", "Product", int32(rng.Intn(cfg.Products)))

		check := func(v *cube.View, label string) {
			t.Helper()
			got, want := v.Materialize("Sales"), visibleRef(v, c, "Sales")
			if got == nil || !got.Equal(want) {
				t.Fatalf("seed %d %s: Materialize %d of %d bits, FactVisible %d of %d",
					seed, label, got.Count(), got.Len(), want.Count(), want.Len())
			}
		}
		for trial := 0; trial < 25; trial++ {
			v := cube.NewView(c)
			randomSelections(rng, v, c)
			check(v, "fresh")
			if trial%5 == 0 {
				addRandomFacts(t, rng, c, 1+rng.Intn(50))
				// The cached mask stands until the next selection; a new
				// one materializes over the grown table.
				dims := c.Schema().MD.Fact("Sales").Dimensions
				selectRandom(rng, v, c, dims[rng.Intn(len(dims))], 0)
				check(v, "after ingest")
				check(v.Clone(), "clone after ingest")
			}
		}
	}
}

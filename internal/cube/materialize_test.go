package cube_test

import (
	"math/rand"
	"testing"

	"sdwp/internal/bitset"
	"sdwp/internal/cube"
	"sdwp/internal/cube/cubetest"
	"sdwp/internal/datagen"
)

// visibleRef is the per-fact reference for View.Materialize: bit i is set
// iff FactVisible(i), over the table's length.
func visibleRef(v *cube.View, c *cube.Cube, fact string) *bitset.Set {
	n := c.FactData(fact).Len()
	m := bitset.New(n)
	for i := 0; i < n; i++ {
		if v.FactVisible(fact, int32(i)) {
			m.Set(i)
		}
	}
	return m
}

// selectRandom adds one random member selection on a random level of dim.
func selectRandom(rng *rand.Rand, v *cube.ViewBuilder, c *cube.Cube, dim string, level int) {
	dd := c.Dimension(dim)
	ld := dd.LevelAt(level)
	if err := v.SelectMember(dim, dd.LevelName(level), int32(rng.Intn(ld.Len()))); err != nil {
		panic(err)
	}
}

// randomSelections restricts v on 1–3 Sales dimensions — sometimes on two
// levels of one dimension — and sometimes by direct fact selections.
func randomSelections(rng *rand.Rand, v *cube.ViewBuilder, c *cube.Cube) {
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
// and are rebuilt; a view built before the ingest now sees the grown
// table, its direct fact selection shorter than the table).
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
			b := cube.NewView(c).Builder()
			randomSelections(rng, b, c)
			v := b.View()
			check(v, "fresh")
			if trial%5 == 0 {
				addRandomFacts(t, rng, c, 1+rng.Intn(50))
				// Both the view from before the ingest and one with a
				// selection more materialize over the grown table.
				dims := c.Schema().MD.Fact("Sales").Dimensions
				selectRandom(rng, b, c, dims[rng.Intn(len(dims))], 0)
				check(b.View(), "after ingest")
				check(v, "built before ingest")
			}
		}
	}
}

// TestFactSelectionKeyIgnoresIngest pins that a direct fact selection's
// key is its selected rows alone: two views select the same rows (and
// the same store), one before and one after an append grew the table, and
// share one key and one mask; both answer as cubetest.NaiveExecute does,
// and a row appended after either selection is not visible.
func TestFactSelectionKeyIgnoresIngest(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Seed: 5, States: 3, Cities: 6, Stores: 12, Customers: 10,
		Products: 8, Days: 10, Sales: 300,
		AirportEvery: 3, TrainLines: 2, Hospitals: 2, Highways: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := ds.Cube
	rows := []int32{3, 70, 131, 299}
	build := func() *cube.View {
		b := cube.NewView(c).Builder()
		for _, r := range rows {
			if err := b.SelectFact("Sales", r); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.SelectMember("Store", "Store", 0); err != nil {
			t.Fatal(err)
		}
		if key, _ := c.FactData("Sales").DimKey("Store", rows[1]); key != 0 {
			if err := b.SelectMember("Store", "Store", key); err != nil {
				t.Fatal(err)
			}
		}
		return b.View()
	}
	early := build()
	addRandomFacts(t, rand.New(rand.NewSource(5)), c, 130) // past the selection's last word
	late := build()
	if early.Key() != late.Key() {
		t.Fatal("equal fact selections before and after an append have different keys")
	}
	m := late.Materialize("Sales")
	if early.Materialize("Sales") != m || !m.Equal(visibleRef(early, c, "Sales")) || !m.Equal(visibleRef(late, c, "Sales")) {
		t.Fatal("the mask cached under the shared key is not both views' visible facts")
	}
	q := cube.Query{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Store", Level: "Store"}},
		Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}, {Agg: cube.AggCount}}}
	for name, v := range map[string]*cube.View{"early": early, "late": late} {
		got, err := c.Execute(q, v)
		if err != nil {
			t.Fatal(err)
		}
		want := cubetest.NaiveExecute(c, q, v)
		diffResults(t, name, got, want)
		if got.MatchedFacts == 0 || got.MatchedFacts > len(rows) {
			t.Fatalf("%s: %d facts visible through a selection of %d rows", name, got.MatchedFacts, len(rows))
		}
	}
}

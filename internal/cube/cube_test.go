package cube

import (
	"strings"
	"testing"

	"sdwp/internal/geom"
	"sdwp/internal/geomd"
	"sdwp/internal/mdmodel"
)

// testWarehouse builds a small sales warehouse:
//
//	Store hierarchy: Store(5) → City(3) → State(2) → Country(1)
//	  s0,s1 in Alicante (Valencia); s2 in Elche (Valencia);
//	  s3,s4 in MadridCity (MadridState)
//	Time hierarchy: Day(2) → Month(1)
//	Facts: 6 sales with UnitSales 1,2,3,4,5,6 and StoreCost 10..60.
//	  f0: s0 d0, f1: s1 d0, f2: s2 d1, f3: s3 d1, f4: s4 d0, f5: s0 d1
func testWarehouse(t testing.TB) *Cube {
	t.Helper()
	b := mdmodel.NewBuilder("SalesDW")
	b.Dimension("Store").
		Level("Store", "name").Attr("size", mdmodel.TypeNumber).
		Level("City", "name").Attr("population", mdmodel.TypeNumber).
		Level("State", "name").
		Level("Country", "name")
	b.Dimension("Time").
		Level("Day", "date").
		Level("Month", "name")
	b.Fact("Sales").Measure("UnitSales").Measure("StoreCost").Uses("Store", "Time")
	gs := geomd.New(b.MustBuild())
	c := New(gs)

	must := func(idx int32, err error) int32 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	spain := must(c.AddMember("Store", "Country", "Spain", NoParent))
	valencia := must(c.AddMember("Store", "State", "Valencia", spain))
	madridSt := must(c.AddMember("Store", "State", "MadridState", spain))
	alicante := must(c.AddMember("Store", "City", "Alicante", valencia))
	elche := must(c.AddMember("Store", "City", "Elche", valencia))
	madrid := must(c.AddMember("Store", "City", "MadridCity", madridSt))
	s0 := must(c.AddMember("Store", "Store", "s0", alicante))
	s1 := must(c.AddMember("Store", "Store", "s1", alicante))
	s2 := must(c.AddMember("Store", "Store", "s2", elche))
	s3 := must(c.AddMember("Store", "Store", "s3", madrid))
	s4 := must(c.AddMember("Store", "Store", "s4", madrid))

	month := must(c.AddMember("Time", "Month", "2009-06", NoParent))
	d0 := must(c.AddMember("Time", "Day", "2009-06-01", month))
	d1 := must(c.AddMember("Time", "Day", "2009-06-02", month))

	// City populations.
	if err := c.SetMemberAttr("Store", "City", alicante, "population", 330000.0); err != nil {
		t.Fatal(err)
	}
	if err := c.SetMemberAttr("Store", "City", elche, "population", 230000.0); err != nil {
		t.Fatal(err)
	}
	if err := c.SetMemberAttr("Store", "City", madrid, "population", 3200000.0); err != nil {
		t.Fatal(err)
	}
	// Store geometries near their cities (lon/lat).
	locs := map[int32]geom.Point{
		s0: geom.Pt(-0.48, 38.34), s1: geom.Pt(-0.49, 38.35), s2: geom.Pt(-0.70, 38.27),
		s3: geom.Pt(-3.70, 40.41), s4: geom.Pt(-3.68, 40.42),
	}
	for m, p := range locs {
		if err := c.SetMemberGeometry("Store", "Store", m, p); err != nil {
			t.Fatal(err)
		}
	}

	add := func(store, day int32, units, cost float64) {
		t.Helper()
		if err := c.AddFact("Sales", map[string]int32{"Store": store, "Time": day},
			map[string]float64{"UnitSales": units, "StoreCost": cost}); err != nil {
			t.Fatal(err)
		}
	}
	add(s0, d0, 1, 10)
	add(s1, d0, 2, 20)
	add(s2, d1, 3, 30)
	add(s3, d1, 4, 40)
	add(s4, d0, 5, 50)
	add(s0, d1, 6, 60)
	return c
}

func TestLoadShape(t *testing.T) {
	c := testWarehouse(t)
	dd := c.Dimension("Store")
	if dd == nil || dd.NumLevels() != 4 {
		t.Fatal("Store dimension wrong")
	}
	if got := dd.Level("Store").Len(); got != 5 {
		t.Fatalf("stores = %d", got)
	}
	if got := dd.Level("City").Len(); got != 3 {
		t.Fatalf("cities = %d", got)
	}
	if c.FactData("Sales").Len() != 6 {
		t.Fatal("facts wrong")
	}
	if c.Dimension("Ghost") != nil || c.FactData("Ghost") != nil {
		t.Fatal("unknown lookups must be nil")
	}
	if dd.Level("City").IndexOf("Elche") != 1 {
		t.Fatal("IndexOf wrong")
	}
	if dd.Level("City").IndexOf("Atlantis") != -1 {
		t.Fatal("IndexOf of unknown member")
	}
}

func TestAncestorClimb(t *testing.T) {
	c := testWarehouse(t)
	dd := c.Dimension("Store")
	// s3 (index 3) → MadridCity (2) → MadridState (1) → Spain (0)
	if got := dd.Ancestor(0, 1, 3); got != 2 {
		t.Errorf("store→city = %d", got)
	}
	if got := dd.Ancestor(0, 2, 3); got != 1 {
		t.Errorf("store→state = %d", got)
	}
	if got := dd.Ancestor(0, 3, 3); got != 0 {
		t.Errorf("store→country = %d", got)
	}
	if got := dd.Ancestor(0, 0, 3); got != 3 {
		t.Errorf("identity climb = %d", got)
	}
	if got := dd.Ancestor(0, 1, NoParent); got != NoParent {
		t.Errorf("NoParent climb = %d", got)
	}
}

func TestAddMemberValidation(t *testing.T) {
	c := testWarehouse(t)
	if _, err := c.AddMember("Ghost", "X", "m", NoParent); err == nil {
		t.Error("unknown dimension")
	}
	if _, err := c.AddMember("Store", "Ghost", "m", NoParent); err == nil {
		t.Error("unknown level")
	}
	if _, err := c.AddMember("Store", "Country", "France", 0); err == nil {
		t.Error("top level member with parent")
	}
	if _, err := c.AddMember("Store", "City", "Nowhere", NoParent); err == nil {
		t.Error("non-top member without parent")
	}
	if _, err := c.AddMember("Store", "City", "Nowhere", 99); err == nil {
		t.Error("out-of-range parent")
	}
}

func TestSetMemberAttrValidation(t *testing.T) {
	c := testWarehouse(t)
	if err := c.SetMemberAttr("Store", "City", 0, "ghost", 1); err == nil {
		t.Error("unknown attribute")
	}
	if err := c.SetMemberAttr("Store", "City", 99, "population", 1.0); err == nil {
		t.Error("out-of-range member")
	}
	if err := c.SetMemberAttr("Ghost", "City", 0, "population", 1.0); err == nil {
		t.Error("unknown dimension")
	}
	// Descriptor writes replace the display name and must be strings.
	if err := c.SetMemberAttr("Store", "City", 0, "name", 42); err == nil {
		t.Error("descriptor accepts non-string")
	}
	if err := c.SetMemberAttr("Store", "City", 0, "name", "Alacant"); err != nil {
		t.Fatal(err)
	}
	if got := c.Dimension("Store").Level("City").Name(0); got != "Alacant" {
		t.Errorf("descriptor rename = %q", got)
	}
}

func TestAttrLookup(t *testing.T) {
	c := testWarehouse(t)
	city := c.Dimension("Store").Level("City")
	v, ok := city.Attr("population", 2)
	if !ok || v != 3200000.0 {
		t.Fatalf("population = %v,%v", v, ok)
	}
	// Descriptor readable under its attribute name.
	v, ok = city.Attr("name", 1)
	if !ok || v != "Elche" {
		t.Fatalf("name = %v,%v", v, ok)
	}
	if _, ok := city.Attr("ghost", 0); ok {
		t.Error("unknown attribute lookup should fail")
	}
}

func TestAddFactValidation(t *testing.T) {
	c := testWarehouse(t)
	if err := c.AddFact("Ghost", nil, nil); err == nil {
		t.Error("unknown fact")
	}
	if err := c.AddFact("Sales", map[string]int32{"Store": 0}, nil); err == nil {
		t.Error("missing dimension key")
	}
	if err := c.AddFact("Sales", map[string]int32{"Store": 99, "Time": 0}, nil); err == nil {
		t.Error("out-of-range key")
	}
	if err := c.AddFact("Sales", map[string]int32{"Store": 0, "Time": 0},
		map[string]float64{"Profit": 1}); err == nil {
		t.Error("unknown measure")
	}
	// Missing measures default to zero.
	if err := c.AddFact("Sales", map[string]int32{"Store": 0, "Time": 0}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuerySumByCity(t *testing.T) {
	c := testWarehouse(t)
	res, err := c.Execute(Query{
		Fact:       "Sales",
		GroupBy:    []LevelRef{{"Store", "City"}},
		Aggregates: []MeasureAgg{{Measure: "UnitSales", Agg: AggSum}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Alicante: f0(1)+f1(2)+f5(6)=9; Elche: 3; MadridCity: 4+5=9.
	want := map[string]float64{"Alicante": 9, "Elche": 3, "MadridCity": 9}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	for _, r := range res.Rows {
		if want[r.Groups[0]] != r.Values[0] {
			t.Errorf("%s = %v, want %v", r.Groups[0], r.Values[0], want[r.Groups[0]])
		}
	}
	if res.ScannedFacts != 6 || res.MatchedFacts != 6 {
		t.Errorf("scan stats = %d/%d", res.ScannedFacts, res.MatchedFacts)
	}
	// Rows sorted by group name.
	if res.Rows[0].Groups[0] != "Alicante" || res.Rows[2].Groups[0] != "MadridCity" {
		t.Errorf("rows not sorted: %+v", res.Rows)
	}
}

func TestQueryRollUpLevels(t *testing.T) {
	c := testWarehouse(t)
	for _, tc := range []struct {
		level string
		want  map[string]float64
	}{
		{"Store", map[string]float64{"s0": 7, "s1": 2, "s2": 3, "s3": 4, "s4": 5}},
		{"State", map[string]float64{"Valencia": 12, "MadridState": 9}},
		{"Country", map[string]float64{"Spain": 21}},
	} {
		res, err := c.Execute(Query{
			Fact:       "Sales",
			GroupBy:    []LevelRef{{"Store", tc.level}},
			Aggregates: []MeasureAgg{{Measure: "UnitSales", Agg: AggSum}},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(tc.want) {
			t.Fatalf("%s: rows = %+v", tc.level, res.Rows)
		}
		for _, r := range res.Rows {
			if tc.want[r.Groups[0]] != r.Values[0] {
				t.Errorf("%s %s = %v, want %v", tc.level, r.Groups[0], r.Values[0], tc.want[r.Groups[0]])
			}
		}
	}
}

func TestQueryMultiGroupAndAggs(t *testing.T) {
	c := testWarehouse(t)
	res, err := c.Execute(Query{
		Fact:    "Sales",
		GroupBy: []LevelRef{{"Store", "State"}, {"Time", "Day"}},
		Aggregates: []MeasureAgg{
			{Measure: "UnitSales", Agg: AggSum},
			{Agg: AggCount},
			{Measure: "StoreCost", Agg: AggAvg},
			{Measure: "UnitSales", Agg: AggMin},
			{Measure: "UnitSales", Agg: AggMax},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Groups: (Valencia,d0): f0,f1 → sum 3, count 2, avg cost 15, min 1, max 2
	//         (Valencia,d1): f2,f5 → sum 9, count 2, avg cost 45, min 3, max 6
	//         (MadridState,d0): f4 → 5,1,50,5,5
	//         (MadridState,d1): f3 → 4,1,40,4,4
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	find := func(state, day string) Row {
		for _, r := range res.Rows {
			if r.Groups[0] == state && r.Groups[1] == day {
				return r
			}
		}
		t.Fatalf("group %s/%s missing", state, day)
		return Row{}
	}
	r := find("Valencia", "2009-06-01")
	if r.Values[0] != 3 || r.Values[1] != 2 || r.Values[2] != 15 || r.Values[3] != 1 || r.Values[4] != 2 {
		t.Errorf("Valencia/d0 = %v", r.Values)
	}
	r = find("Valencia", "2009-06-02")
	if r.Values[0] != 9 || r.Values[2] != 45 {
		t.Errorf("Valencia/d1 = %v", r.Values)
	}
	r = find("MadridState", "2009-06-01")
	if r.Values[0] != 5 || r.Values[1] != 1 {
		t.Errorf("Madrid/d0 = %v", r.Values)
	}
}

func TestQueryGrandTotal(t *testing.T) {
	c := testWarehouse(t)
	res, err := c.Execute(Query{
		Fact:       "Sales",
		Aggregates: []MeasureAgg{{Measure: "UnitSales", Agg: AggSum}, {Agg: AggCount}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Values[0] != 21 || res.Rows[0].Values[1] != 6 {
		t.Fatalf("grand total = %+v", res.Rows)
	}
}

func TestQueryFilters(t *testing.T) {
	c := testWarehouse(t)
	// Cities with population > 300k: Alicante, MadridCity.
	res, err := c.Execute(Query{
		Fact:       "Sales",
		GroupBy:    []LevelRef{{"Store", "City"}},
		Aggregates: []MeasureAgg{{Measure: "UnitSales", Agg: AggSum}},
		Filters: []AttrFilter{{
			LevelRef: LevelRef{"Store", "City"}, Attr: "population",
			Op: OpGt, Value: 300000.0,
		}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if res.MatchedFacts != 5 {
		t.Errorf("matched = %d, want 5", res.MatchedFacts)
	}
	// String equality on descriptor.
	res, err = c.Execute(Query{
		Fact:       "Sales",
		Aggregates: []MeasureAgg{{Agg: AggCount}},
		Filters: []AttrFilter{{
			LevelRef: LevelRef{"Store", "State"}, Attr: "name", Op: OpEq, Value: "Valencia",
		}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Values[0] != 4 {
		t.Errorf("Valencia count = %v", res.Rows[0].Values[0])
	}
	// Ne operator.
	res, _ = c.Execute(Query{
		Fact:       "Sales",
		Aggregates: []MeasureAgg{{Agg: AggCount}},
		Filters: []AttrFilter{{
			LevelRef: LevelRef{"Store", "State"}, Attr: "name", Op: OpNe, Value: "Valencia",
		}},
	}, nil)
	if res.Rows[0].Values[0] != 2 {
		t.Errorf("non-Valencia count = %v", res.Rows[0].Values[0])
	}
}

func TestQueryValidation(t *testing.T) {
	c := testWarehouse(t)
	cases := []Query{
		{Fact: "Ghost", Aggregates: []MeasureAgg{{Agg: AggCount}}},
		{Fact: "Sales"}, // no aggregates
		{Fact: "Sales", Aggregates: []MeasureAgg{{Measure: "Ghost", Agg: AggSum}}},
		{Fact: "Sales", Aggregates: []MeasureAgg{{Agg: Agg(99)}}},
		{Fact: "Sales", GroupBy: []LevelRef{{"Ghost", "X"}}, Aggregates: []MeasureAgg{{Agg: AggCount}}},
		{Fact: "Sales", GroupBy: []LevelRef{{"Store", "Ghost"}}, Aggregates: []MeasureAgg{{Agg: AggCount}}},
		{Fact: "Sales", Aggregates: []MeasureAgg{{Agg: AggCount}},
			Filters: []AttrFilter{{LevelRef: LevelRef{"Ghost", "X"}, Attr: "a", Op: OpEq, Value: 1}}},
		{Fact: "Sales", Aggregates: []MeasureAgg{{Agg: AggCount}},
			Filters: []AttrFilter{{LevelRef: LevelRef{"Store", "Ghost"}, Attr: "a", Op: OpEq, Value: 1}}},
		{Fact: "Sales", Aggregates: []MeasureAgg{{Agg: AggCount}},
			Filters: []AttrFilter{{LevelRef: LevelRef{"Store", "City"}, Attr: "ghost", Op: OpEq, Value: 1}}},
	}
	for i, q := range cases {
		if _, err := c.Execute(q, nil); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestViewSelection(t *testing.T) {
	c := testWarehouse(t)
	base := NewView(c)
	if base.Materialize("Sales") != nil {
		t.Fatal("fresh view must be unrestricted")
	}
	if !base.FactVisible("Sales", 3) || !base.LevelMask("Store", "City").Test(2) {
		t.Fatal("unrestricted view must show everything")
	}
	// Select the two Alicante stores (s0=0, s1=1).
	b := base.Builder()
	if err := b.SelectMember("Store", "Store", 0); err != nil {
		t.Fatal(err)
	}
	if err := b.SelectMember("Store", "Store", 1); err != nil {
		t.Fatal(err)
	}
	v := b.View()
	if v.Materialize("Sales") == nil || base.Materialize("Sales") != nil {
		t.Fatal("view should be restricted")
	}
	res, err := c.Execute(Query{
		Fact:       "Sales",
		GroupBy:    []LevelRef{{"Store", "City"}},
		Aggregates: []MeasureAgg{{Measure: "UnitSales", Agg: AggSum}},
	}, v)
	if err != nil {
		t.Fatal(err)
	}
	// Only f0, f1, f5 (stores s0,s1) remain: Alicante 9.
	if len(res.Rows) != 1 || res.Rows[0].Groups[0] != "Alicante" || res.Rows[0].Values[0] != 9 {
		t.Fatalf("personalized rows = %+v", res.Rows)
	}
	if res.MatchedFacts != 3 {
		t.Errorf("matched = %d", res.MatchedFacts)
	}
	if got := visibleFacts(v, "Sales"); got != 3 {
		t.Errorf("visible facts = %d", got)
	}
}

// visibleFacts counts the facts of a table FactVisible admits.
func visibleFacts(v *View, fact string) int {
	n := 0
	for i := 0; i < v.cube.facts[fact].n; i++ {
		if v.FactVisible(fact, int32(i)) {
			n++
		}
	}
	return n
}

func TestViewLevelMaskAtCoarserLevel(t *testing.T) {
	c := testWarehouse(t)
	b := NewView(c).Builder()
	// Select the City "MadridCity" (index 2): only s3,s4 facts remain.
	if err := b.SelectMember("Store", "City", 2); err != nil {
		t.Fatal(err)
	}
	v := b.View()
	res, err := c.Execute(Query{
		Fact:       "Sales",
		Aggregates: []MeasureAgg{{Measure: "UnitSales", Agg: AggSum}},
	}, v)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Values[0] != 9 {
		t.Fatalf("Madrid-only sum = %v", res.Rows[0].Values[0])
	}
}

func TestViewFactMask(t *testing.T) {
	c := testWarehouse(t)
	b := NewView(c).Builder()
	if err := b.SelectFact("Sales", 0); err != nil {
		t.Fatal(err)
	}
	if err := b.SelectFact("Sales", 5); err != nil {
		t.Fatal(err)
	}
	v := b.View()
	if got := visibleFacts(v, "Sales"); got != 2 {
		t.Fatalf("visible = %d", got)
	}
	// Combined with a level mask: intersection semantics.
	if err := b.SelectMember("Store", "Store", 1); err != nil { // s1 only
		t.Fatal(err)
	}
	if got := visibleFacts(b.View(), "Sales"); got != 0 {
		t.Fatalf("intersected visible = %d", got)
	}
}

func TestViewValidationAndBuilder(t *testing.T) {
	c := testWarehouse(t)
	b := NewView(c).Builder()
	if err := b.SelectMember("Ghost", "X", 0); err == nil {
		t.Error("unknown dimension")
	}
	if err := b.SelectMember("Store", "Ghost", 0); err == nil {
		t.Error("unknown level")
	}
	if err := b.SelectMember("Store", "Store", 99); err == nil {
		t.Error("out-of-range member")
	}
	if err := b.SelectFact("Ghost", 0); err == nil {
		t.Error("unknown fact")
	}
	if err := b.SelectFact("Sales", 99); err == nil {
		t.Error("out-of-range fact")
	}
	if v := b.View(); v != b.View() || v.LevelMask("Store", "Store") != nil {
		t.Error("failed selections built a new view")
	}
	_ = b.SelectMember("Store", "Store", 0)
	v := b.View()
	key := v.Key()
	nb := v.Builder()
	_ = nb.SelectMember("Store", "Store", 1)
	_ = nb.SelectFact("Sales", 2)
	w := nb.View()
	if v.LevelMask("Store", "Store").Test(1) || v.FactMask("Sales") != nil || v.Key() != key {
		t.Error("a builder altered its base")
	}
	if !w.LevelMask("Store", "Store").Test(0) || !w.FactMask("Sales").Test(2) {
		t.Error("a builder lost its base's selection")
	}
	if v.FactVisible("Ghost", 0) {
		t.Error("unknown fact never visible")
	}
}

func TestLayerCatalog(t *testing.T) {
	c := testWarehouse(t)
	ld, err := c.RegisterLayer("Airport", geom.TypePoint)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterLayer("Airport", geom.TypePoint); err == nil {
		t.Error("duplicate layer")
	}
	if _, err := c.RegisterLayer("", geom.TypePoint); err == nil {
		t.Error("empty layer name")
	}
	if _, err := c.AddLayerObject("Airport", "ALC", geom.Pt(-0.56, 38.28)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddLayerObject("Airport", "MAD", geom.Pt(-3.57, 40.49)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddLayerObject("Airport", "bad", geom.Ln(geom.Pt(0, 0), geom.Pt(1, 1))); err == nil {
		t.Error("type mismatch object")
	}
	if _, err := c.AddLayerObject("Ghost", "x", geom.Pt(0, 0)); err == nil {
		t.Error("unknown layer")
	}
	if ld.Len() != 2 || ld.Name(0) != "ALC" || ld.Type() != geom.TypePoint {
		t.Fatalf("layer data wrong: %+v", ld)
	}
	if c.Layer("Airport") != ld {
		t.Error("Layer lookup")
	}
	if len(c.Layers()) != 1 {
		t.Error("Layers list")
	}
}

func TestMembersWithinKm(t *testing.T) {
	c := testWarehouse(t)
	// Stores near Alicante city centre (s0, s1 within ~5 km; s2 ~25 km).
	var got []int32
	err := c.MembersWithinKm("Store", "Store", geom.Pt(-0.48, 38.34), 5,
		func(m int32) bool { got = append(got, m); return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("stores within 5km = %v", got)
	}
	// Wider radius captures Elche too.
	got = nil
	_ = c.MembersWithinKm("Store", "Store", geom.Pt(-0.48, 38.34), 40,
		func(m int32) bool { got = append(got, m); return true })
	if len(got) != 3 {
		t.Fatalf("stores within 40km = %v", got)
	}
	// Level without geometry errors.
	if err := c.MembersWithinKm("Store", "City", geom.Pt(0, 0), 5, nil); err == nil ||
		!strings.Contains(err.Error(), "no geometry") {
		t.Errorf("no-geometry error: %v", err)
	}
	if err := c.MembersWithinKm("Ghost", "X", geom.Pt(0, 0), 5, nil); err == nil {
		t.Error("unknown level")
	}
}

func TestLayerObjectsWithinKmAndNearest(t *testing.T) {
	c := testWarehouse(t)
	_, _ = c.RegisterLayer("Airport", geom.TypePoint)
	_, _ = c.AddLayerObject("Airport", "ALC", geom.Pt(-0.56, 38.28))
	_, _ = c.AddLayerObject("Airport", "MAD", geom.Pt(-3.57, 40.49))

	var got []int32
	err := c.LayerObjectsWithinKm("Airport", geom.Pt(-0.48, 38.34), 15,
		func(o int32) bool { got = append(got, o); return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("airports near Alicante = %v", got)
	}
	if err := c.LayerObjectsWithinKm("Ghost", geom.Pt(0, 0), 1, nil); err == nil {
		t.Error("unknown layer")
	}

	idx, d, err := c.NearestLayerObjectKm("Airport", geom.Pt(-3.70, 40.41))
	if err != nil || idx != 1 {
		t.Fatalf("nearest = %d, %v", idx, err)
	}
	if d <= 0 || d > 20 {
		t.Fatalf("nearest distance = %v", d)
	}
	if _, _, err := c.NearestLayerObjectKm("Ghost", geom.Pt(0, 0)); err == nil {
		t.Error("unknown layer nearest")
	}
	// Empty layer yields -1.
	_, _ = c.RegisterLayer("Empty", geom.TypePoint)
	idx, _, err = c.NearestLayerObjectKm("Empty", geom.Pt(0, 0))
	if err != nil || idx != -1 {
		t.Fatalf("empty layer nearest = %d, %v", idx, err)
	}
}

func TestAggStringAndParse(t *testing.T) {
	for a, s := range map[Agg]string{AggSum: "SUM", AggCount: "COUNT", AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX"} {
		if a.String() != s {
			t.Errorf("%v.String() = %q", a, a.String())
		}
		back, err := ParseAgg(strings.ToLower(s))
		if err != nil || back != a {
			t.Errorf("ParseAgg(%q) = %v, %v", s, back, err)
		}
	}
	if Agg(99).String() != "?" {
		t.Error("invalid Agg string")
	}
	if _, err := ParseAgg("MEDIAN"); err == nil {
		t.Error("unknown agg should error")
	}
}

package cube_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/cube/cubetest"
	"sdwp/internal/datagen"
)

// TestFingerprintDistinguishesPlans checks that every field of a Query
// feeds the fingerprint: mutating any one of them must change the key,
// while an identical copy must not.
func TestFingerprintDistinguishesPlans(t *testing.T) {
	base := cube.Query{
		Fact:       "Sales",
		GroupBy:    []cube.LevelRef{{Dimension: "Store", Level: "City"}},
		Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}},
		Filters: []cube.AttrFilter{{
			LevelRef: cube.LevelRef{Dimension: "Store", Level: "City"},
			Attr:     "population", Op: cube.OpGt, Value: float64(1000),
		}},
		OrderBy: &cube.OrderBy{Agg: 0, Desc: true},
		Limit:   5,
	}
	if got, want := base.Fingerprint(), base.Fingerprint(); got != want {
		t.Fatalf("fingerprint not deterministic: %q vs %q", got, want)
	}
	copyQ := base
	copyQ.GroupBy = append([]cube.LevelRef(nil), base.GroupBy...)
	if copyQ.Fingerprint() != base.Fingerprint() {
		t.Error("structural copy fingerprints differ")
	}

	mutations := map[string]func(q *cube.Query){
		"fact":         func(q *cube.Query) { q.Fact = "Returns" },
		"group-level":  func(q *cube.Query) { q.GroupBy = []cube.LevelRef{{Dimension: "Store", Level: "State"}} },
		"group-extra":  func(q *cube.Query) { q.GroupBy = append(q.GroupBy, cube.LevelRef{Dimension: "Time", Level: "Year"}) },
		"agg-fn":       func(q *cube.Query) { q.Aggregates = []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggAvg}} },
		"agg-measure":  func(q *cube.Query) { q.Aggregates = []cube.MeasureAgg{{Measure: "StoreCost", Agg: cube.AggSum}} },
		"filter-op":    func(q *cube.Query) { q.Filters[0].Op = cube.OpLt },
		"filter-value": func(q *cube.Query) { q.Filters[0].Value = float64(2000) },
		"filter-type":  func(q *cube.Query) { q.Filters[0].Value = "1000" },
		"filter-none":  func(q *cube.Query) { q.Filters = nil },
		"order-dir":    func(q *cube.Query) { q.OrderBy = &cube.OrderBy{Agg: 0, Desc: false} },
		"order-none":   func(q *cube.Query) { q.OrderBy = nil },
		"limit":        func(q *cube.Query) { q.Limit = 6 },
		"limit-zero":   func(q *cube.Query) { q.Limit = 0 },
	}
	seen := map[string]string{base.Fingerprint(): "base"}
	for name, mutate := range mutations {
		q := base
		q.Filters = append([]cube.AttrFilter(nil), base.Filters...)
		mutate(&q)
		fp := q.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutation %q collides with %q: %q", name, prev, fp)
		}
		seen[fp] = name
	}
}

// TestFingerprintNoBoundaryCollisions targets the classic concatenation
// pitfall: field contents shifting across separators must not produce the
// same key.
func TestFingerprintNoBoundaryCollisions(t *testing.T) {
	a := cube.Query{Fact: "S", GroupBy: []cube.LevelRef{{Dimension: "ab", Level: "c"}}}
	b := cube.Query{Fact: "S", GroupBy: []cube.LevelRef{{Dimension: "a", Level: "bc"}}}
	if a.Fingerprint() == b.Fingerprint() {
		t.Errorf("boundary collision: %q", a.Fingerprint())
	}
}

// TestFilterFingerprintOrderInsensitive checks the filter-set
// sub-fingerprint: the batch executor's sharing key must be identical for
// reordered but equal filter sets (a conjunction is order-insensitive)
// and distinct for genuinely different sets.
func TestFilterFingerprintOrderInsensitive(t *testing.T) {
	pop := cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: "Store", Level: "City"},
		Attr: "population", Op: cube.OpGt, Value: float64(1000)}
	age := cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: "Customer", Level: "Customer"},
		Attr: "age", Op: cube.OpLe, Value: float64(40)}
	q := func(fs ...cube.AttrFilter) cube.Query { return cube.Query{Fact: "Sales", Filters: fs} }

	if got, want := q(pop, age).FilterFingerprint(), q(age, pop).FilterFingerprint(); got != want {
		t.Errorf("reordered filter sets do not share: %q vs %q", got, want)
	}
	if q().FilterFingerprint() != "" {
		t.Errorf("empty filter set fingerprints to %q, want \"\"", q().FilterFingerprint())
	}
	// Reordering must share the key, but the full plan fingerprint stays
	// order-sensitive (separate cache entries).
	if q(pop, age).Fingerprint() == q(age, pop).Fingerprint() {
		t.Error("plan fingerprint became order-insensitive")
	}
}

// TestFilterFingerprintCollisionResistance checks injectivity across
// filter orderings and field boundaries: distinct filter sets must never
// collide, including sets whose concatenated fields would align and
// multisets that differ only in repetition.
func TestFilterFingerprintCollisionResistance(t *testing.T) {
	mk := func(dim, level, attr string, op cube.FilterOp, v any) cube.AttrFilter {
		return cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: dim, Level: level},
			Attr: attr, Op: op, Value: v}
	}
	a := mk("Store", "City", "population", cube.OpGt, float64(1000))
	b := mk("Customer", "Customer", "age", cube.OpLe, float64(40))
	c := mk("Product", "Product", "brand", cube.OpEq, "Brand01")

	sets := map[string][]cube.AttrFilter{
		"a":          {a},
		"b":          {b},
		"ab":         {a, b},
		"abc":        {a, b, c},
		"aa":         {a, a}, // multiset: repetition matters
		"boundary-1": {mk("ab", "c", "x", cube.OpEq, "y")},
		"boundary-2": {mk("a", "bc", "x", cube.OpEq, "y")},
		"value-type": {mk("Store", "City", "population", cube.OpGt, "1000")},
		"op":         {mk("Store", "City", "population", cube.OpLt, float64(1000))},
	}
	seen := map[string]string{}
	for name, fs := range sets {
		fp := cube.Query{Fact: "Sales", Filters: fs}.FilterFingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("filter sets %q and %q collide: %q", name, prev, fp)
		}
		seen[fp] = name
	}
	// Every permutation of a 3-filter set shares one key.
	want := cube.Query{Fact: "Sales", Filters: []cube.AttrFilter{a, b, c}}.FilterFingerprint()
	for _, perm := range [][]cube.AttrFilter{{a, c, b}, {b, a, c}, {b, c, a}, {c, a, b}, {c, b, a}} {
		if got := (cube.Query{Fact: "Sales", Filters: perm}).FilterFingerprint(); got != want {
			t.Errorf("permutation fingerprints differ: %q vs %q", got, want)
		}
	}
}

// TestGroupFingerprint checks the group-by list sub-fingerprint: distinct
// lists get distinct keys — across the dimension/level boundary, across
// the boundary between levels, and across reorderings (the composite key
// column a list shares depends on level order).
func TestGroupFingerprint(t *testing.T) {
	ref := func(d, l string) cube.LevelRef { return cube.LevelRef{Dimension: d, Level: l} }
	lists := [][]cube.LevelRef{
		{ref("Store", "City")},
		{ref("Store", "State")},
		{ref("City", "Store")},
		{ref("ab", "c")},
		{ref("a", "bc")},
		{ref("Store", "City"), ref("Time", "Month")},
		{ref("Time", "Month"), ref("Store", "City")},
		{ref("Store", "City|g:4:Time:5:Month")},
	}
	seen := map[string][]cube.LevelRef{}
	for _, l := range lists {
		fp := cube.Query{GroupBy: l}.GroupFingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%v and %v collide: %q", l, prev, fp)
		}
		seen[fp] = l
	}
	if fp := (cube.Query{Fact: "Sales"}).GroupFingerprint(); fp != "" {
		t.Errorf("no group-by fingerprints to %q, want \"\"", fp)
	}
	if (cube.Query{GroupBy: lists[5]}).GroupFingerprint() != (cube.Query{Fact: "x", GroupBy: lists[5]}).GroupFingerprint() {
		t.Error("equal group-by lists fingerprint differently")
	}
}

// TestExecuteBatchCompiled checks the precompiled batch path
// (ExecuteBatchCompiledOpt): identical results to ExecuteBatch, and
// rejection of nil or foreign-cube plans.
func TestExecuteBatchCompiled(t *testing.T) {
	cfg := datagen.Config{
		Seed: 1, States: 3, Cities: 6, Stores: 12, Customers: 10,
		Products: 8, Days: 10, Sales: 200,
		AirportEvery: 3, TrainLines: 2, Hospitals: 2, Highways: 1,
	}
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs := []cube.Query{
		{Fact: "Sales", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}},
		{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Store", Level: "City"}},
			Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}}},
	}
	cqs := make([]*cube.CompiledQuery, len(qs))
	for i, q := range qs {
		cq, err := ds.Cube.Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cq.Query(), q) {
			t.Errorf("compiled plan %d reports query %+v, want %+v", i, cq.Query(), q)
		}
		cqs[i] = cq
	}
	want, err := ds.Cube.ExecuteBatch(qs, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ds.Cube.ExecuteBatchCompiledOpt(cqs, nil, cube.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("compiled batch differs from ExecuteBatch")
	}

	if _, _, err := ds.Cube.ExecuteBatchCompiledOpt([]*cube.CompiledQuery{cqs[0], nil}, nil, cube.BatchOptions{}); err == nil {
		t.Error("nil compiled entry accepted")
	}
	if _, _, err := ds.Cube.ExecuteBatchCompiledOpt(cqs, make([]*cube.View, 1), cube.BatchOptions{}); err == nil {
		t.Error("view-length mismatch accepted")
	}
	other, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.Cube.Compile(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ds.Cube.ExecuteBatchCompiledOpt([]*cube.CompiledQuery{foreign}, nil, cube.BatchOptions{}); err == nil {
		t.Error("plan compiled for another cube accepted")
	}
	if _, err := ds.Cube.Compile(cube.Query{Fact: "Ghost",
		Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}}); err == nil {
		t.Error("Compile accepted unknown fact")
	}
	if _, err := ds.Cube.Compile(cube.Query{Fact: "Sales"}); err == nil {
		t.Error("Compile accepted query without aggregates")
	}
}

// TestViewKeyFollowsContent checks the cache-key substrate: fresh views
// share one key, every selection that changes the content (member and
// fact) changes it, failed and repeated selections do not, and the view
// a builder was taken from keeps its key.
func TestViewKeyFollowsContent(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Seed: 1, States: 3, Cities: 6, Stores: 12, Customers: 10,
		Products: 8, Days: 10, Sales: 200,
		AirportEvery: 3, TrainLines: 2, Hospitals: 2, Highways: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	v1 := cube.NewView(ds.Cube)
	v2 := cube.NewView(ds.Cube)
	fresh := v1.Key()
	if fresh != v2.Key() || fresh[0] != 'v' {
		t.Fatalf("fresh view keys %x and %x: want equal, starting with 'v'", fresh, v2.Key())
	}
	b := v1.Builder()
	prev, seen := fresh, map[string]bool{fresh: true}
	step := func(what string, err error, changes bool) {
		t.Helper()
		k := b.View().Key()
		if (k != prev) != changes || (changes && seen[k]) {
			t.Fatalf("%s (err %v): key %x after %x, want changed %v to a new key", what, err, k, prev, changes)
		}
		prev, seen[k] = k, true
	}
	step("member selection", b.SelectMember("Store", "City", 0), true)
	step("fact selection", b.SelectFact("Sales", 0), true)
	step("repeated member selection", b.SelectMember("Store", "City", 0), false)
	if err := b.SelectMember("Store", "City", 10_000); err == nil {
		t.Fatal("out-of-range member accepted")
	}
	step("failed selection", nil, false)
	if v1.Key() != fresh {
		t.Fatal("selections reached the view the builder was taken from")
	}
}

// TestAttrFilterFingerprint checks the per-predicate sub-fingerprint:
// every field feeds it, boundary shifts cannot collide, and equal
// predicates share one key.
func TestAttrFilterFingerprint(t *testing.T) {
	mk := func(dim, level, attr string, op cube.FilterOp, v any) cube.AttrFilter {
		return cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: dim, Level: level},
			Attr: attr, Op: op, Value: v}
	}
	base := mk("Store", "City", "population", cube.OpGt, float64(1000))
	if base.Fingerprint() != mk("Store", "City", "population", cube.OpGt, float64(1000)).Fingerprint() {
		t.Error("equal predicates fingerprint differently")
	}
	variants := map[string]cube.AttrFilter{
		"dimension":  mk("Customer", "City", "population", cube.OpGt, float64(1000)),
		"level":      mk("Store", "State", "population", cube.OpGt, float64(1000)),
		"attr":       mk("Store", "City", "area", cube.OpGt, float64(1000)),
		"op":         mk("Store", "City", "population", cube.OpLt, float64(1000)),
		"value":      mk("Store", "City", "population", cube.OpGt, float64(2000)),
		"value-type": mk("Store", "City", "population", cube.OpGt, "1000"),
		"boundary-1": mk("ab", "c", "x", cube.OpEq, "y"),
		"boundary-2": mk("a", "bc", "x", cube.OpEq, "y"),
	}
	seen := map[string]string{base.Fingerprint(): "base"}
	for name, f := range variants {
		fp := f.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("predicate %q collides with %q: %q", name, prev, fp)
		}
		seen[fp] = name
	}
}

// TestFilterFingerprintDerivedFromPredicates pins the satellite fix: the
// filter-set keyspace is DERIVED from the per-predicate keyspace
// (CombinePredicateFingerprints over sorted AttrFilter.Fingerprint
// values), so the two can never disagree — the set key of {A, B} is a
// pure function of A's and B's predicate keys, in any order.
func TestFilterFingerprintDerivedFromPredicates(t *testing.T) {
	pop := cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: "Store", Level: "City"},
		Attr: "population", Op: cube.OpGt, Value: float64(1000)}
	age := cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: "Customer", Level: "Customer"},
		Attr: "age", Op: cube.OpLe, Value: float64(40)}
	brand := cube.AttrFilter{LevelRef: cube.LevelRef{Dimension: "Product", Level: "Product"},
		Attr: "brand", Op: cube.OpEq, Value: "Brand01"}

	for _, set := range [][]cube.AttrFilter{
		{pop}, {pop, age}, {age, pop}, {brand, pop, age}, {pop, pop},
	} {
		fps := make([]string, len(set))
		for i, f := range set {
			fps[i] = f.Fingerprint()
		}
		want := cube.CombinePredicateFingerprints(fps)
		got := cube.Query{Fact: "Sales", Filters: set}.FilterFingerprint()
		if got != want {
			t.Errorf("set key not derived from predicate keys: got %q, want %q", got, want)
		}
	}

	// CombinePredicateFingerprints itself: order-insensitive, repetition-
	// and boundary-sensitive, and it must not mutate its input.
	in := []string{"zz", "aa"}
	if cube.CombinePredicateFingerprints(in) != cube.CombinePredicateFingerprints([]string{"aa", "zz"}) {
		t.Error("combine is order-sensitive")
	}
	if in[0] != "zz" {
		t.Error("combine mutated its input slice")
	}
	if cube.CombinePredicateFingerprints([]string{"aa"}) == cube.CombinePredicateFingerprints([]string{"aa", "aa"}) {
		t.Error("combine ignores repetition")
	}
	if cube.CombinePredicateFingerprints([]string{"ab", "c"}) == cube.CombinePredicateFingerprints([]string{"a", "bc"}) {
		t.Error("combine has boundary collisions")
	}
}

// FuzzQueryFingerprint holds Fingerprint to its contract: two queries with
// equal fingerprints compute the same result table. The input picks a base
// query (one of FuzzQuerySpec's shapes, as cube.Query JSON with Agg and Op
// as their numbers) and a JSON patch: the first query is the base, the
// second the base overlaid with the patch's fields. Whenever the
// fingerprints agree, both queries must fail compilation or give the same
// reference answer over a small cube, with and without a view. It
// compares results, not queries: filter values that differ as Go values
// but print alike under %v (a slice of numbers and one of strings) match
// no fact.
func FuzzQueryFingerprint(f *testing.F) {
	const (
		count  = `"aggregates":[{"agg":2}]`
		byCity = `"groupBy":[{"dimension":"Store","level":"City"}]`
		sumU   = `"aggregates":[{"measure":"UnitSales","agg":1}]`
		popGt  = `"filters":[{"dimension":"Store","level":"City","attr":"population","op":5,"value":`
	)
	bases := []string{
		`{"fact":"Sales",` + count + `}`,
		`{"fact":"Sales",` + byCity + `,` + sumU + `}`,
		`{"fact":"Sales",` + byCity + `,` + sumU + `,` + popGt + `100000}],"orderBy":{"agg":0,"desc":true},"limit":3}`,
		`{"fact":"Sales",` + count + `,` + popGt + `[1,2]}]}`,
		`{"fact":"Sales",` + count + `,"filters":[{"dimension":"Store","level":"City","attr":"name","op":1,"value":"City001"},` +
			`{"dimension":"Store","level":"City","attr":"population","op":4,"value":null}]}`,
		`{"fact":"Sales",` + count + `,` + popGt + `1}],"limit":7}`,
		`{"fact":"Sales","aggregates":[{"measure":"UnitSales","agg":3}],"orderBy":{"agg":3},"limit":-1}`,
		`{"fact":"Sales","groupBy":[{"dimension":"Store","level":"City"},{"dimension":"Product","level":"Family"}],` +
			`"aggregates":[{"measure":"StoreCost","agg":4},{"agg":2}],"orderBy":{"agg":1}}`,
		`{"fact":"Ghost",` + count + `}`,
	}
	for i, patch := range []string{
		`{"groupBy":[],"filters":null}`,
		`{"limit":0}`,
		`{` + popGt + `1e5}],"orderBy":{"agg":0,"desc":true},"limit":3}`,
		`{` + popGt + `["1 2"]}]}`,
		`{"filters":[{"dimension":"Store","level":"City","attr":"name","op":1,"value":"City001"},` +
			`{"dimension":"Store","level":"City","attr":"population","op":4}]}`,
		`{"limit":7}`,
		`{"orderBy":{"agg":3}}`,
		`{"aggregates":[{"measure":"StoreCost","agg":4},{"agg":2}],"orderBy":{"agg":1,"desc":false}}`,
		`{"fact":"Ghost"}`,
	} {
		f.Add(uint8(i), patch)
	}
	cfg := datagen.Default()
	cfg.Cities = 6
	cfg.Stores = 12
	cfg.Customers = 8
	cfg.Sales = 60
	cfg.TrainLines = 2
	ds, err := datagen.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	c := ds.Cube
	b := cube.NewView(c).Builder()
	if err := b.SelectMember("Store", "City", 0); err != nil {
		f.Fatal(err)
	}
	v := b.View()
	f.Fuzz(func(t *testing.T, base uint8, patch string) {
		var qa, qb cube.Query
		a := []byte(bases[int(base)%len(bases)])
		if json.Unmarshal(a, &qa) != nil || json.Unmarshal(a, &qb) != nil ||
			json.Unmarshal([]byte(patch), &qb) != nil || qa.Fingerprint() != qb.Fingerprint() {
			return
		}
		_, errA := c.Compile(qa)
		_, errB := c.Compile(qb)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("fingerprint %q: compile %v vs %v", qa.Fingerprint(), errA, errB)
		}
		if errA != nil {
			return
		}
		for _, view := range []*cube.View{nil, v} {
			if ra, rb := cubetest.NaiveExecute(c, qa, view), cubetest.NaiveExecute(c, qb, view); !reflect.DeepEqual(ra, rb) {
				t.Fatalf("fingerprint %q: %+v vs %+v", qa.Fingerprint(), ra, rb)
			}
		}
	})
}

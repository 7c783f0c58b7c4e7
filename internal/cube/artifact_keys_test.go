package cube

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sdwp/internal/bitset"
	"sdwp/internal/geomd"
	"sdwp/internal/mdmodel"
)

// keysWarehouse generates the small cube FuzzArtifactKeys keys artifacts
// over: 4 states, 9 cities, 24 stores, 6 days in 2 months, 300 facts (five
// bitmap words, the last one partial). City populations mix float64,
// int, -0, NaN and unset; store sizes are ints; store labels are strings
// containing the fingerprints' own separators.
func keysWarehouse(t testing.TB) *Cube {
	t.Helper()
	b := mdmodel.NewBuilder("KeysDW")
	b.Dimension("Store").
		Level("Store", "name").Attr("size", mdmodel.TypeNumber).Attr("label", mdmodel.TypeString).
		Level("City", "name").Attr("population", mdmodel.TypeNumber).
		Level("State", "name")
	b.Dimension("Time").
		Level("Day", "date").
		Level("Month", "name")
	b.Fact("Sales").Measure("UnitSales").Uses("Store", "Time")
	c := New(geomd.New(b.MustBuild()))
	rng := rand.New(rand.NewSource(28))
	must := func(idx int32, err error) int32 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	set := func(level string, m int32, attr string, v any) {
		t.Helper()
		if err := c.SetMemberAttr("Store", level, m, attr, v); err != nil {
			t.Fatal(err)
		}
	}
	var states, cities, stores, days []int32
	for i := 0; i < 4; i++ {
		states = append(states, must(c.AddMember("Store", "State", fmt.Sprintf("S%d", i), NoParent)))
	}
	pops := []any{100000.0, 100000, math.Copysign(0, -1), 0.0, math.NaN(), 250000.5, int64(3e6), float32(0.1)}
	for i := 0; i < 9; i++ {
		city := must(c.AddMember("Store", "City", fmt.Sprintf("C%d|%d", i, i%3), states[i%4]))
		cities = append(cities, city)
		if i < len(pops) {
			set("City", city, "population", pops[i])
		}
	}
	labels := []string{"a|b", "a:b", "a", "", "w:1:a", "1:a", "g:a|b"}
	for i := 0; i < 24; i++ {
		store := must(c.AddMember("Store", "Store", fmt.Sprintf("s%d:%d", i, i%4), cities[rng.Intn(len(cities))]))
		stores = append(stores, store)
		set("Store", store, "size", rng.Intn(4))
		set("Store", store, "label", labels[rng.Intn(len(labels))])
	}
	for m := 0; m < 2; m++ {
		month := must(c.AddMember("Time", "Month", fmt.Sprintf("M%d", m), NoParent))
		for d := 0; d < 3; d++ {
			days = append(days, must(c.AddMember("Time", "Day", fmt.Sprintf("D%d-%d", m, d), month)))
		}
	}
	for i := 0; i < 300; i++ {
		if err := c.AddFact("Sales", map[string]int32{
			"Store": stores[rng.Intn(len(stores))], "Time": days[rng.Intn(len(days))],
		}, map[string]float64{"UnitSales": float64(rng.Intn(9))}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// keysFilter decodes one fuzzed predicate: attr picks the attribute (low
// two bits) and operator, kind the Go type its value is given as.
func keysFilter(attr, kind uint8, num float64, str string) AttrFilter {
	refs := []struct{ level, attr string }{
		{"City", "population"}, {"Store", "size"}, {"Store", "label"}, {"City", "name"},
	}
	r := refs[attr%4]
	f := AttrFilter{LevelRef: LevelRef{Dimension: "Store", Level: r.level}, Attr: r.attr,
		Op: FilterOp(1 + int(attr>>2)%6)}
	whole := num
	if math.IsNaN(whole) || math.IsInf(whole, 0) || math.Abs(whole) > 1e15 {
		whole = 0
	}
	switch kind % 6 {
	case 0:
		f.Value = num
	case 1:
		f.Value = int(whole)
	case 2:
		f.Value = float32(num)
	case 3:
		f.Value = int64(whole)
	case 4:
		f.Value = str
	case 5:
		f.Value = num > 0
	}
	return f
}

// FuzzArtifactKeys checks that the three fingerprint keys of the tables'
// artifact caches are semantically injective: equal
// AttrFilter.Fingerprint ⇒ identical predicate bitmaps, equal
// Query.FilterFingerprint ⇒ identical composed set masks, equal
// GroupFingerprint ⇒ identical key columns (FuzzViewKey holds the fourth,
// View.Key, to its contract). It also pins what the cache relies on to
// key artifacts by bare key: the compiled plan carries exactly those
// keys, and the four keyspaces are disjoint (predicate keys start with
// 'w', set keys with a length digit, grouping keys with 'g', view keys
// with 'v'). A collision would let the cache serve one filter's bitmap to
// another, or a view's mask to a filter.
func FuzzArtifactKeys(f *testing.F) {
	c := keysWarehouse(f)
	// int vs float64 of one number; -0 vs 0; NaN vs NaN; strings holding
	// the separators; a descriptor vs an attribute of the same value.
	f.Add(uint8(0), uint8(0), 100000.0, "", uint8(0), uint8(1), 100000.0, "", uint8(0))
	f.Add(uint8(4), uint8(0), math.Copysign(0, -1), "", uint8(4), uint8(0), 0.0, "", uint8(9))
	f.Add(uint8(8), uint8(0), math.NaN(), "", uint8(8), uint8(0), math.NaN(), "", uint8(18))
	f.Add(uint8(2), uint8(4), 0.0, "a|b", uint8(2), uint8(4), 0.0, "a:b", uint8(27))
	f.Add(uint8(6), uint8(4), 0.0, "w:1:a", uint8(22), uint8(4), 0.0, "1:a", uint8(33))
	f.Add(uint8(3), uint8(4), 0.0, "C1|1", uint8(2), uint8(4), 0.0, "C1|1", uint8(44))
	f.Add(uint8(1), uint8(3), 2.0, "", uint8(1), uint8(2), 2.0, "", uint8(255))
	f.Fuzz(func(t *testing.T, a1, k1 uint8, n1 float64, s1 string, a2, k2 uint8, n2 float64, s2 string, g uint8) {
		fa, fb := keysFilter(a1, k1, n1, s1), keysFilter(a2, k2, n2, s2)
		compile := func(q Query) *queryPlan {
			t.Helper()
			q.Fact = "Sales"
			q.Aggregates = []MeasureAgg{{Agg: AggCount}}
			p, err := c.compile(q)
			if err != nil {
				t.Fatalf("compile %+v: %v", q, err)
			}
			return p
		}

		// Predicate keys.
		pred := func(fl AttrFilter) *bitset.Set {
			p := compile(Query{Filters: []AttrFilter{fl}})
			if key := p.filters[0].key; key != fl.Fingerprint() || key[0] != 'w' {
				t.Fatalf("predicate key %q: want %q, starting with 'w'", key, fl.Fingerprint())
			}
			m := bitset.New(p.n)
			p.filters[0].materializePredicateMask(p.n, m)
			return m
		}
		if ma, mb := pred(fa), pred(fb); fa.Fingerprint() == fb.Fingerprint() && !ma.Equal(mb) {
			t.Fatalf("predicates %+v and %+v share key %q but not their bitmaps", fa, fb, fa.Fingerprint())
		}

		// Set keys: every pair of these sets sharing a key must share the
		// composed mask ({fa, fb} and {fb, fa} always do).
		sets := [][]AttrFilter{{fa}, {fb}, {fa, fb}, {fb, fa}, {fa, fa}}
		keys := make([]string, len(sets))
		masks := make([]*bitset.Set, len(sets))
		for i, fs := range sets {
			q := Query{Filters: fs}
			p := compile(q)
			keys[i] = p.filterKey
			if keys[i] != q.FilterFingerprint() || keys[i][0] < '0' || keys[i][0] > '9' {
				t.Fatalf("set key %q: want %q, starting with a digit", keys[i], q.FilterFingerprint())
			}
			masks[i] = bitset.New(p.n)
			p.fillFilterMask(p.n, masks[i], bitset.New(p.n), nil, nil)
		}
		for i := range sets {
			for j := i + 1; j < len(sets); j++ {
				if keys[i] == keys[j] && !masks[i].Equal(masks[j]) {
					t.Fatalf("sets %+v and %+v share key %q but not their masks", sets[i], sets[j], keys[i])
				}
			}
		}

		// Grouping keys over lists drawn from g: a pair, its reversal, and
		// each level alone.
		levels := []LevelRef{{"Store", "Store"}, {"Store", "City"}, {"Store", "State"},
			{"Time", "Day"}, {"Time", "Month"}}
		x, y := levels[int(g)%len(levels)], levels[int(g>>3)%len(levels)]
		lists := [][]LevelRef{{x, y}, {y, x}, {x}, {y}}
		gkeys := make([]string, len(lists))
		cols := make([][]int32, len(lists))
		for i, gl := range lists {
			q := Query{GroupBy: gl}
			p := compile(q)
			gkeys[i] = p.groupKey
			if gkeys[i] != q.GroupFingerprint() || gkeys[i][0] != 'g' {
				t.Fatalf("grouping key %q: want %q, starting with 'g'", gkeys[i], q.GroupFingerprint())
			}
			cols[i] = make([]int32, p.n)
			p.materializeGroupKeys(p.n, cols[i])
		}
		for i := range lists {
			for j := i + 1; j < len(lists); j++ {
				if gkeys[i] == gkeys[j] && !slices.Equal(cols[i], cols[j]) {
					t.Fatalf("groupings %v and %v share key %q but not their key columns", lists[i], lists[j], gkeys[i])
				}
			}
		}

		// View keys: a view selecting from g's levels lives in its own
		// keyspace, beside every key above.
		vb := NewView(c).Builder()
		for _, l := range []LevelRef{x, y} {
			if err := vb.SelectMember(l.Dimension, l.Level, int32(g)%2); err != nil {
				t.Fatal(err)
			}
		}
		vk := vb.View().Key()
		if vk[0] != 'v' || vk == fa.Fingerprint() || vk == fb.Fingerprint() ||
			slices.Contains(keys, vk) || slices.Contains(gkeys, vk) {
			t.Fatalf("view key %q: want 'v' first, apart from the fingerprint keyspaces", vk)
		}
	})
}

// viewOps applies a fuzzed selection program to a builder over an
// unrestricted view and to ref, the reference content it must reach: two
// bytes per step, a kind and an argument. Kinds select a member of one of
// keysWarehouse's five levels, select a fact, or build the view midway
// and go on with the same builder (6) or one taken from the built view
// (7). Returns the final view and the ones built midway.
func viewOps(t *testing.T, c *Cube, ops []byte, ref map[string]map[int]bool) (*View, []*View) {
	t.Helper()
	levels := []struct {
		dim, level string
		n          int32
	}{{"Store", "Store", 24}, {"Store", "City", 9}, {"Store", "State", 4}, {"Time", "Day", 6}, {"Time", "Month", 2}}
	add := func(key string, i int) {
		if ref[key] == nil {
			ref[key] = map[int]bool{}
		}
		ref[key][i] = true
	}
	b := NewView(c).Builder()
	var midway []*View
	for k := 0; k+1 < len(ops); k += 2 {
		kind, arg := ops[k]%8, ops[k+1]
		switch {
		case int(kind) < len(levels):
			l := levels[kind]
			m := int32(arg) % l.n
			if err := b.SelectMember(l.dim, l.level, m); err != nil {
				t.Fatal(err)
			}
			add(levelKey(l.dim, l.level), int(m))
		case kind == 5:
			if err := b.SelectFact("Sales", int32(arg)); err != nil {
				t.Fatal(err)
			}
			add("Sales", int(arg))
		default:
			v := b.View()
			midway = append(midway, v)
			if kind == 7 {
				b = v.Builder()
			}
		}
	}
	return b.View(), midway
}

// FuzzViewKey holds View.Key to its contract: two views reach equal
// canonical bytes exactly when they hold equal content — the same members
// selected per level, the same facts directly selected — whatever order,
// repetition or midway builds got them there; equal content gives equal
// keys, a key starts with the view keyspace's 'v', and a view built
// midway keeps its content and key under its successors' selections. The
// seeds mirror FuzzQueryFingerprint's pairs of one base and one variant:
// reorderings, re-selections and midway builds (equal), member sets
// whose indices print alike, and a level's bits on another level, another
// dimension or the fact table (different).
func FuzzViewKey(f *testing.F) {
	c := keysWarehouse(f)
	for _, seed := range [][2]string{
		{"\x01\x03\x00\x05", "\x00\x05\x01\x03"},                 // order
		{"\x01\x03\x01\x03\x01\x0c", "\x01\x03"},                 // re-selection (12 % 9 = 3)
		{"\x01\x03\x07\x00\x00\x02", "\x00\x02\x01\x03"},         // built midway
		{"\x00\x01\x00\x0c", "\x00\x0b\x00\x02"},                 // members {1, 12} and {11, 2} print alike
		{"\x01\x02", "\x02\x02"},                                 // same bits, other level
		{"\x01\x02", "\x03\x02"},                                 // same bits, other dimension
		{"\x05\x07", "\x00\x07"},                                 // same bits, a level instead of the facts
		{"\x05\x07\x05\x09", "\x05\x09\x06\x00\x05\x07"},         // facts across a midway build, one builder
		{"", "\x07\x00"},                                         // empty vs built midway
		{"\x04\x00\x04\x01", "\x04\x01\x07\x00\x04\x00\x04\x00"}, // a full level stays a selection
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, ops1, ops2 []byte) {
		refA, refB := map[string]map[int]bool{}, map[string]map[int]bool{}
		a, midA := viewOps(t, c, ops1, refA)
		b, midB := viewOps(t, c, ops2, refB)
		same := reflect.DeepEqual(refA, refB)
		if same != bytes.Equal(a.appendContent(nil), b.appendContent(nil)) {
			t.Fatalf("content equal %v, canonical bytes equal %v:\n%v\n%v", same, !same, refA, refB)
		}
		ka, kb := a.Key(), b.Key()
		if same != (ka == kb) || ka[0] != 'v' {
			t.Fatalf("content equal %v: keys %x and %x", same, ka, kb)
		}
		for _, v := range append(midA, midB...) {
			if v.contentKey() != v.Key() {
				t.Fatal("a later selection reached a view built midway")
			}
		}
	})
}

// TestSelectionsAfterGrowth pins that a selection made after its level or
// fact table grew past an earlier selection's capacity extends that
// selection instead of indexing past it, that the view shows it, and that
// a selection's capacity is not part of the view's content.
func TestSelectionsAfterGrowth(t *testing.T) {
	c := keysWarehouse(t)
	b := NewView(c).Builder()
	if err := b.SelectFact("Sales", 0); err != nil {
		t.Fatal(err)
	}
	if err := b.SelectMember("Store", "State", 0); err != nil {
		t.Fatal(err)
	}
	early := NewView(c).Builder()
	if err := early.SelectMember("Store", "State", 0); err != nil {
		t.Fatal(err)
	}
	earlyKey := early.View().Key()
	for i := 0; i < 70; i++ {
		if err := c.AddFact("Sales", map[string]int32{"Store": 0, "Time": 0}, nil); err != nil {
			t.Fatal(err)
		}
	}
	var state int32
	for i := 0; i < 70; i++ { // past the selection's first word
		var err error
		if state, err = c.AddMember("Store", "State", fmt.Sprintf("S-late%d", i), NoParent); err != nil {
			t.Fatal(err)
		}
	}
	// A selection made over the grown level has more words, but the same
	// content as one made before, so the same key.
	fresh := NewView(c).Builder()
	if err := fresh.SelectMember("Store", "State", 0); err != nil {
		t.Fatal(err)
	}
	if fresh.View().Key() != earlyKey {
		t.Fatal("equal level selections of different capacities have different keys")
	}
	before := b.View().Key()
	if err := b.SelectFact("Sales", 360); err != nil {
		t.Fatal(err)
	}
	if err := b.SelectMember("Store", "State", state); err != nil {
		t.Fatal(err)
	}
	v := b.View()
	if v.Key() == before || !v.FactMask("Sales").Test(0) || !v.FactMask("Sales").Test(360) ||
		!v.LevelMask("Store", "State").Test(int(state)) {
		t.Fatal("selections past the grown capacity were lost")
	}
}

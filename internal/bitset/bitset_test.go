package bitset

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	if s.Any() {
		t.Fatal("new set should be empty")
	}
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
}

func TestSetTestClear(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 129} {
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if s.Count() != 6 {
		t.Fatalf("Count = %d, want 6", s.Count())
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if s.Test(2) {
		t.Fatal("bit 2 should be clear")
	}
}

func TestFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 200} {
		s := Full(n)
		if got := s.Count(); got != n {
			t.Errorf("Full(%d).Count() = %d", n, got)
		}
	}
}

func TestNilUniverseSemantics(t *testing.T) {
	var s *Set
	if !s.Test(5) {
		t.Error("nil set must Test true for non-negative index")
	}
	if s.Test(-1) {
		t.Error("nil set must Test false for negative index")
	}
	if s.Clone() != nil {
		t.Error("Clone of nil must be nil")
	}
	if s.String() != "{universe}" {
		t.Errorf("String = %q", s.String())
	}
	// IntersectWith(nil) is a no-op.
	a := FromIndices(10, []int{1, 2, 3})
	a.IntersectWith(nil)
	if a.Count() != 3 {
		t.Error("IntersectWith(nil) changed the set")
	}
}

func TestSetOps(t *testing.T) {
	a := FromIndices(200, []int{1, 100, 150})
	b := FromIndices(200, []int{100, 199})

	u := a.Clone()
	u.UnionWith(b)
	if got := u.Indices(); len(got) != 4 {
		t.Fatalf("union = %v", got)
	}

	i := a.Clone()
	i.IntersectWith(b)
	if got := i.Indices(); len(got) != 1 || got[0] != 100 {
		t.Fatalf("intersection = %v", got)
	}

	d := a.Clone()
	d.DifferenceWith(b)
	if got := d.Indices(); len(got) != 2 || got[0] != 1 || got[1] != 150 {
		t.Fatalf("difference = %v", got)
	}
}

func TestForEachOrderAndStop(t *testing.T) {
	s := FromIndices(300, []int{7, 64, 65, 256})
	var got []int
	s.ForEach(func(i int) bool { got = append(got, i); return true })
	want := []int{7, 64, 65, 256}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	var first []int
	s.ForEach(func(i int) bool { first = append(first, i); return false })
	if len(first) != 1 || first[0] != 7 {
		t.Fatalf("early stop got %v", first)
	}
}

func TestEqual(t *testing.T) {
	a := FromIndices(64, []int{3})
	b := FromIndices(64, []int{3})
	c := FromIndices(65, []int{3})
	if !a.Equal(b) {
		t.Error("equal sets reported unequal")
	}
	if a.Equal(c) {
		t.Error("different capacity reported equal")
	}
	var n1, n2 *Set
	if !n1.Equal(n2) {
		t.Error("nil == nil expected")
	}
	if a.Equal(nil) {
		t.Error("set == nil unexpected")
	}
}

func TestPanics(t *testing.T) {
	s := New(10)
	mustPanic(t, "negative New", func() { New(-1) })
	mustPanic(t, "Set out of range", func() { s.Set(10) })
	mustPanic(t, "Clear negative", func() { s.Clear(-1) })
	mustPanic(t, "nil write", func() { var n *Set; n.Set(0) })
	mustPanic(t, "capacity mismatch", func() { s.UnionWith(New(11)) })
	mustPanic(t, "nil operand", func() { s.UnionWith(nil) })
}

// Property: for random index sets, Count == len(unique indices) and
// Indices round-trips through FromIndices.
func TestQuickFromIndicesRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 1 << 16
		seen := map[int]bool{}
		idx := make([]int, 0, len(raw))
		for _, r := range raw {
			i := int(r)
			if !seen[i] {
				seen[i] = true
				idx = append(idx, i)
			}
		}
		s := FromIndices(n, idx)
		if s.Count() != len(idx) {
			return false
		}
		back := s.Indices()
		s2 := FromIndices(n, back)
		return s.Equal(s2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan-ish — difference is intersection with complement.
func TestQuickDifferenceLaw(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		const n = 256
		a := New(n)
		b := New(n)
		for _, x := range xs {
			a.Set(int(x))
		}
		for _, y := range ys {
			b.Set(int(y))
		}
		d := a.Clone()
		d.DifferenceWith(b)
		// complement of b
		nb := Full(n)
		nb.DifferenceWith(b)
		i := a.Clone()
		i.IntersectWith(nb)
		return d.Equal(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCount(b *testing.B) {
	s := Full(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Count()
	}
}

func BenchmarkForEachSparse(b *testing.B) {
	s := New(1 << 20)
	for i := 0; i < 1<<20; i += 1024 {
		s.Set(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := 0
		s.ForEach(func(int) bool { c++; return true })
	}
}

func TestStringRendering(t *testing.T) {
	if got := FromIndices(10, []int{1, 5}).String(); got != "{1, 5}" {
		t.Errorf("String = %q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
	// More than 16 bits truncate with an ellipsis.
	big := Full(64)
	s := big.String()
	if len(s) == 0 || s[len(s)-1] != '}' {
		t.Errorf("String shape: %q", s)
	}
	found := false
	for _, r := range s {
		if r == '…' {
			found = true
		}
	}
	if !found {
		t.Errorf("expected ellipsis in %q", s)
	}
}

func TestForEachRange(t *testing.T) {
	s := New(200)
	bits := []int{0, 1, 63, 64, 65, 127, 128, 190, 199}
	for _, b := range bits {
		s.Set(b)
	}
	collect := func(lo, hi int) []int {
		var out []int
		s.ForEachRange(lo, hi, func(i int) bool {
			out = append(out, i)
			return true
		})
		return out
	}
	want := func(lo, hi int) []int {
		var out []int
		for _, b := range bits {
			if b >= lo && b < hi {
				out = append(out, b)
			}
		}
		return out
	}
	// Ranges chosen to hit word boundaries, partial first/last words,
	// single-word ranges, empty ranges and clamping.
	ranges := [][2]int{
		{0, 200}, {0, 64}, {64, 128}, {1, 64}, {63, 65}, {65, 127},
		{128, 128}, {130, 129}, {-5, 10}, {190, 1000}, {199, 200}, {0, 1},
	}
	for _, r := range ranges {
		got, exp := collect(r[0], r[1]), want(r[0], r[1])
		if fmt.Sprint(got) != fmt.Sprint(exp) {
			t.Errorf("ForEachRange(%d, %d) = %v, want %v", r[0], r[1], got, exp)
		}
	}
	// Early stop.
	var seen []int
	s.ForEachRange(0, 200, func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 3
	})
	if len(seen) != 3 {
		t.Errorf("early stop visited %v", seen)
	}
	// Nil receiver iterates nothing.
	var nilSet *Set
	nilSet.ForEachRange(0, 10, func(int) bool { t.Error("nil set visited"); return true })

	// Full-range ForEachRange agrees with ForEach.
	var all []int
	s.ForEach(func(i int) bool { all = append(all, i); return true })
	if fmt.Sprint(collect(0, s.Len())) != fmt.Sprint(all) {
		t.Errorf("full range %v != ForEach %v", collect(0, s.Len()), all)
	}
}

// TestCountRange checks the popcount-in-range used by the staged batch
// executor for scan statistics: it must agree with ForEachRange on every
// boundary shape, clamp out-of-range bounds, and count nil as 0.
func TestCountRange(t *testing.T) {
	s := New(200)
	for _, b := range []int{0, 1, 63, 64, 65, 127, 128, 190, 199} {
		s.Set(b)
	}
	ranges := [][2]int{
		{0, 200}, {0, 64}, {64, 128}, {1, 64}, {63, 65}, {65, 127},
		{128, 128}, {130, 129}, {-5, 10}, {190, 1000}, {199, 200}, {0, 1},
		{62, 66}, {120, 135},
	}
	for _, r := range ranges {
		want := 0
		s.ForEachRange(r[0], r[1], func(int) bool { want++; return true })
		if got := s.CountRange(r[0], r[1]); got != want {
			t.Errorf("CountRange(%d, %d) = %d, want %d", r[0], r[1], got, want)
		}
	}
	if got := s.CountRange(0, s.Len()); got != s.Count() {
		t.Errorf("full CountRange = %d, want Count %d", got, s.Count())
	}
	if New(100).CountRange(0, 100) != 0 {
		t.Error("empty set counted bits")
	}
	var nilSet *Set
	if nilSet.CountRange(0, 10) != 0 {
		t.Error("nil CountRange != 0")
	}
	empty := New(0)
	if empty.CountRange(0, 10) != 0 {
		t.Error("zero-capacity CountRange != 0")
	}
}

// TestReset checks the pooled-buffer reset: all bits clear, capacity
// kept, nil write panics.
func TestReset(t *testing.T) {
	s := FromIndices(130, []int{0, 63, 64, 129})
	s.Reset()
	if s.Any() || s.Len() != 130 {
		t.Errorf("after Reset: any=%v len=%d", s.Any(), s.Len())
	}
	s.Set(5) // still writable at full capacity
	if !s.Test(5) {
		t.Error("set after Reset lost")
	}
	defer func() {
		if recover() == nil {
			t.Error("nil Reset did not panic")
		}
	}()
	var nilSet *Set
	nilSet.Reset()
}

// TestIntersectWithEdgeCases covers the mask combination the staged
// executor builds per query (filter bitmap ∩ view mask): empty operands,
// set bits straddling word boundaries, nil-as-universe, and disjoint sets.
func TestIntersectWithEdgeCases(t *testing.T) {
	// Bits straddling the 64-bit word boundary on both sides.
	a := FromIndices(130, []int{62, 63, 64, 65, 127, 128})
	b := FromIndices(130, []int{63, 64, 128, 129})
	a.IntersectWith(b)
	if got, want := fmt.Sprint(a.Indices()), fmt.Sprint([]int{63, 64, 128}); got != want {
		t.Errorf("straddle intersection = %s, want %s", got, want)
	}

	// Intersecting with an empty set clears everything.
	c := Full(100)
	c.IntersectWith(New(100))
	if c.Any() {
		t.Errorf("intersection with empty set left bits: %v", c.Indices())
	}

	// An empty receiver stays empty.
	d := New(100)
	d.IntersectWith(Full(100))
	if d.Any() {
		t.Error("empty receiver gained bits")
	}

	// nil operand is the universe: no change.
	e := FromIndices(100, []int{0, 64, 99})
	e.IntersectWith(nil)
	if got, want := fmt.Sprint(e.Indices()), fmt.Sprint([]int{0, 64, 99}); got != want {
		t.Errorf("universe intersection changed set: %s, want %s", got, want)
	}

	// Disjoint sets intersect to empty.
	f := FromIndices(130, []int{0, 64})
	f.IntersectWith(FromIndices(130, []int{1, 65, 129}))
	if f.Any() {
		t.Errorf("disjoint intersection nonempty: %v", f.Indices())
	}

	// ForEachRange over an empty set visits nothing on any bounds.
	New(130).ForEachRange(0, 130, func(int) bool {
		t.Error("empty set visited a bit")
		return true
	})
}

func TestIndicesNil(t *testing.T) {
	var s *Set
	if s.Indices() != nil {
		t.Error("nil Indices should be nil")
	}
	if s.Len() != 0 || s.Count() != 0 || s.Any() {
		t.Error("nil set stats")
	}
}

func TestAndInto(t *testing.T) {
	a := FromIndices(130, []int{0, 5, 64, 65, 129})
	b := FromIndices(130, []int{5, 64, 100, 129})
	dst := FromIndices(130, []int{1, 2, 3}) // prior contents must be overwritten
	dst.AndInto(a, b)
	if got, want := fmt.Sprint(dst.Indices()), fmt.Sprint([]int{5, 64, 129}); got != want {
		t.Errorf("AndInto = %s, want %s", got, want)
	}

	// nil operands are the universe.
	dst.AndInto(a, nil)
	if !dst.Equal(a) {
		t.Errorf("AndInto(a, universe) = %v, want a", dst.Indices())
	}
	dst.AndInto(nil, b)
	if !dst.Equal(b) {
		t.Errorf("AndInto(universe, b) = %v, want b", dst.Indices())
	}
	dst.AndInto(nil, nil)
	if !dst.Equal(Full(130)) {
		t.Errorf("AndInto(universe, universe) = %v, want full", dst.Indices())
	}

	// Aliasing: the destination may be one of the operands (in-place
	// narrowing), including both (self-intersection is the identity).
	m := a.Clone()
	m.AndInto(m, b)
	want := a.Clone()
	want.IntersectWith(b)
	if !m.Equal(want) {
		t.Errorf("aliased AndInto = %v, want %v", m.Indices(), want.Indices())
	}
	m = a.Clone()
	m.AndInto(m, m)
	if !m.Equal(a) {
		t.Errorf("self AndInto changed the set: %v", m.Indices())
	}

	// Capacity mismatch and nil receiver panic like the other writes.
	mustPanic(t, "AndInto mismatch", func() { New(10).AndInto(New(11), nil) })
	mustPanic(t, "AndInto nil receiver", func() {
		var s *Set
		s.AndInto(New(1), New(1))
	})
}

func TestIntersectAll(t *testing.T) {
	a := FromIndices(200, []int{0, 3, 64, 128, 199})
	b := FromIndices(200, []int{3, 64, 70, 199})
	c := FromIndices(200, []int{3, 64, 199})

	dst := FromIndices(200, []int{7}) // prior contents must be overwritten
	dst.IntersectAll([]*Set{a, b, c})
	if got, want := fmt.Sprint(dst.Indices()), fmt.Sprint([]int{3, 64, 199}); got != want {
		t.Errorf("IntersectAll = %s, want %s", got, want)
	}

	// Empty (and all-nil) operand lists yield the full set — the identity
	// of intersection, clipped to capacity (tail bits stay clear).
	dst.IntersectAll(nil)
	if !dst.Equal(Full(200)) {
		t.Errorf("IntersectAll(nil) = %d bits, want full", dst.Count())
	}
	dst.IntersectAll([]*Set{nil, nil})
	if !dst.Equal(Full(200)) {
		t.Errorf("IntersectAll(universes) = %d bits, want full", dst.Count())
	}
	odd := New(67) // capacity not word-aligned: trailing word must be trimmed
	odd.IntersectAll(nil)
	if odd.Count() != 67 || odd.Test(67) {
		t.Errorf("IntersectAll identity leaked past capacity: count %d", odd.Count())
	}

	// nil entries are skipped as universes.
	dst.IntersectAll([]*Set{a, nil, c})
	want := a.Clone()
	want.IntersectWith(c)
	if !dst.Equal(want) {
		t.Errorf("IntersectAll with universe entry = %v, want %v", dst.Indices(), want.Indices())
	}

	// Self-intersection: the destination may appear among the operands.
	m := a.Clone()
	m.IntersectAll([]*Set{b, m, c})
	dst.IntersectAll([]*Set{a, b, c})
	if !m.Equal(dst) {
		t.Errorf("aliased IntersectAll = %v, want %v", m.Indices(), dst.Indices())
	}

	// A single operand copies it; an empty operand empties the result.
	dst.IntersectAll([]*Set{c})
	if !dst.Equal(c) {
		t.Errorf("single-operand IntersectAll = %v, want %v", dst.Indices(), c.Indices())
	}
	dst.IntersectAll([]*Set{a, New(200)})
	if dst.Any() {
		t.Errorf("intersection with empty set nonempty: %v", dst.Indices())
	}

	mustPanic(t, "IntersectAll mismatch", func() { New(10).IntersectAll([]*Set{New(11)}) })
	mustPanic(t, "IntersectAll nil receiver", func() {
		var s *Set
		s.IntersectAll(nil)
	})
}

// mustPanic asserts fn panics.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

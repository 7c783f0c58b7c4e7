package cube

import "sync/atomic"

// derived publishes a value computed from one member or layer table — its
// point index, its map feature text. Readers load it without a lock; a
// value built at an older table generation is stale and rebuilt on next
// use. Two readers may both build a missing value: they build it from the
// same table state, and the later store wins. Table mutations belong to
// loading and must not race readers (the discipline NewFactShard
// documents), except SetMemberGeometry's replacement of one member's
// geometry: it bumps the generation after its write, so a value built
// from the old geometry is stored at the old generation.
type derived[T any] struct{ p atomic.Pointer[derivedAt[T]] }

type derivedAt[T any] struct {
	gen uint64
	v   T
}

// get returns the value for the table's current generation, building it
// with build when absent or stale.
func (d *derived[T]) get(gen *atomic.Uint64, build func() T) T {
	g := gen.Load()
	if at := d.p.Load(); at != nil && at.gen == g {
		return at.v
	}
	v := build()
	d.p.Store(&derivedAt[T]{gen: g, v: v})
	return v
}

// TextSlab holds text derived per object of a member or layer table in
// one immutable buffer. Package export keeps each object's GeoJSON feature
// text in one, so a map export copies bytes instead of encoding them.
type TextSlab struct {
	buf  []byte
	ends []int // object i's text is buf[ends[i-1]:ends[i]]
}

// Text returns object i's text: empty when the deriver appended none.
func (t *TextSlab) Text(i int32) []byte {
	start := 0
	if i > 0 {
		start = t.ends[i-1]
	}
	return t.buf[start:t.ends[i]:t.ends[i]]
}

func newTextSlab(n int, appendText func(dst []byte, i int32) []byte) *TextSlab {
	t := &TextSlab{ends: make([]int, n)}
	for i := range n {
		t.buf = appendText(t.buf, int32(i))
		t.ends[i] = len(t.buf)
	}
	// Drop append's growth slack: the slab lives as long as the table.
	t.buf = append(make([]byte, 0, len(t.buf)), t.buf...)
	return t
}

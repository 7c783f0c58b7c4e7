// Package bitset provides a dense, fixed-capacity bit set used to represent
// personalized selections over cube members and fact instances.
//
// A nil *Set is a valid "universe" value meaning "everything selected"; all
// read operations treat nil as the full set of the relevant capacity. Write
// operations require a non-nil set.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bit set. The zero value is an empty set of
// capacity 0; use New to create a set with room for n bits.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for bits [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Full returns a set of capacity n with every bit set.
func Full(n int) *Set {
	s := New(n)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
	return s
}

// FromIndices returns a set of capacity n with exactly the given bits set.
// Indices out of range panic.
func FromIndices(n int, idx []int) *Set {
	s := New(n)
	for _, i := range idx {
		s.Set(i)
	}
	return s
}

// Len returns the capacity of the set in bits.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Set sets bit i. It panics if i is out of range.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i. It panics if i is out of range.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is set. A nil set reports true for every
// in-range index (nil means "universe"). Out-of-range indices report false.
func (s *Set) Test(i int) bool {
	if s == nil {
		return i >= 0
	}
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits. A nil set has count 0 (callers that
// treat nil as universe must special-case it before asking for a count).
func (s *Set) Count() int {
	if s == nil {
		return 0
	}
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountRange returns the number of set bits i with lo <= i < hi. The
// bounds are clamped to the set's capacity; a nil set counts 0 (callers
// that treat nil as universe must special-case it, as with Count).
func (s *Set) CountRange(lo, hi int) int {
	if s == nil {
		return 0
	}
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	if lo >= hi {
		return 0
	}
	loW, hiW := lo/wordBits, (hi-1)/wordBits
	c := 0
	for wi := loW; wi <= hiW; wi++ {
		w := s.words[wi]
		if wi == loW {
			w &= ^uint64(0) << (uint(lo) % wordBits)
		}
		if wi == hiW {
			if rem := uint(hi) % wordBits; rem != 0 {
				w &= 1<<rem - 1
			}
		}
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (s *Set) Any() bool {
	if s == nil {
		return false
	}
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// UnionWith sets s = s ∪ o. The sets must have equal capacity.
func (s *Set) UnionWith(o *Set) {
	s.sameCap(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// IntersectWith sets s = s ∩ o. The sets must have equal capacity.
// A nil o is the universe, so intersection leaves s unchanged.
func (s *Set) IntersectWith(o *Set) {
	if o == nil {
		return
	}
	s.sameCap(o)
	for i, w := range o.words {
		s.words[i] &= w
	}
}

// AndInto sets s = a ∩ b in one pass, overwriting s's previous contents.
// A nil operand is the universe (s then copies the other operand; two nil
// operands make s full). All non-nil sets must share s's capacity, and s
// may alias a or b (each word is read before it is written), so
// m.AndInto(m, v) narrows m by v in place.
func (s *Set) AndInto(a, b *Set) {
	if s == nil {
		panic("bitset: write to nil set")
	}
	if a == nil {
		a, b = b, nil
	}
	if a == nil {
		for i := range s.words {
			s.words[i] = ^uint64(0)
		}
		s.trim()
		return
	}
	s.sameCap(a)
	if b == nil {
		copy(s.words, a.words)
		return
	}
	s.sameCap(b)
	for i := range s.words {
		s.words[i] = a.words[i] & b.words[i]
	}
}

// IntersectAll sets s to the multi-way intersection of sets, overwriting
// s's previous contents — the AND-composition primitive of the per-filter
// batch executor (one word-parallel pass composes a query's filter mask
// from its predicate bitmaps). nil entries are the universe and an empty
// (or all-nil) list yields the full set of s's capacity, the identity of
// intersection. Non-nil entries must share s's capacity; s may appear in
// sets (every word of every operand is read before s's word is written).
func (s *Set) IntersectAll(sets []*Set) {
	if s == nil {
		panic("bitset: write to nil set")
	}
	for _, o := range sets {
		if o != nil {
			s.sameCap(o)
		}
	}
	for wi := range s.words {
		w := ^uint64(0)
		for _, o := range sets {
			if o != nil {
				w &= o.words[wi]
			}
		}
		s.words[wi] = w
	}
	s.trim()
}

// DifferenceWith sets s = s \ o. The sets must have equal capacity.
func (s *Set) DifferenceWith(o *Set) {
	s.sameCap(o)
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// Reset clears every bit, keeping the capacity. Supports buffer reuse
// (e.g. pooled scan artifacts); a nil receiver panics like other writes.
func (s *Set) Reset() {
	if s == nil {
		panic("bitset: write to nil set")
	}
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy. Cloning nil returns nil (universe).
func (s *Set) Clone() *Set {
	if s == nil {
		return nil
	}
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Equal reports whether the two sets have the same capacity and contents.
func (s *Set) Equal(o *Set) bool {
	if s == nil || o == nil {
		return s == nil && o == nil
	}
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for each set bit in ascending order until fn returns
// false. A nil receiver iterates nothing.
func (s *Set) ForEach(fn func(i int) bool) {
	if s == nil {
		return
	}
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// ForEachRange calls fn for each set bit i with lo <= i < hi in ascending
// order until fn returns false. The bounds are clamped to the set's
// capacity; a nil receiver iterates nothing.
func (s *Set) ForEachRange(lo, hi int, fn func(i int) bool) {
	if s == nil {
		return
	}
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	if lo >= hi {
		return
	}
	loW, hiW := lo/wordBits, (hi-1)/wordBits
	for wi := loW; wi <= hiW; wi++ {
		w := s.words[wi]
		if wi == loW {
			w &= ^uint64(0) << (uint(lo) % wordBits)
		}
		if wi == hiW {
			if rem := uint(hi) % wordBits; rem != 0 {
				w &= 1<<rem - 1
			}
		}
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Indices returns the set bits in ascending order.
func (s *Set) Indices() []int {
	if s == nil {
		return nil
	}
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// Words exposes the set's backing words, least-significant bit first (bit i
// of the set is bit i%64 of word i/64). The packed-column predicate kernels
// of internal/cube write filter results straight into these words, one
// 64-fact word at a time. len(Words()) == ceil(Len()/64); bits at or past
// Len() in the last word are zero and writers must keep them zero (the
// Count/iteration primitives rely on the trimmed tail).
func (s *Set) Words() []uint64 {
	if s == nil {
		return nil
	}
	return s.words
}

// String renders the set as "{1, 5, 9}" capped at 16 elements for logging.
func (s *Set) String() string {
	if s == nil {
		return "{universe}"
	}
	var b strings.Builder
	b.WriteByte('{')
	shown := 0
	s.ForEach(func(i int) bool {
		if shown > 0 {
			b.WriteString(", ")
		}
		if shown == 16 {
			b.WriteString("…")
			return false
		}
		fmt.Fprintf(&b, "%d", i)
		shown++
		return true
	})
	b.WriteByte('}')
	return b.String()
}

func (s *Set) check(i int) {
	if s == nil {
		panic("bitset: write to nil set")
	}
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

func (s *Set) sameCap(o *Set) {
	if o == nil {
		panic("bitset: nil operand")
	}
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d != %d", s.n, o.n))
	}
}

// trim clears bits beyond capacity in the last word.
func (s *Set) trim() {
	if rem := s.n % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

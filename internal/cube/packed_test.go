package cube

import (
	"math/rand"
	"testing"

	"sdwp/internal/bitset"
)

// Unit and fuzz coverage for the compressed column layer in isolation:
// pack/unpack round-trips across widths, the width-overflow repack, the
// tail word, and bit-identity of the word-at-a-time predicate kernels
// against the scalar per-code test. The executor-level equivalence (full
// queries, packed vs unpacked oracle) lives in exec_equiv_test.go.

func TestPackedColumnWidthOne(t *testing.T) {
	var pc packedColumn
	want := make([]int32, 0, 130)
	for i := 0; i < 130; i++ {
		c := int32(i % 2)
		pc.append(c)
		want = append(want, c)
	}
	if pc.width != 1 {
		t.Fatalf("width = %d, want 1 for codes {0,1}", pc.width)
	}
	if len(pc.words) != 3 {
		t.Fatalf("len(words) = %d, want 3 for 130 one-bit codes", len(pc.words))
	}
	for i, w := range want {
		if got := pc.get(i); got != w {
			t.Fatalf("get(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestPackedColumnRepackOnOverflow(t *testing.T) {
	var pc packedColumn
	for i := 0; i < 100; i++ {
		pc.append(int32(i % 2))
	}
	if pc.width != 1 {
		t.Fatalf("pre-overflow width = %d, want 1", pc.width)
	}
	// Snapshot before the overflow: the view must keep reading the old
	// prefix even after the live column repacks (repack allocates fresh).
	pv := pc.view()
	oldWords := pc.words

	pc.append(1000) // needs 10 bits -> repack
	if pc.width != 10 {
		t.Fatalf("post-overflow width = %d, want 10", pc.width)
	}
	if &pc.words[0] == &oldWords[0] {
		t.Fatalf("repack reused the old word array; snapshots would see torn codes")
	}
	for i := 0; i < 100; i++ {
		want := int32(i % 2)
		if got := pc.get(i); got != want {
			t.Fatalf("after repack: get(%d) = %d, want %d", i, got, want)
		}
		if got := pv.get(i); got != want {
			t.Fatalf("stale view: get(%d) = %d, want %d", i, got, want)
		}
	}
	if got := pc.get(100); got != 1000 {
		t.Fatalf("get(100) = %d, want 1000", got)
	}
	// A second oversized code must not repack again (grow-only width).
	pc.append(1023)
	if pc.width != 10 {
		t.Fatalf("width grew to %d on a code that already fit", pc.width)
	}
}

func TestPackedColumnTailWord(t *testing.T) {
	// width 3 -> 21 codes per word with one remainder bit; 25 codes leave
	// a partially filled tail word whose unused bits must stay zero (the
	// SWAR kernels rely on zeroed remainder lanes).
	var pc packedColumn
	want := make([]int32, 0, 25)
	for i := 0; i < 25; i++ {
		c := int32((i * 3) % 8)
		if c < 4 {
			c += 4 // force width 3 from the first append
		}
		pc.append(c)
		want = append(want, c)
	}
	if pc.width != 3 {
		t.Fatalf("width = %d, want 3", pc.width)
	}
	if len(pc.words) != 2 {
		t.Fatalf("len(words) = %d, want 2 for 25 three-bit codes", len(pc.words))
	}
	for i, w := range want {
		if got := pc.get(i); got != w {
			t.Fatalf("get(%d) = %d, want %d", i, got, w)
		}
	}
	k := 25 - 21 // codes in the tail word
	if extra := pc.words[1] >> (uint(k) * 3); extra != 0 {
		t.Fatalf("tail word has non-zero bits past the last code: %#x", extra)
	}
}

// fillOracle is the scalar reference: test every code in [lo, hi).
func fillOracle(pv packedView, cs *codeSet, lo, hi int, out *bitset.Set) {
	for i := lo; i < hi; i++ {
		if cs.test(pv.get(i)) {
			out.Set(i)
		}
	}
}

func checkFillMask(t *testing.T, pv packedView, cs *codeSet, lo, hi int, label string) {
	t.Helper()
	got := bitset.New(pv.n)
	want := bitset.New(pv.n)
	pv.fillMask(cs, lo, hi, got)
	fillOracle(pv, cs, lo, hi, want)
	if !got.Equal(want) {
		t.Fatalf("%s: fillMask [%d,%d) diverges from scalar oracle: got %v want %v",
			label, lo, hi, got, want)
	}
	// The kernel must not touch bits outside [lo, hi) — the raceless
	// word-aligned chunk contract of the parallel fill phases.
	for _, i := range got.Indices() {
		if i < lo || i >= hi {
			t.Fatalf("%s: fillMask [%d,%d) set out-of-range bit %d", label, lo, hi, i)
		}
	}
}

func TestFillMaskMatchesScalarAcrossWidthsAndKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, width := range []uint{1, 2, 3, 5, 7, 8, 12, 16} {
		card := 1 << width
		if card > 4096 {
			card = 4096
		}
		var pc packedColumn
		n := 777 // deliberately not word-, lane- or chunk-aligned
		for i := 0; i < n; i++ {
			pc.append(int32(rng.Intn(card)))
		}
		// Force the intended width even when the random draw stayed low.
		if pc.width < width {
			pc.repack(width)
		}
		pv := pc.view()
		sets := map[string]*codeSet{
			"empty":    newCodeSet(card, func(int32) bool { return false }),
			"all":      newCodeSet(card, func(int32) bool { return true }),
			"rangeLow": newCodeSet(card, func(c int32) bool { return c < int32(card/2) }),
			"rangeHi":  newCodeSet(card, func(c int32) bool { return c >= int32(card/3) }),
			"rangeMid": newCodeSet(card, func(c int32) bool { return c >= int32(card/4) && c < int32(3*card/4) }),
			"sparse":   newCodeSet(card, func(c int32) bool { return c%3 == 1 }),
			"single":   newCodeSet(card, func(c int32) bool { return c == int32(card/2) }),
			// Sets compiled over more members than the column holds codes
			// for: a column's width follows the largest key appended so
			// far, not the dimension's cardinality.
			"wideAbove":    newCodeSet(3*card, func(c int32) bool { return c > int32(card) }),
			"wideStraddle": newCodeSet(3*card, func(c int32) bool { return c >= int32(card/2) && c < int32(3*card-1) }),
			"wideLow":      newCodeSet(3*card, func(c int32) bool { return c < int32(3*card-1) }),
		}
		wantKinds := map[string]int{"empty": csEmpty, "all": csAll,
			"rangeLow": csRange, "rangeHi": csRange, "rangeMid": csRange,
			"wideAbove": csRange, "wideStraddle": csRange, "wideLow": csRange}
		for name, wantKind := range wantKinds {
			if card == 2 && (name == "rangeLow" || name == "rangeHi") {
				continue // degenerates to all/empty/single at two codes
			}
			if got := sets[name].kind; got != wantKind {
				t.Fatalf("width %d: codeSet %q classified %d, want %d", width, name, got, wantKind)
			}
		}
		for name, cs := range sets {
			label := name
			checkFillMask(t, pv, cs, 0, n, label)
			checkFillMask(t, pv, cs, 0, 0, label)
			for trial := 0; trial < 8; trial++ {
				lo := rng.Intn(n)
				hi := lo + rng.Intn(n-lo)
				checkFillMask(t, pv, cs, lo, hi, label)
			}
			// 64-aligned bounds — the shape the parallel fill actually uses.
			checkFillMask(t, pv, cs, 64, 704, label)
		}
	}
}

// FuzzPackedColumn round-trips arbitrary code sequences through the
// packed column (appends drive width growth and repacks) and checks the
// predicate kernel against the scalar oracle on the resulting data.
func FuzzPackedColumn(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 255, 0, 7})
	f.Add([]byte{1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var pc packedColumn
		want := make([]int32, 0, len(data))
		for i, b := range data {
			c := int32(b)
			if i%7 == 6 {
				c = c * 37 % 1021 // occasionally exceed a byte's width range
			}
			pc.append(c)
			want = append(want, c)
		}
		if pc.n != len(want) {
			t.Fatalf("n = %d, want %d", pc.n, len(want))
		}
		for i, w := range want {
			if got := pc.get(i); got != w {
				t.Fatalf("get(%d) = %d, want %d (width %d)", i, got, w, pc.width)
			}
		}
		// Remainder bits of every word must be zero (kernel invariant).
		k := int(64 / pc.width)
		if rem := uint(64) - uint(k)*pc.width; rem != 0 {
			for wi, w := range pc.words {
				if w>>(uint(k)*pc.width) != 0 {
					t.Fatalf("word %d has non-zero remainder bits (width %d)", wi, pc.width)
				}
			}
		}
		if tail := pc.n % k; tail != 0 {
			if extra := pc.words[len(pc.words)-1] >> (uint(tail) * pc.width); extra != 0 {
				t.Fatalf("tail word has bits past code %d", pc.n)
			}
		}
		// Kernel equivalence on range and sparse sets over this data.
		card := 1
		for _, w := range want {
			if int(w)+1 > card {
				card = int(w) + 1
			}
		}
		pv := pc.view()
		lo, hi := int32(card/4), int32(card/2)
		rangeSet := newCodeSet(card, func(c int32) bool { return c >= lo && c <= hi })
		sparseSet := newCodeSet(card, func(c int32) bool { return c%5 == 2 })
		// A range compiled over more members than the column has codes for.
		wideSet := newCodeSet(2*card+2, func(c int32) bool { return c >= lo })
		for _, cs := range []*codeSet{rangeSet, sparseSet, wideSet} {
			got := bitset.New(pc.n)
			wantBits := bitset.New(pc.n)
			pv.fillMask(cs, 0, pc.n, got)
			fillOracle(pv, cs, 0, pc.n, wantBits)
			if !got.Equal(wantBits) {
				t.Fatalf("fillMask diverges from oracle (width %d, kind %d)", pc.width, cs.kind)
			}
		}
	})
}

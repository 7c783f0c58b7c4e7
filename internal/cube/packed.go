package cube

import (
	"math/bits"

	"sdwp/internal/bitset"
)

// This file is the compressed column layer: fact dimension-key columns
// dictionary-encoded (the keys already are small dense member indices, so
// the "dictionary" is the identity) and bit-packed at ceil(log2(card))
// bits per code into []uint64 words. Predicates are translated once at
// plan compile into the set of matching codes (codeSet) and then
// evaluated word-at-a-time on the packed data — 64/width lanes per load,
// SIMD-within-a-register — writing the resulting filter bitmap straight
// into bitset words, where the per-predicate AND algebra of the batch
// executor composes it exactly as it composes scalar-filled bitmaps.
//
// Layout: codes never straddle word boundaries. A column of width b keeps
// K = 64/b codes per word, code i in bits [(i%K)*b, (i%K)*b+b) of word
// i/K; the 64-K*b remainder bits of every word stay zero. The layout
// wastes those remainder bits but keeps every kernel free of cross-word
// reassembly, and is what makes the even/odd SWAR passes below valid for
// every width 1..31 with no scalar special case.
//
// Concurrency follows the column snapshot discipline of queryPlan: a
// packedView captured at compile (or Rebind) covers exactly the facts
// that existed then. append only ORs fresh lanes at indices >= the
// snapshot's n into the tail word (or appends new words), and a width
// overflow repacks into a freshly allocated slice — the old array is
// never mutated again — so a view held across concurrent AddFact ingest
// keeps reading exactly the prefix it snapshotted, bounded by the plan's
// compile-time fact count just like the unpacked columns.

// packedColumn is one fact dim-key column in packed form, maintained
// incrementally by AddFact alongside the unpacked []int32 column (which
// stays authoritative: the per-fact match and group-key decode read it).
type packedColumn struct {
	words []uint64
	width uint // bits per code; 0 until the first append
	n     int
}

// bitsForCode returns the pack width needed to store code: ceil(log2)
// of the smallest power of two above it, at least 1.
func bitsForCode(code int32) uint {
	if code <= 0 {
		return 1
	}
	return uint(bits.Len32(uint32(code)))
}

// append packs one more code onto the column, widening first when the
// code needs more bits than the current width (grow-only: widths never
// shrink, so one oversized key repacks once, not per batch).
func (pc *packedColumn) append(code int32) {
	if need := bitsForCode(code); need > pc.width {
		pc.repack(need)
	}
	k := int(64 / pc.width)
	lane := pc.n % k
	if lane == 0 {
		pc.words = append(pc.words, 0)
	}
	pc.words[pc.n/k] |= uint64(uint32(code)) << (uint(lane) * pc.width)
	pc.n++
}

// repack rewrites the column at the given width into a freshly allocated
// word slice. Allocating fresh (never widening in place) is what keeps
// packedViews snapshotted before the overflow valid: they hold the old
// array, which no longer changes.
func (pc *packedColumn) repack(width uint) {
	k := int(64 / width)
	nw := make([]uint64, (pc.n+k-1)/k)
	if pc.n > 0 {
		oldK := int(64 / pc.width)
		mask := uint64(1)<<pc.width - 1
		for i := 0; i < pc.n; i++ {
			c := pc.words[i/oldK] >> (uint(i%oldK) * pc.width) & mask
			nw[i/k] |= c << (uint(i%k) * width)
		}
	}
	pc.words = nw
	pc.width = width
}

// get unpacks code i.
func (pc *packedColumn) get(i int) int32 {
	k := int(64 / pc.width)
	return int32(pc.words[i/k] >> (uint(i%k) * pc.width) & (uint64(1)<<pc.width - 1))
}

// view snapshots the column for a plan: the slice header, width and
// length taken together under the caller's lock stay consistent however
// the live column grows or repacks afterwards.
func (pc *packedColumn) view() packedView {
	return packedView{words: pc.words, width: pc.width, n: pc.n}
}

// packedView is a compile-time snapshot of a packedColumn (see the
// concurrency note in the file header). The zero view (width 0) means
// "no packed data"; plans then keep the scalar path.
type packedView struct {
	words []uint64
	width uint
	n     int
}

// get unpacks code i of the snapshot.
func (pv packedView) get(i int) int32 {
	k := int(64 / pv.width)
	return int32(pv.words[i/k] >> (uint(i%k) * pv.width) & (uint64(1)<<pv.width - 1))
}

// codeSet classification: how the set of matching codes is shaped, which
// picks the kernel that evaluates it on packed words.
const (
	csEmpty  = iota // no code matches: the predicate selects nothing
	csAll           // every code matches: the predicate selects everything
	csRange         // matching codes are one contiguous run [lo, hi]
	csSparse        // anything else: per-lane membership test
)

// codeSet is a predicate translated to its matching finest-level codes —
// the compile-once half of scan-on-compressed. hit always holds the
// membership table (hit[c] is 1 when code c < card matches, else 0; also
// the fast path for the scalar filterSpec.match) — a byte per code, so the
// lane kernel reads a lane's verdict with one load and no variable shift —
// and kind/lo/hi classify the set so fillMask can pick the word-at-a-time
// kernel.
type codeSet struct {
	kind   int
	lo, hi int32 // csRange bounds, inclusive
	card   int
	hit    []uint8
}

// newCodeSet evaluates match for every code in [0, card) and classifies
// the result. match must be pure — it is the predicate's semantics at
// member granularity, evaluated card times at compile instead of once per
// fact per scan.
func newCodeSet(card int, match func(code int32) bool) *codeSet {
	cs := &codeSet{card: card, hit: make([]uint8, card)}
	count := 0
	var lo, hi int32
	for m := 0; m < card; m++ {
		if !match(int32(m)) {
			continue
		}
		cs.hit[m] = 1
		if count == 0 {
			lo = int32(m)
		}
		hi = int32(m)
		count++
	}
	switch {
	case count == 0:
		cs.kind = csEmpty
	case count == card:
		cs.kind = csAll
	case int(hi-lo)+1 == count:
		cs.kind = csRange
		cs.lo, cs.hi = lo, hi
	default:
		cs.kind = csSparse
	}
	return cs
}

// test reports whether code c is in the set. c must be < card — fact keys
// are validated against the finest level on AddFact, so every code a plan
// can read is in range.
func (cs *codeSet) test(c int32) bool {
	return cs.hit[c] != 0
}

// fillRange sets out bits [lo, hi) word-at-a-time.
func fillRange(out *bitset.Set, lo, hi int) {
	ow := out.Words()
	loW, hiW := lo>>6, (hi-1)>>6
	for wi := loW; wi <= hiW; wi++ {
		w := ^uint64(0)
		if wi == loW {
			w &= ^uint64(0) << (uint(lo) & 63)
		}
		if wi == hiW {
			if rem := uint(hi) & 63; rem != 0 {
				w &= uint64(1)<<rem - 1
			}
		}
		ow[wi] |= w
	}
}

// scatterLanes ORs the K result bits for facts [i, i+K) into the output
// words (the bits may straddle one word boundary).
func scatterLanes(ow []uint64, i int, lanes uint64, k int) {
	off := uint(i) & 63
	ow[i>>6] |= lanes << off
	if off+uint(k) > 64 {
		ow[i>>6+1] |= lanes >> (64 - off)
	}
}

// fillMask is the stage-1 predicate kernel: set out's bit for every fact
// in [lo, hi) whose packed code is in cs, reading 64/width codes per
// word load. It writes only bits in [lo, hi), so the word-aligned-chunk
// contract of the shared fill phases holds (a worker owning a 64-aligned
// chunk writes only its own output words; the lone packed word spanning a
// chunk boundary is handled by the scalar head/tail, which stay inside
// the chunk). Results are bit-identical to testing cs.test(get(i)) per
// fact, which in turn equals the scalar predicate by construction of the
// code set — the equivalence the packed-vs-unpacked harness pins.
func (pv packedView) fillMask(cs *codeSet, lo, hi int, out *bitset.Set) {
	if hi > pv.n {
		hi = pv.n
	}
	if lo >= hi {
		return
	}
	switch cs.kind {
	case csEmpty:
		return
	case csAll:
		fillRange(out, lo, hi)
		return
	}
	b := pv.width
	k := int(64 / b)
	ow := out.Words()

	// Scalar head up to the first whole packed word, main loop over whole
	// packed words, scalar tail after the last whole one.
	head := (lo + k - 1) / k * k
	if head > hi {
		head = hi
	}
	for i := lo; i < head; i++ {
		if cs.test(pv.get(i)) {
			out.Set(i)
		}
	}
	tail := hi / k * k
	if tail < head {
		tail = head
	}

	if head < tail {
		if cs.kind == csRange {
			pv.fillRangeWords(cs, head, tail, ow)
		} else {
			pv.fillSparseWords(cs, head, tail, ow)
		}
	}
	for i := tail; i < hi; i++ {
		if cs.test(pv.get(i)) {
			out.Set(i)
		}
	}
}

// fillSparseWords is the membership kernel: per packed word, look each
// lane's code up in the codeSet's hit table — no branches in the lane
// loop, one load per 64/width facts instead of the scalar path's key load,
// roll-up lookup, attribute fetch and interface-valued compare per fact.
// Verdicts enter lanes at the top bit and shift down, so every shift in
// the loop is by a constant or by the loop-invariant width.
// [head, tail) must be whole packed words.
func (pv packedView) fillSparseWords(cs *codeSet, head, tail int, ow []uint64) {
	b := pv.width & 63
	k := int(64 / b)
	laneMask := uint64(1)<<b - 1
	hit := cs.hit
	for i, wi := head, head/k; i < tail; i, wi = i+k, wi+1 {
		w := pv.words[wi]
		var lanes uint64
		for range k {
			lanes = lanes>>1 | uint64(hit[w&laneMask])<<63
			w >>= b
		}
		scatterLanes(ow, i, lanes>>(64-k), k)
	}
}

// fillRangeWords is the SWAR comparison kernel for contiguous code
// ranges: test lo <= code <= hi across all lanes of a word at once.
//
// A b-bit lane has no headroom for the carry of an addition, so lanes are
// split into two half-density passes: the even pass masks the word to
// even-indexed lanes (the odd lanes between them become zero headroom),
// the odd pass shifts the word right by b so odd lanes land on the even
// slots. In each pass, code >= c is tested per lane by adding 2^b-c to
// the lane and reading the carry at laneStart+b; per-lane sums stay below
// 2^(b+1), so carries never reach the next occupied slot. The range test
// is then ge(lo) AND NOT ge(hi+1). lo == 0 (ge vacuously true) and
// hi+1 == 2^b (ge vacuously false) skip their pass — which also keeps the
// addends within b bits. [head, tail) must be whole packed words.
func (pv packedView) fillRangeWords(cs *codeSet, head, tail int, ow []uint64) {
	b := pv.width & 63
	k := int(64 / b)
	// The code set may span more members than the column has codes for
	// yet — its width follows the largest key appended so far — so clip
	// the range to the codes a b-bit lane can hold.
	lo, hi := uint64(cs.lo), min(uint64(cs.hi), uint64(1)<<b-1)
	if lo > hi {
		return
	}
	if b == 1 {
		// One-bit codes: the clipped range is {0}, {1} or both, so the
		// answer is the packed word, its complement, or every lane.
		for i := head; i < tail; i += k {
			lanes := pv.words[i>>6]
			switch {
			case lo == 1:
			case hi == 0:
				lanes = ^lanes
			default:
				lanes = ^uint64(0)
			}
			scatterLanes(ow, i, lanes, k)
		}
		return
	}

	// Lane masks: selEven keeps the even-indexed lanes' fields; carryEven/
	// carryOdd pick each pass's carry bits (bit laneSlot+b per occupied
	// slot). The top lane never needs special casing: if k is even the top
	// lane is odd and its post-shift carry lands at (k-1)*b <= 63; if k is
	// odd then k*b <= 63 (64 has no odd divisor > 1), so the top even
	// lane's carry bit exists too.
	var selEven, carryEven, carryOdd uint64
	for j := 0; 2*j < k; j++ {
		selEven |= (uint64(1)<<b - 1) << (uint(2*j) * b)
		carryEven |= 1 << (uint(2*j)*b + b)
	}
	for j := 0; 2*j+1 < k; j++ {
		carryOdd |= 1 << (uint(2*j)*b + b)
	}
	needLo := lo > 0
	needHi := hi+1 < uint64(1)<<b
	var addLo, addHi uint64
	for j := 0; 2*j < k; j++ {
		slot := uint(2*j) * b
		addLo |= (uint64(1)<<b - lo) << slot
		addHi |= (uint64(1)<<b - (hi + 1)) << slot
	}

	for i, wi := head, head/k; i < tail; i, wi = i+k, wi+1 {
		w := pv.words[wi]
		xe := w & selEven
		xo := (w >> b) & selEven
		geLoE, geLoO := carryEven, carryOdd
		if needLo {
			geLoE = (xe + addLo) & carryEven
			geLoO = (xo + addLo) & carryOdd
		}
		ltHiE, ltHiO := carryEven, carryOdd
		if needHi {
			ltHiE = ^(xe + addHi) & carryEven
			ltHiO = ^(xo + addHi) & carryOdd
		}
		// Even lane l's verdict sits at (l+1)*b, odd lane l's at l*b;
		// shifting the even half down by b unifies both at l*b. Verdicts
		// then enter lanes at the top bit, as in fillSparseWords.
		combined := (geLoE&ltHiE)>>b | geLoO&ltHiO
		var lanes uint64
		for range k {
			lanes = lanes>>1 | combined<<63
			combined >>= b
		}
		scatterLanes(ow, i, lanes>>(64-k), k)
	}
}

// packedBytes is the column's packed footprint.
func (pc *packedColumn) packedBytes() int64 { return int64(len(pc.words)) * 8 }

// PackedStats reports the compressed column layer's footprint and shape:
// how many dim-key columns are packed, their packed vs unpacked ([]int32)
// byte sizes, and the bit width per "fact/dimension" column. Aggregated
// across shards by Add (widths take the max — shards of one logical
// column may have packed at different widths depending on the keys they
// were dealt).
type PackedStats struct {
	Columns       int            `json:"columns"`
	PackedBytes   int64          `json:"packedBytes"`
	UnpackedBytes int64          `json:"unpackedBytes"`
	BitsPerColumn map[string]int `json:"bitsPerColumn,omitempty"`
}

// Add folds another cube's (typically a sibling shard's) stats in.
func (ps *PackedStats) Add(o PackedStats) {
	ps.PackedBytes += o.PackedBytes
	ps.UnpackedBytes += o.UnpackedBytes
	if len(o.BitsPerColumn) > 0 && ps.BitsPerColumn == nil {
		ps.BitsPerColumn = map[string]int{}
	}
	for col, w := range o.BitsPerColumn {
		if w > ps.BitsPerColumn[col] {
			ps.BitsPerColumn[col] = w
		}
	}
	ps.Columns = len(ps.BitsPerColumn)
}

// PackedStats reports this cube's compressed-column footprint. Callers
// synchronize with ingest exactly as for scans (the engine holds its read
// lock; the shard table sums shards under their per-shard read locks).
func (c *Cube) PackedStats() PackedStats {
	ps := PackedStats{BitsPerColumn: map[string]int{}}
	for fn, fd := range c.facts {
		for dn, pc := range fd.packed {
			if pc == nil || pc.width == 0 {
				continue
			}
			ps.Columns++
			ps.PackedBytes += pc.packedBytes()
			ps.UnpackedBytes += int64(pc.n) * 4
			ps.BitsPerColumn[fn+"/"+dn] = int(pc.width)
		}
	}
	return ps
}

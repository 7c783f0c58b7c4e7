package cube

import (
	"math/bits"

	"sdwp/internal/bitset"
)

// This file is the stage-3 specialization layer: monomorphic accumulate
// kernels per measure-op, selected once at plan compile
// (selectKernel) instead of dispatched per fact. The generic
// accumulateFact walks the aggregate list per fact, re-testing each
// measure column for COUNT and updating sum, min and max whether the
// query asked for them or not; a plan with exactly one aggregate — the
// overwhelmingly common OLAP shape — instead runs a tight loop that
// hoists the measure column, key source and cell store into locals and
// performs only the one update its aggregate needs.
// The kernels run on dense plans only (queryPlan.denseCells): the group
// shape is always "address one cell store by one composite key", so
// there is one kernel per measure-op and the group-by depth only changes
// how the key is decoded.
//
// A dense plan's cell for group key ck lives at recs[ck·stride] — the key
// is the address, so there is no offset table between them. One byte per
// key, partial.seen, marks the cells in use: the first touch copies the
// plan's blank cell in, sets the byte and records ck in partial.touched,
// which merge, finalize and the next rebind walk instead of the whole
// store. The marker is not the cell's count: a SUM, MIN or MAX kernel
// then writes one float per fact, and its touch test reads a small,
// read-mostly array rather than the cell line the loop is writing
// (marking by count cost the unfiltered single-level scans a fifth to
// a half on a 2-vCPU Xeon, BenchmarkPackedScan and
// BenchmarkShardedScan).
//
// Skipping the untouched accumulator fields is safe for byte-identical
// results: finalize reads only the field its aggregate defines (sums for
// SUM, count for COUNT/AVG, mins/maxs for MIN/MAX), and merge folds the
// untouched fields as identities (adding zero counts and sums, narrowing
// against ±Inf), so a kernel-filled partial finalizes and merges exactly
// like a generically filled one. The equivalence harness pins this
// against the executor-independent reference (package cubetest).

// kernelKind identifies one specialized accumulate loop. kernGeneric
// (the zero value) means "no specialization": the plan keeps the classic
// accumulateFact path.
type kernelKind uint8

const (
	kernGeneric kernelKind = iota
	kernSum
	kernCount
	kernAvg
	kernMin
	kernMax
)

// selectKernel maps a plan to its accumulate kernel: a dense plan with
// exactly one aggregate specializes per op — whatever its group-by depth,
// since every dense plan addresses one cell store by one composite key.
// Multi-aggregate plans and hashed plans keep the generic loop.
func selectKernel(p *queryPlan) kernelKind {
	if len(p.q.Aggregates) != 1 || p.denseCells == 0 {
		return kernGeneric
	}
	switch p.q.Aggregates[0].Agg {
	case AggSum:
		return kernSum
	case AggCount:
		return kernCount
	case AggAvg:
		return kernAvg
	case AggMin:
		return kernMin
	case AggMax:
		return kernMax
	}
	return kernGeneric
}

// keySource says where a dense plan's drive reads stage 2 from.
type keySource uint8

const (
	keyInline keySource = iota // no level, or three and more: queryPlan.groupKeyOf
	keyColumn                  // the batch's shared composite key column
	keyOne                     // one level: one key-term load
	keyTwo                     // two levels: two key-term loads and an add
)

// scanDrive is one scan range's hoisted stage-2/3 state, loaded once per
// range instead of once per fact: the group-key source (the shared
// composite column when the batch materialized one, else the levels' key
// terms) and, for the kernels, the single aggregate's measure column.
type scanDrive struct {
	p   *queryPlan
	col []float64 // first aggregate's measure column (nil for COUNT)
	src keySource
	kc  []int32 // shared composite key column (keyColumn)
	// t0/k0 and t1/k1 are the first two levels' key terms and fact key
	// columns (keyOne, keyTwo).
	t0, k0, t1, k1 []int32
}

// drive builds the plan's scanDrive over an optional shared composite key
// column.
func (p *queryPlan) drive(kc []int32) scanDrive {
	d := scanDrive{p: p, col: p.measureCols[0], kc: kc}
	switch {
	case kc != nil:
		d.src = keyColumn
	case len(p.groups) == 1:
		d.src, d.t0, d.k0 = keyOne, p.groups[0].terms, p.groups[0].keys
	case len(p.groups) == 2:
		d.src, d.t0, d.k0 = keyTwo, p.groups[0].terms, p.groups[0].keys
		d.t1, d.k1 = p.groups[1].terms, p.groups[1].keys
	}
	return d
}

// key is stage 2 for one fact of a dense plan: its composite group key.
func (d *scanDrive) key(i int32) int32 {
	switch d.src {
	case keyColumn:
		return d.kc[i]
	case keyOne:
		return d.t0[d.k0[i]]
	case keyTwo:
		return d.t0[d.k0[i]] + d.t1[d.k1[i]]
	}
	return d.p.groupKeyOf(i)
}

// touch claims the untouched dense cell ck: it takes the blank cell, is
// marked seen and joins the touched list. Out of line, so the kernel
// loops stay small.
//
//go:noinline
func (pt *partial) touch(ck int32) {
	stride := len(pt.p.blankCell)
	copy(pt.recs[int(ck)*stride:], pt.p.blankCell)
	pt.seen[ck] = 1
	pt.touched = append(pt.touched, ck)
}

// hashCell is the hashed plans' cell fetch: the string-keyed fallback for
// group key spaces above the dense bounds. It returns the cell's offset;
// creating a cell appends to recs.
func (pt *partial) hashCell(i int32) int {
	p := pt.p
	pt.keyBuf = pt.keyBuf[:0]
	for gi := range p.groups {
		pt.keyBuf = appendInt32(pt.keyBuf, p.groups[gi].decode(i))
	}
	off, ok := pt.cells[string(pt.keyBuf)]
	if !ok {
		off = int32(len(pt.recs))
		pt.recs = append(pt.recs, p.blankCell...)
		pt.cells[string(pt.keyBuf)] = off
		for gi := range p.groups {
			pt.members = append(pt.members, p.groups[gi].decode(i))
		}
	}
	return int(off)
}

// The kernels below run on a plan with one aggregate, whose cells are
// [count, sum, min, max]: kernStride floats at recs[ck·kernStride].
const (
	kernStride  = cellSums + 3
	kernCellSum = cellSums
	kernCellMin = cellSums + 1
	kernCellMax = cellSums + 2
)

// kernCell is the kernels' cell access: the offset of group key ck's
// cell, claimed on its first touch.
func (pt *partial) kernCell(seen []uint8, ck int32) int {
	if seen[ck] == 0 {
		pt.touch(ck)
	}
	return int(ck) * kernStride
}

// accumRange folds every fact in [lo, hi) through the plan's kernel —
// the unfiltered, unmasked stage 3. Callers must only invoke it when
// p.kern != kernGeneric.
func (pt *partial) accumRange(lo, hi int, d *scanDrive) {
	col, recs, seen := d.col, pt.recs, pt.seen
	switch pt.p.kern {
	case kernSum:
		for i := lo; i < hi; i++ {
			off := pt.kernCell(seen, d.key(int32(i)))
			recs[off+kernCellSum] += col[i]
		}
	case kernCount:
		for i := lo; i < hi; i++ {
			off := pt.kernCell(seen, d.key(int32(i)))
			recs[off+cellCount]++
		}
	case kernAvg:
		for i := lo; i < hi; i++ {
			off := pt.kernCell(seen, d.key(int32(i)))
			recs[off+cellCount]++
			recs[off+kernCellSum] += col[i]
		}
	case kernMin:
		for i := lo; i < hi; i++ {
			off := pt.kernCell(seen, d.key(int32(i)))
			if mv := col[i]; mv < recs[off+kernCellMin] {
				recs[off+kernCellMin] = mv
			}
		}
	case kernMax:
		for i := lo; i < hi; i++ {
			off := pt.kernCell(seen, d.key(int32(i)))
			if mv := col[i]; mv > recs[off+kernCellMax] {
				recs[off+kernCellMax] = mv
			}
		}
	}
}

// maskWalk is one mask of a scan and the kernel plans that iterate it
// (users, indices into the scan's queries): foldScan walks it once per
// chunk for all of them.
type maskWalk struct {
	m     *bitset.Set
	users []int
}

// fold folds every set bit of w.m in [lo, hi) into each user's partial —
// the prefiltered stage 3, iterating mask words directly instead of
// taking a callback per fact. For each non-zero word every user's kernel
// (accumWord) runs back to back, while the word's measure and key lines
// are still in L1; each partial still folds its own facts in ascending
// order. Bounds clamp to the mask's capacity exactly as ForEachRange
// does. Every user's plan must have a kernel (p.kern != kernGeneric).
func (w *maskWalk) fold(lo, hi int, out []*partial, scans []queryScan) {
	hi = min(hi, w.m.Len())
	if lo >= hi {
		return
	}
	words := w.m.Words()
	loW, hiW := lo>>6, (hi-1)>>6
	for wi := loW; wi <= hiW; wi++ {
		word := words[wi]
		if wi == loW {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if wi == hiW {
			if rem := uint(hi) & 63; rem != 0 {
				word &= uint64(1)<<rem - 1
			}
		}
		if word == 0 {
			continue
		}
		base := int32(wi) << 6
		for _, k := range w.users {
			out[k].accumWord(word, base, &scans[k].d)
		}
	}
}

// accumWord folds the set bits of one mask word (facts [base, base+64))
// through the kernel. The kind switch runs once per word, not per fact.
func (pt *partial) accumWord(w uint64, base int32, d *scanDrive) {
	col, recs, seen := d.col, pt.recs, pt.seen
	switch pt.p.kern {
	case kernSum:
		for w != 0 {
			i := base + int32(bits.TrailingZeros64(w))
			w &= w - 1
			off := pt.kernCell(seen, d.key(i))
			recs[off+kernCellSum] += col[i]
		}
	case kernCount:
		for w != 0 {
			i := base + int32(bits.TrailingZeros64(w))
			w &= w - 1
			off := pt.kernCell(seen, d.key(i))
			recs[off+cellCount]++
		}
	case kernAvg:
		for w != 0 {
			i := base + int32(bits.TrailingZeros64(w))
			w &= w - 1
			off := pt.kernCell(seen, d.key(i))
			recs[off+cellCount]++
			recs[off+kernCellSum] += col[i]
		}
	case kernMin:
		for w != 0 {
			i := base + int32(bits.TrailingZeros64(w))
			w &= w - 1
			off := pt.kernCell(seen, d.key(i))
			if mv := col[i]; mv < recs[off+kernCellMin] {
				recs[off+kernCellMin] = mv
			}
		}
	case kernMax:
		for w != 0 {
			i := base + int32(bits.TrailingZeros64(w))
			w &= w - 1
			off := pt.kernCell(seen, d.key(i))
			if mv := col[i]; mv > recs[off+kernCellMax] {
				recs[off+kernCellMax] = mv
			}
		}
	}
}

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
// hoists the measure column, key column and roll-up table into locals
// and performs only the one update its aggregate needs. The kernels run
// on dense plans only (queryPlan.denseCells): the group shape is always
// "index one table by one composite key", so there is one kernel per
// measure-op and the group-by depth only changes how the key is decoded.
//
// Skipping the untouched accumulator fields is safe for byte-identical
// results: finalize reads only the field its aggregate defines (sums for
// SUM, count for COUNT/AVG, mins/maxs for MIN/MAX), and merge folds the
// untouched fields as identities (adding zero counts/sums, narrowing
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
// since every dense plan indexes one table by one composite key.
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

// scanDrive is one scan range's hoisted stage-2/3 state, loaded once per
// range instead of once per fact: the group-key source (the shared
// composite column when the batch materialized one, else inline decode)
// and, for the kernels, the single aggregate's measure column.
type scanDrive struct {
	p   *queryPlan
	col []float64 // first aggregate's measure column (nil for COUNT)
	kc  []int32   // shared composite key column (nil → inline decode)
	// anc/keys are the single-level inline decode (roll-up table + fact
	// keys), nil for any other depth.
	anc, keys []int32
}

// drive builds the plan's scanDrive over an optional shared composite key
// column.
func (p *queryPlan) drive(kc []int32) scanDrive {
	d := scanDrive{p: p, col: p.measureCols[0], kc: kc}
	if len(p.groups) == 1 {
		d.anc, d.keys = p.groups[0].anc, p.groups[0].keys
	}
	return d
}

// key is stage 2 for one fact of a dense plan: its composite group key.
func (d *scanDrive) key(i int32) int32 {
	if d.kc != nil {
		return d.kc[i]
	}
	if d.anc != nil {
		return d.anc[d.keys[i]] + 1
	}
	return d.p.cellIndex(i)
}

// cellFor is the dense table's cell fetch, shaped to inline into the
// kernel loops: an existing cell's offset returns directly, creation is
// one outlined call (newDenseCell must stay out of line, or it is inlined
// here and pushes cellFor itself past the inline budget).
func (pt *partial) cellFor(ck int32) int32 {
	if off := pt.dense[ck]; off != 0 {
		return off
	}
	return pt.newDenseCell(ck)
}

//go:noinline
func (pt *partial) newDenseCell(ck int32) int32 {
	off := pt.newCell()
	pt.dense[ck] = off
	return off
}

// hashCell is the hashed plans' cell fetch: the string-keyed fallback for
// group key spaces above maxDenseCells.
func (pt *partial) hashCell(i int32) int32 {
	p := pt.p
	pt.keyBuf = pt.keyBuf[:0]
	for gi := range p.groups {
		pt.keyBuf = appendInt32(pt.keyBuf, p.groups[gi].decode(i))
	}
	off, ok := pt.cells[string(pt.keyBuf)]
	if !ok {
		off = pt.newCell()
		pt.cells[string(pt.keyBuf)] = off
		for gi := range p.groups {
			pt.members = append(pt.members, p.groups[gi].decode(i))
		}
	}
	return off
}

// The kernels below run on a plan with one aggregate, whose cells are
// [count, sum, min, max]. Each takes the cell's offset first and indexes
// pt.recs after: cellFor may append to recs.
const (
	kernCellSum = cellSums
	kernCellMin = cellSums + 1
	kernCellMax = cellSums + 2
)

// accumRange folds every fact in [lo, hi) through the plan's kernel —
// the unfiltered, unmasked stage 3. Callers must only invoke it when
// p.kern != kernGeneric.
func (pt *partial) accumRange(lo, hi int, d *scanDrive) {
	col := d.col
	switch pt.p.kern {
	case kernSum:
		for i := lo; i < hi; i++ {
			off := pt.cellFor(d.key(int32(i)))
			pt.recs[off+kernCellSum] += col[i]
		}
	case kernCount:
		for i := lo; i < hi; i++ {
			off := pt.cellFor(d.key(int32(i)))
			pt.recs[off+cellCount]++
		}
	case kernAvg:
		for i := lo; i < hi; i++ {
			off := pt.cellFor(d.key(int32(i)))
			pt.recs[off+cellCount]++
			pt.recs[off+kernCellSum] += col[i]
		}
	case kernMin:
		for i := lo; i < hi; i++ {
			off := pt.cellFor(d.key(int32(i)))
			if mv := col[i]; mv < pt.recs[off+kernCellMin] {
				pt.recs[off+kernCellMin] = mv
			}
		}
	case kernMax:
		for i := lo; i < hi; i++ {
			off := pt.cellFor(d.key(int32(i)))
			if mv := col[i]; mv > pt.recs[off+kernCellMax] {
				pt.recs[off+kernCellMax] = mv
			}
		}
	}
}

// accumMask folds every set bit of m in [lo, hi) through the plan's
// kernel — the prefiltered stage 3, iterating mask words directly
// instead of taking a callback per fact. Bounds clamp to the mask's
// capacity exactly as ForEachRange does. Callers must only invoke it
// when p.kern != kernGeneric.
func (pt *partial) accumMask(m *bitset.Set, lo, hi int, d *scanDrive) {
	if hi > m.Len() {
		hi = m.Len()
	}
	if lo >= hi {
		return
	}
	words := m.Words()
	loW, hiW := lo>>6, (hi-1)>>6
	for wi := loW; wi <= hiW; wi++ {
		w := words[wi]
		if wi == loW {
			w &= ^uint64(0) << (uint(lo) & 63)
		}
		if wi == hiW {
			if rem := uint(hi) & 63; rem != 0 {
				w &= uint64(1)<<rem - 1
			}
		}
		if w != 0 {
			pt.accumWord(w, int32(wi)<<6, d)
		}
	}
}

// accumWord folds the set bits of one mask word (facts [base, base+64))
// through the kernel. The kind switch runs once per word, not per fact.
func (pt *partial) accumWord(w uint64, base int32, d *scanDrive) {
	switch pt.p.kern {
	case kernSum:
		for w != 0 {
			i := base + int32(bits.TrailingZeros64(w))
			w &= w - 1
			off := pt.cellFor(d.key(i))
			pt.recs[off+kernCellSum] += d.col[i]
		}
	case kernCount:
		for w != 0 {
			i := base + int32(bits.TrailingZeros64(w))
			w &= w - 1
			off := pt.cellFor(d.key(i))
			pt.recs[off+cellCount]++
		}
	case kernAvg:
		for w != 0 {
			i := base + int32(bits.TrailingZeros64(w))
			w &= w - 1
			off := pt.cellFor(d.key(i))
			pt.recs[off+cellCount]++
			pt.recs[off+kernCellSum] += d.col[i]
		}
	case kernMin:
		for w != 0 {
			i := base + int32(bits.TrailingZeros64(w))
			w &= w - 1
			off := pt.cellFor(d.key(i))
			if mv := d.col[i]; mv < pt.recs[off+kernCellMin] {
				pt.recs[off+kernCellMin] = mv
			}
		}
	case kernMax:
		for w != 0 {
			i := base + int32(bits.TrailingZeros64(w))
			w &= w - 1
			off := pt.cellFor(d.key(i))
			if mv := d.col[i]; mv > pt.recs[off+kernCellMax] {
				pt.recs[off+kernCellMax] = mv
			}
		}
	}
}

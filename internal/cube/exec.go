package cube

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"sdwp/internal/bitset"
	"sdwp/internal/mdmodel"
	"sdwp/internal/obs"
)

// This file is the query executor: a compiled plan (queryPlan) over
// partial aggregation tables (partial) that the goroutine dispatching a
// scan fills and finalizes.
//
// The fact table is split into contiguous fixed-size chunks, and a scan
// walks them in order on the goroutine that dispatched it. One goroutine
// folds the chunks in order, so every answer is reproducible: the same
// facts always aggregate in the same order, SUM and AVG included.
//
// Partial tables themselves are pooled per fact table (FactData.getPartial):
// a partial and the flat cell store behind it are reset and rebound to the
// new plan on Get, live for exactly one scan, and return to the pool after
// finalize (scanPartials.release).

// execChunkSize is the facts-per-chunk scan granularity. Chunks are the
// unit of work interleaving: the shared-scan batch executor walks one
// chunk of the fact columns (a few hundred KB, cache-hot) through every
// query of the batch before moving to the next.
const execChunkSize = 8192

// The executor is a three-stage pipeline over the fact columns:
//
//	stage 1  filter-mask      fillFilterMask / matchFact
//	stage 2  group-key decode groupSpec.decode / materializeGroupKeys
//	stage 3  accumulate       partial.accumulateFact
//
// There is one executor, the shared staged scan of exec_shared.go; a lone
// query is a batch of one. Stage 1 has one builder, fillFilterMask: the
// whole conjunction of a filter set as one bitmap, ANDing in the
// predicate bitmaps the batch holds and running the packed predicate
// kernels for the rest. Every filtered query iterates such a set mask
// (intersected with its view) unless its set is priced out by
// sparseViewK, in which case it keeps the stages fused per visible fact
// (process). Stage 2 is shared as one composite roll-up key column per
// distinct group-by list when enough of the batch decodes it. Artifacts
// are keyed by the sub-fingerprints in fingerprint.go.

// groupSpec is one resolved group-by level. anc maps each finest-level
// member to its ancestor at the group level (the roll-up cache), and keys
// is the fact's key column for the dimension.
//
// A level contributes card+1 slots to the plan's group key space: slot
// m+1 is member m and slot 0 is NoParent (the "(none)" group). names is
// the level's descriptor column and rank the slots' positions in name
// order (DimData.nameRanks), so finalize orders groups by comparing
// integers. stride is the level's mixed-radix weight in the composite
// group key of a dense plan (see queryPlan.denseCells) and terms the
// roll-up pre-scaled by it ((anc[k]+1)·stride, DimData.keyTerms), so a
// fact's key is one term load per level; both are unused on hashed plans.
type groupSpec struct {
	dd     *DimData
	li     int
	anc    []int32
	keys   []int32
	names  []string
	rank   []int32
	stride int32
	terms  []int32
}

// decode is stage 2 for one fact: the member of the grouping level that
// fact i rolls up to.
func (g *groupSpec) decode(i int32) int32 { return g.anc[g.keys[i]] }

// slotName is the display name of one group slot of a level with the
// given descriptor column: slot 0 is the group of facts whose key has no
// ancestor at the level.
func slotName(names []string, slot int32) string {
	if slot == 0 {
		return "(none)"
	}
	return names[slot-1]
}

// maxDenseCells and maxDenseBytes bound the group tables a plan
// addresses directly (dense plans); above either the plan hashes. A dense
// plan's partial is its cell store with one cell per composite group key
// — (1+3·aggregates) float64s each — so maxDenseBytes caps one pooled
// partial at 8 MB: every single-aggregate plan up to maxDenseCells fits,
// and a plan with more aggregates fits proportionally fewer keys. Every
// group-by of the paper's star schema short of Store x Customer is dense.
// Constants rather than knobs: hashing costs more per fact than a dense
// plan's touched-cell bookkeeping costs per group, so no workload on the
// dense side wants the other path.
const (
	maxDenseCells = 1 << 18
	maxDenseBytes = maxDenseCells * 8 * (1 + 3)
)

// groupKeyOf is stage 2 for one fact of a dense plan: the composite group
// key Σ (member_g + 1) · stride_g, one key-term load per level. No levels
// is the one-cell table's key 0. The scan drives decode one and two
// levels inline (scanDrive.key); this is their general form.
func (p *queryPlan) groupKeyOf(i int32) int32 {
	var ck int32
	for gi := range p.groups {
		g := &p.groups[gi]
		ck += g.terms[g.keys[i]]
	}
	return ck
}

// materializeGroupKeys runs stage 2 over facts [0, n) into the shared
// composite key column (col[i] = groupKeyOf(i) for i < n afterwards), one
// pass per level so each pass streams two columns.
func (p *queryPlan) materializeGroupKeys(n int, col []int32) {
	for gi := range p.groups {
		g := &p.groups[gi]
		terms, keys := g.terms, g.keys
		if gi == 0 {
			for i := 0; i < n; i++ {
				col[i] = terms[keys[i]]
			}
			continue
		}
		for i := 0; i < n; i++ {
			col[i] += terms[keys[i]]
		}
	}
}

// attrCol is a filter attribute resolved at compile time: either the level
// descriptor column or a declared attribute column, so the per-fact path
// never re-scans level.Attributes (which LevelData.Attr does linearly).
type attrCol struct {
	desc []string // descriptor column when the filter names the descriptor
	col  []any    // attribute column otherwise (nil when never set)
}

// value returns the attribute of member i, mirroring LevelData.Attr.
func (a attrCol) value(i int32) (any, bool) {
	if a.desc != nil {
		return a.desc[i], true
	}
	if a.col == nil || int(i) >= len(a.col) {
		return nil, false
	}
	return a.col[i], true
}

// filterSpec is one resolved attribute filter. key is the predicate's
// sub-fingerprint (AttrFilter.Fingerprint) — the identity under which a
// batch scan materializes one bitmap per distinct predicate and composes
// each query's filter mask by AND.
type filterSpec struct {
	dd   *DimData
	li   int
	f    AttrFilter
	anc  []int32
	keys []int32
	attr attrCol
	key  string
	// pk/codes are the compressed-column bindings, set at compile: pk
	// snapshots the dimension's bit-packed key column and codes is the
	// predicate translated to its matching finest-level member codes (see
	// packed.go). codes also serves the per-fact match below — one bitmap
	// probe instead of roll-up lookup plus interface-valued compare.
	pk    packedView
	codes *codeSet
}

// matchCode is the predicate's member-granularity semantics: whether a
// fact whose finest-level key is code passes this filter. match is
// exactly matchCode(keys[i]); newCodeSet evaluates matchCode once per
// code at compile so scans can test membership instead.
func (fs *filterSpec) matchCode(code int32) bool {
	anc := fs.anc[code]
	if anc == NoParent {
		return false
	}
	val, has := fs.attr.value(anc)
	return has && compare(val, fs.f.Op, fs.f.Value)
}

// match is stage 1 for one fact and one predicate: whether fact i passes
// this filter alone.
func (fs *filterSpec) match(i int32) bool {
	return fs.codes.test(fs.keys[i])
}

// materializePredicateMask runs this one predicate over facts [0, n)
// into a bitmap with the packed word-at-a-time kernel.
func (fs *filterSpec) materializePredicateMask(n int, out *bitset.Set) {
	fs.pk.fillMask(fs.codes, 0, n, out)
}

// fillFilterMask is the stage-1 builder: the conjunction of the plan's
// distinct predicates over facts [0, n) into m, zero there on entry. A
// predicate the batch holds a bitmap for (preds, by predicate
// sub-fingerprint) is ANDed in from it; any other runs the packed kernel,
// the first straight into m and every further one into scratch, ANDed in
// word by word. view, when non-nil, narrows the result (intersectView).
// The last word of m may take bits past n from a predicate bitmap, which
// no scan reads.
func (p *queryPlan) fillFilterMask(n int, m, scratch, view *bitset.Set, preds map[string]*bitset.Set) {
	nw := (n + 63) >> 6
	mw := m.Words()[:nw]
	first := true
	for fi := range p.filters {
		if p.repeatsFilter(fi) {
			continue
		}
		fs := &p.filters[fi]
		switch pm := preds[fs.key]; {
		case pm != nil && first:
			copy(mw, pm.Words()[:nw])
		case pm != nil:
			for i, w := range pm.Words()[:nw] {
				mw[i] &= w
			}
		case first:
			fs.materializePredicateMask(n, m)
		default:
			sw := scratch.Words()[:nw]
			clear(sw)
			fs.materializePredicateMask(n, scratch)
			for i, w := range sw {
				mw[i] &= w
			}
		}
		first = false
	}
	if view != nil {
		intersectView(mw, mw, view)
	}
}

// intersectView sets dst to src ∩ view over the table's first len(src)
// words (dst and src cover the same words and may alias). Facts past the
// view's length are invisible, as they are to a walk of its set bits: a
// view mask shorter than the table (a direct fact selection taken before
// AddFact grew it) is ANDed over its own length.
func intersectView(dst, src []uint64, view *bitset.Set) {
	vw := view.Words()
	for i, w := range src {
		if i < len(vw) {
			dst[i] = w & vw[i]
		} else {
			dst[i] = 0
		}
	}
}

// queryPlan is a validated, resolved query: every name bound to column
// data, ready to scan. Plans are read-only after compile, so any number of
// concurrent scans can share one.
type queryPlan struct {
	q  Query
	fd *FactData
	// n is the fact count at compile time — the scan bound of this plan.
	// The column snapshots bound below (dimension keys, measures, filter
	// attributes) are guaranteed to cover exactly [0, n); facts appended
	// after compile grow fd.n and the live columns but not these
	// snapshots, so scanning by live fd.n would over-index them. A plan
	// therefore always aggregates the table prefix that existed when it
	// was compiled.
	n      int
	groups []groupSpec
	// denseCells is the size of the plan's directly addressed group table:
	// the product of the levels' slot counts (1 without group-by) when the
	// table fits maxDenseCells and maxDenseBytes, else 0 — the plan then
	// hashes its group keys.
	denseCells int
	// groupKey is the group-by list's sub-fingerprint ("" unless the plan
	// is dense and has at least one level): the identity under which a
	// batch scan shares one composite key column among queries.
	groupKey string
	// groupCols/aggCols are the Result column headers, built once here and
	// shared read-only by every Result of the plan.
	groupCols, aggCols []string
	filters            []filterSpec
	// filterKey is the filter set's sub-fingerprint ("" without filters):
	// the identity under which a batch scan shares one materialized filter
	// bitmap among queries.
	filterKey string
	// measureCols holds the measure column per aggregate (nil for COUNT),
	// hoisted out of the scan loop.
	measureCols [][]float64
	// blankCell is the untouched-cell template a partial copies into a
	// group's cell when the group first appears (newBlankCell); its length
	// is the cell stride.
	blankCell []float64
	// kern is the stage-3 accumulate kernel selected for this plan (see
	// exec_kernels.go); kernGeneric keeps the classic accumulateFact loop
	// and is always used on hashed and multi-aggregate plans.
	kern kernelKind
}

// matchFact is stage 1 for one fact: whether fact i passes every filter of
// the plan. The outcome is order-insensitive (a conjunction), so plans
// whose filter sets are equal up to ordering share one FilterFingerprint
// and, in a batch, one materialized bitmap.
func (p *queryPlan) matchFact(i int32) bool {
	for fi := range p.filters {
		if !p.filters[fi].match(i) {
			return false
		}
	}
	return true
}

// repeatsFilter reports whether filter fi repeats an earlier filter of the
// plan (an equal predicate sub-fingerprint): a conjunction needs it once.
func (p *queryPlan) repeatsFilter(fi int) bool {
	for j := range fi {
		if p.filters[j].key == p.filters[fi].key {
			return true
		}
	}
	return false
}

// compile resolves and validates a query against the cube.
func (c *Cube) compile(q Query) (*queryPlan, error) {
	fd := c.facts[q.Fact]
	if fd == nil {
		return nil, fmt.Errorf("cube: unknown fact %q", q.Fact)
	}
	if len(q.Aggregates) == 0 {
		return nil, fmt.Errorf("cube: query needs at least one aggregate")
	}
	p := &queryPlan{q: q, fd: fd, n: fd.n}

	// Resolve group-by levels.
	p.groups = make([]groupSpec, len(q.GroupBy))
	for i, g := range q.GroupBy {
		dd := c.dims[g.Dimension]
		if dd == nil {
			return nil, fmt.Errorf("cube: unknown dimension %q", g.Dimension)
		}
		if !fd.fact.HasDimension(g.Dimension) {
			return nil, fmt.Errorf("cube: fact %q has no dimension %q", q.Fact, g.Dimension)
		}
		li := dd.dim.LevelIndex(g.Level)
		if li < 0 {
			return nil, fmt.Errorf("cube: dimension %q has no level %q", g.Dimension, g.Level)
		}
		p.groups[i] = groupSpec{dd: dd, li: li, anc: dd.ancestorsFromFinest(li),
			keys: fd.dimKeys[g.Dimension], names: dd.levels[li].names, rank: dd.nameRanks(li)}
		p.groupCols = append(p.groupCols, g.String())
	}
	p.bindGroupTable()

	// Resolve aggregates.
	p.measureCols = make([][]float64, len(q.Aggregates))
	p.blankCell = newBlankCell(len(q.Aggregates))
	for j, a := range q.Aggregates {
		if a.Agg < AggSum || a.Agg > AggMax {
			return nil, fmt.Errorf("cube: invalid aggregation in query")
		}
		if a.Agg == AggCount {
			p.aggCols = append(p.aggCols, "COUNT(*)")
			continue
		}
		if fd.fact.Measure(a.Measure) == nil {
			return nil, fmt.Errorf("cube: fact %q has no measure %q", q.Fact, a.Measure)
		}
		p.measureCols[j] = fd.measures[a.Measure]
		p.aggCols = append(p.aggCols, a.Agg.String()+"("+a.Measure+")")
	}

	if q.OrderBy != nil && (q.OrderBy.Agg < 0 || q.OrderBy.Agg >= len(q.Aggregates)) {
		return nil, fmt.Errorf("cube: OrderBy.Agg %d out of range (have %d aggregates)",
			q.OrderBy.Agg, len(q.Aggregates))
	}
	if q.Limit < 0 {
		return nil, fmt.Errorf("cube: negative Limit %d", q.Limit)
	}

	// Resolve filters.
	p.filters = make([]filterSpec, len(q.Filters))
	for i, f := range q.Filters {
		dd := c.dims[f.Dimension]
		if dd == nil {
			return nil, fmt.Errorf("cube: unknown dimension %q in filter", f.Dimension)
		}
		if !fd.fact.HasDimension(f.Dimension) {
			return nil, fmt.Errorf("cube: fact %q has no dimension %q in filter", q.Fact, f.Dimension)
		}
		li := dd.dim.LevelIndex(f.Level)
		if li < 0 {
			return nil, fmt.Errorf("cube: dimension %q has no level %q in filter", f.Dimension, f.Level)
		}
		ld := dd.levels[li]
		attr := ld.level.Attribute(f.Attr)
		if attr == nil {
			return nil, fmt.Errorf("cube: level %s has no attribute %q", f.LevelRef, f.Attr)
		}
		// Resolve the attribute column once here instead of re-scanning
		// level.Attributes per fact (LevelData.Attr's linear descriptor
		// check) in the scan loop.
		var ac attrCol
		if attr.Kind == mdmodel.KindDescriptor {
			ac.desc = ld.names
		} else {
			ac.col = ld.attrs[f.Attr]
		}
		p.filters[i] = filterSpec{dd: dd, li: li, f: f,
			anc: dd.ancestorsFromFinest(li), keys: fd.dimKeys[f.Dimension], attr: ac,
			key: f.Fingerprint()}
	}
	if len(p.filters) > 0 {
		// q.FilterFingerprint, combined from the predicate keys in hand
		// instead of fingerprinting every predicate a second time.
		keys := make([]string, len(p.filters))
		for i := range p.filters {
			keys[i] = p.filters[i].key
		}
		p.filterKey = CombinePredicateFingerprints(keys)
	}
	p.kern = selectKernel(p)
	p.bindPacked(fd)
	return p, nil
}

// bindGroupTable decides the plan's group-table shape. Each level's stride
// is the product of the slot counts of the levels after it — the first
// level is the most significant digit, so composite keys order like the
// GroupBy list — and the plan is dense when the whole key space fits
// maxDenseCells and its cell store maxDenseBytes. The decision depends
// only on dimension cardinalities and the aggregate count, so a plan and
// its shard rebinds always agree on it.
func (p *queryPlan) bindGroupTable() {
	maxCells := min(maxDenseCells, maxDenseBytes/(8*(1+3*len(p.q.Aggregates))))
	cells := 1
	for gi := len(p.groups) - 1; gi >= 0; gi-- {
		slots := len(p.groups[gi].names) + 1
		if cells > maxCells/slots {
			return
		}
		p.groups[gi].stride = int32(cells)
		cells *= slots
	}
	for gi := range p.groups {
		g := &p.groups[gi]
		g.terms = g.dd.keyTerms(g.li, g.stride)
	}
	p.denseCells = cells
	p.groupKey = p.q.GroupFingerprint()
}

// bindPacked attaches the compressed-column execution state to a plan's
// filters: a packed snapshot of each filtered dimension's key column and
// the predicate translated to its matching code set. The translation
// evaluates the predicate once per finest-level member (O(card), a
// vanishing fraction of one fact scan) and depends only on the dimension,
// so every filter gets one; the word-at-a-time stage-1 kernels and the
// bitmap-probe per-fact match both run on it. An empty table's packed
// view has no words, and its scans visit no fact.
func (p *queryPlan) bindPacked(fd *FactData) {
	for i := range p.filters {
		fs := &p.filters[i]
		fs.pk = fd.packed[fs.f.Dimension].view()
		fs.codes = newCodeSet(len(fs.anc), fs.matchCode)
	}
}

// A group's aggregation state is a cell: 1+3n consecutive float64s for a
// plan with n aggregates — the fact count, then n sums, n minima, n maxima
// (AVG needs no state of its own; it divides sum by count at finalize). A
// partial stores its cells in one slice — a dense plan's at their group
// key times the stride, a hashed plan's back to back in creation order —
// so a scan's random access over the touched groups covers 32 bytes per
// group per aggregate, not a pointer-linked struct and its slices.
const (
	cellCount = 0 // offset of the fact count within a cell
	cellSums  = 1 // offset of the first sum; minima and maxima follow
)

// newBlankCell builds the template of an untouched cell for a plan with n
// aggregates: zero count and sums, minima at +Inf, maxima at -Inf — the
// identities of their folds.
func newBlankCell(n int) []float64 {
	blank := make([]float64, 1+3*n)
	for j := 0; j < n; j++ {
		blank[cellSums+n+j] = math.Inf(1)
		blank[cellSums+2*n+j] = math.Inf(-1)
	}
	return blank
}

// mergeCell folds cell src into dst (both of a plan with n aggregates):
// counts and sums add, MIN/MAX narrow.
func mergeCell(dst, src []float64, n int) {
	dst[cellCount] += src[cellCount]
	for j := cellSums; j < cellSums+n; j++ {
		dst[j] += src[j]
		if src[j+n] < dst[j+n] {
			dst[j+n] = src[j+n]
		}
		if src[j+2*n] > dst[j+2*n] {
			dst[j+2*n] = src[j+2*n]
		}
	}
}

// partial is one thread-local partial aggregation table plus scan
// statistics. A dense plan (queryPlan.denseCells > 0 — every group-by whose
// composite key space is small, which includes single levels and grand
// totals) addresses a group's cell by its composite group key; only plans
// above the dense bounds hash the key through cells. Partials recycle
// through FactData.partialPool: rebind resets one for its next plan, and
// every slice and map below survives pooling as reusable capacity.
type partial struct {
	p  *queryPlan
	fd *FactData
	// recs is the cell store (see cellCount), stride floats per cell. A
	// dense plan's cell for group key ck is at ck·stride, seen[ck] is 1 once
	// the cell is in use, and touched lists the keys in use in first-touch
	// order. A hashed plan appends its cells, the c-th at c·stride, and
	// finds them through cells. Between plans every float of recs' and
	// every byte of seen's backing arrays is zero (rebind).
	recs    []float64
	seen    []uint8          // dense plans: 1 per group key in use
	touched []int32          // dense plans: group keys of the cells in use
	cells   map[string]int32 // hashed plans: group members' bytes → cell offset
	// members holds the hashed plans' group members, len(p.groups) per
	// cell in creation order (cellMembers). A dense plan's cell is
	// identified by its key and stores none.
	members []int32
	// stride is the cell stride of the bound plan, kept so rebind can
	// clear its touched cells after the plan is gone.
	stride  int
	scanned int
	matched int
	// cost carries this partial's share of batch artifact bytes (set by
	// the staged scan's attribution pass); merge sums it so the gathered
	// per-shard partials conserve the batch totals.
	cost obs.QueryCost

	keyBuf []byte   // builds the hashed path's map key
	order  []rowKey // finalize's sort scratch
	spare  []rowKey // finalize's radix-sort double buffer
}

// newPartial builds an unpooled partial — the fresh-allocation path the
// pool falls back to, and what tests use as an uncontaminated oracle.
func newPartial(p *queryPlan) *partial {
	pt := &partial{}
	pt.rebind(p)
	return pt
}

// rebind resets a partial for a new plan, recycling every allocation from
// its previous life. The previous plan wrote only its touched cells and
// their seen bytes (dense) or the prefix it appended its cells to
// (hashed); zeroing just those keeps the whole cell store and seen array
// zero, so a dense plan reslices them to its key space without clearing
// the rest. After rebind the partial is
// indistinguishable from a freshly constructed one — the pooled-partial
// hygiene test pins this.
func (pt *partial) rebind(p *queryPlan) {
	for _, ck := range pt.touched {
		clear(pt.recs[int(ck)*pt.stride:][:pt.stride])
		pt.seen[ck] = 0
	}
	if len(pt.cells) > 0 {
		clear(pt.recs)
		clear(pt.cells)
	}
	pt.p = p
	pt.stride = len(p.blankCell)
	pt.scanned, pt.matched = 0, 0
	pt.cost = obs.QueryCost{}
	pt.touched = pt.touched[:0]
	pt.members = pt.members[:0]
	if n := p.denseCells; n > 0 {
		pt.recs = slices.Grow(pt.recs[:0], n*pt.stride)[:n*pt.stride]
		pt.seen = slices.Grow(pt.seen[:0], n)[:n]
	} else {
		pt.recs = pt.recs[:0]
		if pt.cells == nil {
			pt.cells = map[string]int32{}
		}
	}
}

// getPartial takes a pooled (or fresh) partial rebound to the plan. The
// second result reports whether the pool served it (stats fodder).
func (fd *FactData) getPartial(p *queryPlan) (*partial, bool) {
	pt, reused := fd.partialPool.Get().(*partial)
	if !reused {
		pt = &partial{}
	}
	pt.fd = fd
	pt.rebind(p)
	return pt, reused
}

// scanPartials tracks every partial one scan (single-query or batch) took
// from the per-table pools so the executor can return them together once
// the Results are finalized. Error paths may simply drop the tracker —
// unreleased partials fall to the GC like pre-pool partials always did.
type scanPartials struct {
	parts     []*partial
	reused    int
	allocated int
	released  bool
}

// get takes a partial for the plan from its table's pool and tracks it.
func (sp *scanPartials) get(p *queryPlan) *partial {
	pt, reused := p.fd.getPartial(p)
	if reused {
		sp.reused++
	} else {
		sp.allocated++
	}
	sp.parts = append(sp.parts, pt)
	return pt
}

// release returns every tracked partial to its table's pool. Idempotent —
// a sharded gather holds one handle per BatchPartial of the same scan —
// and nil-safe.
func (sp *scanPartials) release() {
	if sp == nil || sp.released {
		return
	}
	sp.released = true
	for _, pt := range sp.parts {
		pt.p = nil
		pt.fd.partialPool.Put(pt)
	}
	sp.parts = nil
}

// process folds fact instance i into the partial: the fused form of the
// three-stage pipeline (filter, decode, accumulate — one fact at a time),
// which only a filtered query over a sparse view still runs.
func (pt *partial) process(i int32, d *scanDrive) {
	pt.scanned++
	if !pt.p.matchFact(i) {
		return
	}
	pt.matched++
	pt.accumulateFact(i, d)
}

// accumulateFact is stage 3 for one fact that already passed the filters:
// find (or claim) the fact's group cell and fold the measures in.
func (pt *partial) accumulateFact(i int32, d *scanDrive) {
	p := pt.p
	var off int
	if p.denseCells > 0 {
		ck := d.key(i)
		off = int(ck) * pt.stride
		if pt.seen[ck] == 0 {
			pt.touch(ck)
		}
	} else {
		off = pt.hashCell(i)
	}
	n := len(p.measureCols)
	cell := pt.recs[off:][:pt.stride]
	cell[cellCount]++
	for j, col := range p.measureCols {
		if col == nil { // COUNT
			continue
		}
		mv := col[i]
		cell[cellSums+j] += mv
		if mv < cell[cellSums+n+j] {
			cell[cellSums+n+j] = mv
		}
		if mv > cell[cellSums+2*n+j] {
			cell[cellSums+2*n+j] = mv
		}
	}
}

// accumulate is stage 3 over facts [lo, hi) that passed stage 1: the set
// bits of m, or every fact when m is nil. A plan with a specialized kernel
// runs it (accumRange, accumMask); the rest fold accumulateFact per fact.
func (pt *partial) accumulate(m *bitset.Set, lo, hi int, d *scanDrive) {
	switch {
	case pt.p.kern != kernGeneric && m == nil:
		pt.accumRange(lo, hi, d)
	case pt.p.kern != kernGeneric:
		pt.accumMask(m, lo, hi, d)
	case m == nil:
		for i := lo; i < hi; i++ {
			pt.accumulateFact(int32(i), d)
		}
	default:
		m.ForEachRange(lo, hi, func(i int) bool {
			pt.accumulateFact(int32(i), d)
			return true
		})
	}
}

// scanFused folds facts [lo, hi) of a query that has no stage-1 bitmap
// into the partial. An unfiltered query accumulates every fact of the
// range (nil mask) or of its view mask. A filtered one has no bitmap only
// when its filter set is priced out by sparseViewK (sparse views only),
// and walks the view's set bits with all three stages fused per fact. The
// drive carries a shared key column when the staged scan materialized
// stage 2.
func (pt *partial) scanFused(lo, hi int, mask *bitset.Set, d *scanDrive) {
	if len(pt.p.filters) > 0 {
		mask.ForEachRange(lo, hi, func(i int) bool {
			pt.process(int32(i), d)
			return true
		})
		return
	}
	c := hi - lo
	if mask != nil {
		c = mask.CountRange(lo, hi)
	}
	pt.scanned += c
	pt.matched += c
	pt.accumulate(mask, lo, hi, d)
}

// merge folds src into pt: MergeFinalize folds sibling shards' partials
// in shard order, so a sharded answer is as reproducible as an unsharded
// one.
//
// A group pt has no cell for yet takes a copy of src's cell as is (not a
// fold into a blank one), so single-source groups keep their exact bits.
func (pt *partial) merge(src *partial) {
	pt.scanned += src.scanned
	pt.matched += src.matched
	pt.cost.Add(src.cost)
	n, stride := len(pt.p.measureCols), pt.stride
	if pt.p.denseCells > 0 {
		for _, ck := range src.touched {
			off := int(ck) * stride
			dst := pt.recs[off : off+stride]
			if pt.seen[ck] == 0 {
				copy(dst, src.recs[off:off+stride])
				pt.seen[ck] = 1
				pt.touched = append(pt.touched, ck)
			} else {
				mergeCell(dst, src.recs[off:], n)
			}
		}
		return
	}
	for k, so := range src.cells {
		if do, ok := pt.cells[k]; ok {
			mergeCell(pt.recs[do:], src.recs[so:], n)
			continue
		}
		pt.cells[k] = int32(len(pt.recs))
		pt.recs = append(pt.recs, src.recs[so:int(so)+stride]...)
		pt.members = append(pt.members, src.cellMembers(int(so)/stride)...)
	}
}

// cellMembers returns the group members of a hashed plan's c-th cell in
// creation order (the cell at offset c·stride).
func (pt *partial) cellMembers(c int) []int32 {
	nl := len(pt.p.groups)
	return pt.members[c*nl : (c+1)*nl]
}

// rowKey is one group's sort key in finalize: the OrderBy aggregate's
// value as an order-preserving integer (orderKey; 0 without OrderBy), the
// group's position in name order, and the cell it stands for.
// Pointer-free, so the scratch slices pool on the partial without pinning
// anything.
type rowKey struct {
	key uint64
	ord int32 // dense plans: composite of the levels' name ranks
	idx int32 // dense plans: the group key; hashed: the cell's creation number
}

// orderKey maps an OrderBy value to a uint64 whose unsigned order is the
// row order: ascending, or descending when desc, with −0 equal to +0 and
// NaN after every number either way.
func orderKey(v float64, desc bool) uint64 {
	if v != v {
		return math.MaxUint64
	}
	if v == 0 {
		v = 0 // −0 ties +0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		b = ^b // a negative number sorts below zero, the larger magnitude first
	} else {
		b |= 1 << 63
	}
	if desc {
		b = ^b
	}
	return b
}

// aggValue is cell's final value for aggregate j (AVG divides here).
func (p *queryPlan) aggValue(cell []float64, j int) float64 {
	n := len(p.measureCols)
	switch p.q.Aggregates[j].Agg {
	case AggSum:
		return cell[cellSums+j]
	case AggCount:
		return cell[cellCount]
	case AggAvg:
		return cell[cellSums+j] / cell[cellCount]
	case AggMin:
		return cell[cellSums+n+j]
	default:
		return cell[cellSums+2*n+j]
	}
}

// nameOrder maps a dense plan's group key to the group's position in
// group-name order: the same mixed-radix number with every slot replaced
// by its name rank, so comparing two groups' names level by level is one
// integer compare. Equal names share a rank, so two groups can share a
// position.
func (p *queryPlan) nameOrder(ck int32) int32 {
	var ord int32
	for gi := range p.groups {
		g := &p.groups[gi]
		slot := ck / g.stride
		ck -= slot * g.stride
		ord += g.rank[slot] * g.stride
	}
	return ord
}

// compareMembers orders two hashed cells by group names, level by level
// through the name ranks; members break ties between same-named groups so
// the order is total.
func (p *queryPlan) compareMembers(a, b []int32) int {
	for gi := range p.groups {
		rank := p.groups[gi].rank
		if c := cmp.Compare(rank[a[gi]+1], rank[b[gi]+1]); c != 0 {
			return c
		}
	}
	return slices.Compare(a, b)
}

// finalize turns a fully merged partial into the query Result: AVG
// division, ordering, limit, group names. Rows are ordered by the OrderBy
// value, then group names level by level, then members (group key). It
// sorts pointer-free keys (one per touched cell) rather than rows — a
// dense plan by radix (sortDense), a hashed one by comparator — then
// materializes only the rows that survive Limit, carving their Groups and
// Values out of two flat slabs: three allocations per Result however many
// rows, and a truncated Result retains nothing sized by the groups it
// dropped.
func (p *queryPlan) finalize(pt *partial) *Result {
	res := &Result{GroupCols: p.groupCols, AggCols: p.aggCols,
		ScannedFacts: pt.scanned, MatchedFacts: pt.matched}

	// One key per cell in use. idx is the group key on a dense plan and
	// the cell's creation number on a hashed one; either way the cell is
	// at idx·stride.
	dense := p.denseCells > 0
	nl, na, stride := len(p.groups), len(p.measureCols), pt.stride
	rows := len(pt.recs) / stride
	if dense {
		rows = len(pt.touched)
	}
	ob := p.q.OrderBy
	order := slices.Grow(pt.order[:0], rows)[:rows]
	for r := range order {
		k := rowKey{idx: int32(r)}
		if dense {
			k.idx = pt.touched[r]
			k.ord = p.nameOrder(k.idx)
		}
		if ob != nil {
			k.key = orderKey(p.aggValue(pt.recs[int(k.idx)*stride:], ob.Agg), ob.Desc)
		}
		order[r] = k
	}

	// The cost vector: artifact-byte shares accumulated on the partial
	// by the staged scan, plus the scan counters and the distinct group
	// cells materialized (pre-Limit).
	res.Cost = pt.cost
	res.Cost.FactsScanned += int64(pt.scanned)
	res.Cost.FactsMatched += int64(pt.matched)
	res.Cost.CellsTouched += int64(len(order))

	if dense {
		order = pt.sortDense(order, ob != nil)
	} else {
		slices.SortFunc(order, func(a, b rowKey) int {
			if a.key != b.key {
				return cmp.Compare(a.key, b.key)
			}
			return p.compareMembers(pt.cellMembers(int(a.idx)), pt.cellMembers(int(b.idx)))
		})
		pt.order = order
	}
	if p.q.Limit > 0 && len(order) > p.q.Limit {
		order = order[:p.q.Limit]
	}
	if len(order) == 0 {
		return res
	}

	res.Rows = make([]Row, len(order))
	names := make([]string, len(order)*nl)
	values := make([]float64, len(order)*na)
	for r, k := range order {
		row := &res.Rows[r]
		if nl > 0 {
			row.Groups = names[r*nl : (r+1)*nl : (r+1)*nl]
		}
		ck := k.idx
		for gi := range p.groups {
			g := &p.groups[gi]
			var slot int32
			if dense {
				slot = ck / g.stride
				ck -= slot * g.stride
			} else {
				slot = pt.cellMembers(int(k.idx))[gi] + 1
			}
			row.Groups[gi] = slotName(g.names, slot)
		}
		row.Values = values[r*na : (r+1)*na : (r+1)*na]
		cell := pt.recs[int(k.idx)*stride:]
		for j := range row.Values {
			row.Values[j] = p.aggValue(cell, j)
		}
	}
	return res
}

// sortDense orders a dense plan's row keys by (key, ord, idx) without a
// comparator: a stable radix sort on ord, then the rare runs of equal ord
// (same-named groups) into group-key order, then — when the plan orders by
// an aggregate — a stable radix sort on key. Both buffers stay on the
// partial for its next plan.
func (pt *partial) sortDense(order []rowKey, byKey bool) []rowKey {
	spare := slices.Grow(pt.spare[:0], len(order))[:len(order)]
	ordBytes := (bits.Len32(uint32(pt.p.denseCells-1)) + 7) / 8
	order, spare = radixSort(order, spare, ordBytes, false)
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && order[hi].ord == order[lo].ord {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(order[lo:hi], func(a, b rowKey) int { return cmp.Compare(a.idx, b.idx) })
		}
		lo = hi
	}
	if byKey {
		order, spare = radixSort(order, spare, 8, true)
	}
	pt.order, pt.spare = order, spare
	return order
}

// radix is the integer radixSort orders a row key by: key, or ord.
func (r *rowKey) radix(byKey bool) uint64 {
	if byKey {
		return r.key
	}
	return uint64(uint32(r.ord))
}

// radixSort stably sorts a by the low digits bytes of its radix (key or
// ord), least significant byte first, through the equally long b, and
// returns the sorted slice and the other buffer. One pass counts every
// byte position; a position where all rows share one byte value is
// skipped, so small or clustered values cost few passes.
func radixSort(a, b []rowKey, digits int, byKey bool) (sorted, spare []rowKey) {
	if len(a) < 2 {
		return a, b
	}
	var hist [8][256]int32
	for i := range a {
		v := a[i].radix(byKey)
		for d := range digits {
			hist[d][byte(v>>(8*d))]++
		}
	}
	first := a[0].radix(byKey)
	for d := range digits {
		shift := 8 * uint(d)
		h := &hist[d]
		if h[byte(first>>shift)] == int32(len(a)) {
			continue
		}
		var sum int32
		for i, c := range h {
			h[i] = sum
			sum += c
		}
		for i := range a {
			dg := byte(a[i].radix(byKey) >> shift)
			b[h[dg]] = a[i]
			h[dg]++
		}
		a, b = b, a
	}
	return a, b
}

// Execute runs the query through the given view (nil view = the whole
// warehouse, the non-personalized baseline). It is the batch executor over
// a batch of one: a filtered query fills its own stage-1 bitmap with the
// packed predicate kernels and accumulates off it (loneScan).
func (c *Cube) Execute(q Query, v *View) (*Result, error) {
	p, err := c.compile(q)
	if err != nil {
		return nil, err
	}
	var mask *bitset.Set
	if v != nil {
		// A personalized view materializes its combined mask once; the
		// query then visits only visible facts — the mechanical form of the
		// paper's "avoiding exploring a large and complex SDW". The
		// non-personalized baseline (nil view) scans the whole fact table.
		mask = v.Materialize(q.Fact)
	}
	var sp scanPartials
	out := []*partial{nil}
	executeBatchPartials([]*queryPlan{p}, []*bitset.Set{mask}, out, &sp, BatchOptions{})
	res := p.finalize(out[0])
	sp.release()
	return res, nil
}

// ExecuteParallel is Execute; workers is ignored. It stays only for the
// benchmark's executor shim until that shim goes (ROADMAP item 5(a)).
func (c *Cube) ExecuteParallel(q Query, v *View, workers int) (*Result, error) {
	return c.Execute(q, v)
}

// CompiledQuery is a validated query plan bound to its cube. Plans are
// read-only after compilation, so one CompiledQuery may be executed any
// number of times and shared across goroutines; the scheduler compiles on
// admission and reuses the plan for the scan instead of resolving the
// query twice.
//
// A plan binds snapshots of the cube's columns (measures, dimension keys,
// roll-up caches, filter attribute columns) as they were at Compile time,
// together with the fact count (queryPlan.n) those snapshots cover.
// Appending facts afterwards is safe — AddFact grows the columns without
// disturbing the prefix a plan holds, and the plan's scans stay bounded
// by its compile-time count, so a plan held across concurrent ingest
// aggregates exactly the table prefix that existed when it was compiled.
// Structural mutation (loading dimension data, redefining attributes)
// still invalidates plans — compile after loading, as the scheduler does
// per admission.
type CompiledQuery struct {
	c *Cube
	p *queryPlan
}

// Compile resolves and validates a query for later batch execution.
func (c *Cube) Compile(q Query) (*CompiledQuery, error) {
	p, err := c.compile(q)
	if err != nil {
		return nil, err
	}
	return &CompiledQuery{c: c, p: p}, nil
}

// Query returns the source query of the plan.
func (cq *CompiledQuery) Query() Query { return cq.p.q }

// Rebind clones the plan onto another cube's fact columns. The target must
// share this plan's warehouse metadata — it is either the same cube, a
// fact shard derived from it via NewFactShard, or a sibling shard — so
// every name the plan resolved (levels, attributes, roll-up caches) stays
// valid and only the fact-local bindings (dimension key columns, measure
// columns, table handle) are swapped. This is how the shard executor
// compiles a query once and fans it out: one resolve, N cheap rebinds.
func (cq *CompiledQuery) Rebind(target *Cube) (*CompiledQuery, error) {
	if target == cq.c {
		return cq, nil
	}
	src, dst := cq.c, target
	if src.shardParent != nil {
		src = src.shardParent
	}
	if dst.shardParent != nil {
		dst = dst.shardParent
	}
	if src != dst {
		return nil, fmt.Errorf("cube: cannot rebind plan for fact %q onto an unrelated cube", cq.p.q.Fact)
	}
	p := cq.p
	fd := target.facts[p.q.Fact]
	if fd == nil {
		return nil, fmt.Errorf("cube: rebind target has no fact %q", p.q.Fact)
	}
	np := *p
	np.fd = fd
	np.n = fd.n
	np.groups = append([]groupSpec(nil), p.groups...)
	for i := range np.groups {
		np.groups[i].keys = fd.dimKeys[np.groups[i].dd.dim.Name]
	}
	np.filters = append([]filterSpec(nil), p.filters...)
	for i := range np.filters {
		fs := &np.filters[i]
		fs.keys = fd.dimKeys[fs.f.Dimension]
		// Re-snapshot the packed key column from the target shard. The
		// code set is reused as-is: it is member-level (dimension data is
		// shared by reference across the shard family), not fact-local.
		fs.pk = fd.packed[fs.f.Dimension].view()
	}
	np.measureCols = make([][]float64, len(p.measureCols))
	for j, a := range p.q.Aggregates {
		if p.measureCols[j] != nil {
			np.measureCols[j] = fd.measures[a.Measure]
		}
	}
	return &CompiledQuery{c: target, p: &np}, nil
}

// BatchOptions configures one shared batch scan.
type BatchOptions struct {
	// Trace optionally collects per-stage wall times of this scan (one
	// ShardScan per fact group, plus gather/finalize time). nil — the
	// default — records nothing; every timing hook is guarded by a single
	// pointer test taken once per scan phase, never per fact, so the
	// scan loop is untouched.
	Trace *obs.ScanTrace
	// TraceShard labels recorded ShardScans with the shard index of this
	// scan (the shard executor sets it per fan-out goroutine; 0 when
	// unsharded).
	TraceShard int
}

// SharingStats reports how much cross-query stage-1/2 work one batch
// shared: instances are (query, artifact) uses, distinct counts are the
// artifacts actually needed. instances/distinct > 1 means the batch saved
// redundant filter evaluations or roll-up decodes.
type SharingStats struct {
	// Queries is the number of queries the batch executed.
	Queries int `json:"queries"`
	// FilterSets counts queries carrying at least one filter;
	// DistinctFilterSets the distinct filter-set sub-fingerprints among
	// them (= filter bitmaps the scan conceptually needs).
	FilterSets         int `json:"filterSets"`
	DistinctFilterSets int `json:"distinctFilterSets"`
	// FilterPredicates counts (query, distinct-predicate) uses across the
	// batch; DistinctPredicates the distinct single-AttrFilter
	// sub-fingerprints among them (= predicate bitmaps the scan
	// conceptually needs under per-filter sharing). Their ratio is the
	// per-predicate sharing factor: queries filtering
	// {year=2009, region=EU} and {year=2009, region=US} count 4 instances
	// over 3 distinct predicates.
	FilterPredicates   int `json:"filterPredicates"`
	DistinctPredicates int `json:"distinctPredicates"`
	// ComposedMasks counts filter-set masks this scan built with at least
	// one predicate ANDed in from a predicate bitmap instead of running its
	// kernel.
	ComposedMasks int `json:"composedMasks"`
	// GroupKeySets counts queries with a dense, non-empty group-by;
	// DistinctGroupings the distinct group-by lists among them (= roll-up
	// key columns the scan conceptually needs).
	GroupKeySets      int `json:"groupKeySets"`
	DistinctGroupings int `json:"distinctGroupings"`
	// ArtifactCacheHits counts artifacts this scan took from the table's
	// cross-batch cache instead of re-materializing.
	ArtifactCacheHits int `json:"artifactCacheHits"`
	// PartialsReused / PartialsAllocated count the partial aggregation
	// tables this scan took from the per-table pool vs allocated fresh (a
	// warm steady state is all reuse).
	PartialsReused    int `json:"partialsReused"`
	PartialsAllocated int `json:"partialsAllocated"`
	// PackedKernelScans counts queries whose plan ran a specialized
	// stage-3 accumulate kernel (exec_kernels.go) in this batch;
	// PackedPredicateKernels counts the word-at-a-time packed-column
	// predicate kernels stage 1 ran over the table: one per shared
	// predicate bitmap, and one per predicate of a set mask that no
	// predicate bitmap covered.
	PackedKernelScans      int `json:"packedKernelScans"`
	PackedPredicateKernels int `json:"packedPredicateKernels"`
	// BitmapBytesBuilt / KeyColBytesBuilt total the filter bitmaps and
	// roll-up key columns this scan freshly materialized (cache hits
	// excluded). The per-query Result.Cost byte shares sum exactly to
	// these — the conservation law the cost tests pin.
	BitmapBytesBuilt int64 `json:"bitmapBytesBuilt"`
	KeyColBytesBuilt int64 `json:"keyColBytesBuilt"`
}

// Add folds another scan's stats in (the batch executor totals its
// per-fact-group scans; the shard table totals its per-shard scans).
func (s *SharingStats) Add(o SharingStats) {
	s.Queries += o.Queries
	s.FilterSets += o.FilterSets
	s.DistinctFilterSets += o.DistinctFilterSets
	s.FilterPredicates += o.FilterPredicates
	s.DistinctPredicates += o.DistinctPredicates
	s.ComposedMasks += o.ComposedMasks
	s.GroupKeySets += o.GroupKeySets
	s.DistinctGroupings += o.DistinctGroupings
	s.ArtifactCacheHits += o.ArtifactCacheHits
	s.PartialsReused += o.PartialsReused
	s.PartialsAllocated += o.PartialsAllocated
	s.PackedKernelScans += o.PackedKernelScans
	s.PackedPredicateKernels += o.PackedPredicateKernels
	s.BitmapBytesBuilt += o.BitmapBytesBuilt
	s.KeyColBytesBuilt += o.KeyColBytesBuilt
}

// ExecuteBatch answers a batch of queries in one shared scan per fact
// table (see ExecuteBatchCompiledOpt); vs pairs each query with its
// personalized view (nil vs or a nil entry = the baseline). workers is
// ignored: the method stays only for the benchmark's executor shim until
// that shim goes (ROADMAP item 5(a)). Validation errors of any query abort
// the whole batch before scanning starts.
func (c *Cube) ExecuteBatch(qs []Query, vs []*View, workers int) ([]*Result, error) {
	cqs := make([]*CompiledQuery, len(qs))
	for i, q := range qs {
		cq, err := c.Compile(q)
		if err != nil {
			return nil, fmt.Errorf("cube: batch query %d: %w", i, err)
		}
		cqs[i] = cq
	}
	res, _, err := c.ExecuteBatchCompiledOpt(cqs, vs, BatchOptions{})
	return res, err
}

// ExecuteBatchCompiledOpt runs one shared scan per fact table over
// pre-compiled plans (every entry must come from this cube's Compile).
// Each fact group's scan first materializes the shareable pipeline stages
// that pay for themselves as batch-scoped artifacts — one filter bitmap
// per distinct filter set and one composite roll-up key column per
// distinct group-by list, identified by the plans' sub-fingerprints — and
// then drives every query's accumulation off the shared artifacts chunk by
// chunk, so queries that differ only in selection mask or measure stop
// re-evaluating each other's filters and re-deriving each other's group
// keys. Results are byte-identical to a lone scan of each query (the
// randomized harness in exec_equiv_test.go pins both against an
// executor-independent reference).
func (c *Cube) ExecuteBatchCompiledOpt(cqs []*CompiledQuery, vs []*View, opts BatchOptions) ([]*Result, SharingStats, error) {
	var stats SharingStats
	if vs != nil && len(vs) != len(cqs) {
		return nil, stats, fmt.Errorf("cube: batch has %d queries but %d views", len(cqs), len(vs))
	}
	plans := make([]*queryPlan, len(cqs))
	masks := make([]*bitset.Set, len(cqs))
	for i, cq := range cqs {
		if cq == nil || cq.c != c {
			return nil, stats, fmt.Errorf("cube: batch query %d not compiled for this cube", i)
		}
		plans[i] = cq.p
		if vs != nil && vs[i] != nil {
			masks[i] = vs[i].Materialize(cq.p.q.Fact)
		}
	}
	var sp scanPartials
	out := make([]*partial, len(cqs))
	stats = executeBatchPartials(plans, masks, out, &sp, opts)
	var t0 time.Time
	if opts.Trace != nil {
		t0 = time.Now()
	}
	results := make([]*Result, len(cqs))
	for i, pt := range out {
		results[i] = plans[i].finalize(pt)
	}
	sp.release()
	if opts.Trace != nil {
		opts.Trace.AddGather(time.Since(t0))
	}
	return results, stats, nil
}

// executeBatchPartials is the shared core of the batch executors: group
// queries by fact (first-appearance order) so each fact table is scanned
// once per batch, run the shared scans, and leave one fully merged (but
// not yet finalized) partial per query in out (len(plans), all nil on
// entry). masks are pre-materialized view masks (nil = whole table). sp
// takes every pooled partial of the scan; callers release it after
// finalizing.
func executeBatchPartials(plans []*queryPlan, masks []*bitset.Set, out []*partial, sp *scanPartials, opts BatchOptions) SharingStats {
	var stats SharingStats
	for _, p := range plans {
		if p.kern != kernGeneric {
			stats.PackedKernelScans++
		}
	}
	for i, p := range plans {
		if out[i] != nil {
			continue // scanned with an earlier plan over its fact table
		}
		// A batch over one fact table — the common case — scans plans,
		// masks and out in place; otherwise the group is gathered and its
		// partials scattered back.
		gp, gm, gout := plans[i:], masks[i:], out[i:]
		var idxs []int
		for _, o := range plans[i:] {
			if o.q.Fact != p.q.Fact {
				idxs = factGroup(plans, p.q.Fact, i)
				break
			}
		}
		if idxs != nil {
			gp = make([]*queryPlan, len(idxs))
			gm = make([]*bitset.Set, len(idxs))
			gout = make([]*partial, len(idxs))
			for k, qi := range idxs {
				gp[k], gm[k] = plans[qi], masks[qi]
			}
		}
		n := groupScanBound(gp)
		var sc *obs.ShardScan
		var t0 time.Time
		if opts.Trace != nil {
			sc = &obs.ShardScan{Shard: opts.TraceShard, Facts: n}
			t0 = time.Now()
		}
		stats.Add(scanSharedStaged(gp, gm, gout, n, sp, sc))
		if sc != nil {
			sc.Wall = time.Since(t0)
			opts.Trace.AddShard(*sc)
		}
		for k, qi := range idxs {
			out[qi] = gout[k]
		}
	}
	stats.PartialsReused = sp.reused
	stats.PartialsAllocated = sp.allocated
	return stats
}

// factGroup lists the positions of the plans over fact, from start on.
func factGroup(plans []*queryPlan, fact string, start int) []int {
	var idxs []int
	for qi := start; qi < len(plans); qi++ {
		if plans[qi].q.Fact == fact {
			idxs = append(idxs, qi)
		}
	}
	return idxs
}

// groupScanBound is the shared scan bound for one fact group: the minimum
// of the group's compile-time fact counts. Plans in a group always target
// the same fact table but may have been compiled at different times —
// under concurrent ingest a later plan's column snapshots are longer — so
// the group's single walk must stop where the shortest snapshot
// does. Facts past the bound are simply invisible to this batch, exactly
// as they are to a serial execution of the earliest-compiled plan.
func groupScanBound(plans []*queryPlan) int {
	n := plans[0].n
	for _, p := range plans[1:] {
		n = min(n, p.n)
	}
	return n
}

// BatchPartial is one query's merged partial aggregation state from a
// shared scan over one cube — typically one fact shard. Partials from
// sibling shards of the same scatter merge through MergeFinalize into the
// Result the unsharded executor would have produced.
type BatchPartial struct {
	p  *queryPlan
	pt *partial
	// sp is the owning scan's pooled-partials handle, shared by every
	// BatchPartial of the scan; MergeFinalize releases it (idempotently)
	// once the gathered Results are finalized.
	sp *scanPartials
}

// ExecuteBatchCompiledPartials runs the same shared scan as
// ExecuteBatchCompiledOpt but stops before finalize, returning each
// query's merged partial. masks pairs each query with a pre-materialized
// visibility mask over this cube's fact table (nil entry or nil slice =
// whole table); the shard layer passes the per-shard slice of a split
// view mask here. Plans must be compiled for (or rebound onto) this cube.
func (c *Cube) ExecuteBatchCompiledPartials(cqs []*CompiledQuery, masks []*bitset.Set, opts BatchOptions) ([]*BatchPartial, SharingStats, error) {
	var stats SharingStats
	if masks != nil && len(masks) != len(cqs) {
		return nil, stats, fmt.Errorf("cube: batch has %d queries but %d masks", len(cqs), len(masks))
	}
	plans := make([]*queryPlan, len(cqs))
	for i, cq := range cqs {
		if cq == nil || cq.c != c {
			return nil, stats, fmt.Errorf("cube: batch query %d not compiled for this cube", i)
		}
		plans[i] = cq.p
	}
	if masks == nil {
		masks = make([]*bitset.Set, len(cqs))
	}
	sp := &scanPartials{}
	parts := make([]*partial, len(cqs))
	stats = executeBatchPartials(plans, masks, parts, sp, opts)
	out := make([]*BatchPartial, len(parts))
	for i, pt := range parts {
		out[i] = &BatchPartial{p: plans[i], pt: pt, sp: sp}
	}
	return out, stats, nil
}

// MergeFinalize gathers a scatter: shards[s][i] is query i's partial from
// shard s. Per query, the shard partials are merged in shard order, so
// the answer is reproducible, and finalized into the Result the unsharded engine would return (AVG divides
// merged sums by merged counts, MIN/MAX narrow). The partials are consumed.
func MergeFinalize(shards [][]*BatchPartial) ([]*Result, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cube: merge of zero shards")
	}
	nq := len(shards[0])
	for s, parts := range shards {
		if len(parts) != nq {
			return nil, fmt.Errorf("cube: shard %d has %d partials, want %d", s, len(parts), nq)
		}
	}
	results := make([]*Result, nq)
	for i := 0; i < nq; i++ {
		base := shards[0][i]
		for s := 1; s < len(shards); s++ {
			base.pt.merge(shards[s][i].pt)
		}
		results[i] = base.p.finalize(base.pt)
	}
	// Consumed: every shard scan's pooled partials go back to their
	// table's pool. release is idempotent, so iterating every handle
	// (shards of one scan share one) is fine.
	for _, parts := range shards {
		for _, bp := range parts {
			bp.sp.release()
		}
	}
	return results, nil
}

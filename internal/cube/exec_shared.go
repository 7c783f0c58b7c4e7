package cube

import (
	"slices"
	"time"

	"sdwp/internal/bitset"
	"sdwp/internal/obs"
)

// This file is the batch executor — the only one: the explicit (staged)
// form of the three-stage pipeline in exec.go. One shared scan first
// materializes stage 1 (filter-set masks) and stage 2 (composite roll-up
// key columns, one per distinct group-by list of dense plans) as
// batch-scoped artifacts shared by every query whose sub-fingerprint
// matches, then runs stage 3 (accumulation) for all queries chunk by
// chunk off the shared artifacts. Queries that differ only in selection
// mask or measure — many personalized views over one fact table, the
// paper's core workload — then pay the filter evaluation and group-key
// decode once per batch instead of once per query.
//
// Stage 1 has one builder and one pricing rule. A filter set gets a mask —
// the whole conjunction of its predicates, built by fillFilterMask — when
// its users' visible facts weighted by sparseViewK reach one table pass (a
// user with no view weighs the whole table; see sparseViewK), or when
// predicate bitmaps cover all of its predicates, so that it costs only
// word-ANDs. A predicate recurring across two priced sets gets a bitmap
// of its own, which their fills AND in instead of re-running its kernel.
// Every user of a set mask iterates it intersected with its view. A
// filtered query whose set has no mask — all its users see sparse views —
// walks its view's set bits with the stages fused per fact
// (partial.scanFused). A lone query (a batch of one) takes the same
// decision in loneScan, which skips the planner and the artifact cache
// and ANDs its view in during the fill. A group-by unique in the batch
// decodes its keys inline. Materialized artifacts are also the natural
// per-shard exchange unit once the fact table is sharded across
// processes.

// sharedArtifacts holds one fact group's materialized stage-1/2 results.
// Artifacts are scan-scoped and recycled through the fact table's pools
// (releaseArtifacts) — a busy scheduler materializes them thousands of
// times per second, and allocating them fresh each scan showed up as GC
// pressure that starved concurrent writers on small hosts — unless they
// came from (or were handed to) the table's cross-batch artifact cache
// (exec_cache.go), in which case the cache owns them: cached artifacts
// are immutable, may be read by several concurrent scans, and are never
// returned to the pools.
type sharedArtifacts struct {
	fd          *FactData
	filterMasks map[string]*bitset.Set // filter-set sub-fingerprint → bitmap
	predMasks   map[string]*bitset.Set // predicate sub-fingerprint → bitmap
	keyCols     map[string][]int32     // group-by list sub-fingerprint → composite key column
	// cacheOwned marks sub-fingerprints whose artifact the cross-batch
	// cache owns; releaseArtifacts must not pool those. One map serves all
	// three keyspaces: set fingerprints start with a digit, predicate
	// fingerprints with 'w', grouping fingerprints with 'g' — they cannot
	// collide.
	cacheOwned map[string]bool
}

// markOwned records that the cache owns the artifact under key.
func (a *sharedArtifacts) markOwned(key string) {
	if a.cacheOwned == nil {
		a.cacheOwned = map[string]bool{}
	}
	a.cacheOwned[key] = true
}

// getKeyCol takes a recycled (or fresh) key column sized to the table.
func (fd *FactData) getKeyCol() []int32 {
	if v, ok := fd.colPool.Get().(*[]int32); ok && len(*v) == fd.n {
		return *v
	}
	return make([]int32, fd.n)
}

// getMask takes a recycled (or fresh) zeroed bitmap sized to the table.
func (fd *FactData) getMask() *bitset.Set {
	if v, ok := fd.maskPool.Get().(*bitset.Set); ok && v.Len() == fd.n {
		v.Reset()
		return v
	}
	return bitset.New(fd.n)
}

// queryScan is one query's precomputed accumulation drive: which mask to
// iterate, whether filters are pre-applied through it, and the shared
// composite key column (nil decodes inline).
type queryScan struct {
	// view is the personalized visibility mask (nil = whole table); its
	// per-chunk popcount is the query's ScannedFacts contribution.
	view *bitset.Set
	// iter is the mask accumulation iterates: the query's set mask
	// intersected with its view when stage 1 ran ahead of the scan,
	// otherwise view (and a filtered query runs matchFact inline). nil
	// iterates every fact.
	iter *bitset.Set
	// prefiltered marks that iter already encodes the filters, so matched
	// facts are counted by popcount instead of per-fact evaluation.
	prefiltered bool
	// ownIter marks an iter taken from the mask pool for this query alone
	// (a lone query's mask, or a set mask intersected with the view),
	// which releaseArtifacts returns to the pool.
	ownIter bool
	// keyCol is the plan's shared composite group-key column (nil → inline
	// decode, scanDrive.key).
	keyCol []int32
}

// scanRangeStaged folds facts [lo, hi) into pt, driving stage 3 off qs's
// masks and key columns (partial.scanFused when nothing was prefiltered).
func (pt *partial) scanRangeStaged(lo, hi int, qs *queryScan) {
	d := pt.p.drive(qs.keyCol)
	if qs.prefiltered {
		// Stage 1 ran ahead of the scan: ScannedFacts is the view's
		// popcount (identical to the fused path, which counts every
		// visible fact it visits), and only facts passing every filter are
		// visited at all.
		if qs.view == nil {
			pt.scanned += hi - lo
		} else {
			pt.scanned += qs.view.CountRange(lo, hi)
		}
		pt.matched += qs.iter.CountRange(lo, hi)
		pt.accumulate(qs.iter, lo, hi, &d)
		return
	}
	// No stage-1 bitmap: unfiltered, or filtered over a sparse view. Stage
	// 2 may still come from the shared key column.
	pt.scanFused(lo, hi, qs.view, &d)
}

// sparseViewK prices stage 1; it is the decision's only constant. A
// filter set gets a mask when Σ over its users of visible facts ×
// sparseViewK reaches the scan's n facts, a user with no view counting n.
// A set left out has only users over sparse views (under n/sparseViewK
// visible facts each, and fewer together), which test their filters per
// visible fact (partial.scanFused) unless predicate bitmaps already cover
// the set. BenchmarkLoneFilteredScan's view arms price it: the fused walk
// costs about 23 ns per visible fact, a mask about 1.4 ns per table fact,
// so the two meet near n/16 visible facts (see docs/ARCHITECTURE.md,
// "Columnar executor"). Sharing needs no threshold of its own: every
// priced user would fill a whole-table mask alone, so one shared fill
// never costs more than the fills it replaces.
const sparseViewK = 16

// filterSet is one distinct filter set of a batch, as buildArtifacts
// counts it.
type filterSet struct {
	p     *queryPlan // the first plan seen; every plan of the set holds its predicates
	preds []string   // distinct predicate sub-fingerprints
	users []int      // using queries (indices into the batch's plans)
	mass  int        // Σ users' visible facts priced by sparseViewK
}

// maskFill is one filter-set mask stage 1 builds this scan.
type maskFill struct {
	p    *queryPlan // a plan of the set: every one holds its predicates
	m    *bitset.Set
	view *bitset.Set // ANDed in during the fill: a lone query's view, else nil
	// users are the set's queries (indices into the scan's plans and
	// costs), charged for m.
	users []int
}

// fillMasks is stage 1 of one scan over [0, n). It fills the fresh
// predicate bitmaps first (fresh names the spec of each; the bitmaps are
// preds' entries) and then every set mask of fills through fillFilterMask,
// which ANDs in the words of whichever predicate bitmaps preds holds and
// runs the packed kernels for the rest. It counts the set masks'
// kernels and compositions in stats and charges each mask to its users.
func fillMasks(fills []maskFill, preds map[string]*bitset.Set, fresh map[string]*filterSpec, n int, stats *SharingStats, costs []obs.QueryCost) {
	var scratch *bitset.Set
	for _, f := range fills {
		kernels, composed := 0, false
		for fi := range f.p.filters {
			if f.p.repeatsFilter(fi) {
				continue
			}
			if preds[f.p.filters[fi].key] != nil {
				composed = true
			} else {
				kernels++
			}
		}
		stats.PackedPredicateKernels += kernels
		if composed {
			stats.ComposedMasks++
		}
		if scratch == nil && (kernels > 1 || kernels > 0 && composed) {
			scratch = f.p.fd.getMask()
		}
		b := maskBytes(f.m)
		stats.BitmapBytesBuilt += b
		chargeArtifact(costs, f.users, b, true)
	}
	for pk, fs := range fresh {
		fs.materializePredicateMask(n, preds[pk])
	}
	for _, f := range fills {
		f.p.fillFilterMask(n, f.m, scratch, f.view, preds)
	}
	if scratch != nil {
		fills[0].p.fd.maskPool.Put(scratch)
	}
}

// loneUser is the users list of a lone query's mask.
var loneUser = []int{0}

// loneScan is stage 1 of a batch of one and its query's drive. The query
// shares nothing and never reads or offers the table's artifact cache, so
// the planner is skipped: a filtered query whose set the pricing rule
// gives a mask (sparseViewK) fills one of its own with its view ANDed in,
// and iterates it.
func loneScan(p *queryPlan, view *bitset.Set, n int, stats *SharingStats, costs []obs.QueryCost) queryScan {
	qs := queryScan{view: view, iter: view}
	if p.filterKey == "" || view != nil && view.CountRange(0, n)*sparseViewK < n {
		return qs
	}
	fill := []maskFill{{p: p, m: p.fd.getMask(), view: view, users: loneUser}}
	fillMasks(fill, nil, nil, n, stats, costs)
	qs.iter, qs.prefiltered, qs.ownIter = fill[0].m, true, true
	return qs
}

// buildArtifacts materializes the filter-set masks, predicate bitmaps and
// key columns a fact group's plans share, and returns them plus the
// batch's sharing statistics. Stage 1 follows the pricing rule in
// buildFilterMasks. A key column needs at least two sharing queries whose
// combined decode mass exceeds one table pass; it is decided after the
// filter masks are filled, so a filtered query weighs the popcount of its
// set mask rather than its full visible mass (stage 2 runs only on facts
// that passed stage 1). Results are byte-identical whichever way either
// decision goes.
//
// Every distinct sub-fingerprint — set masks, predicate bitmaps and key
// columns alike — is first looked up in the table's cross-batch cache by
// (fingerprint, table version): a hit is free, so it is used even by a
// single query of the batch, and freshly filled artifacts — set masks
// only when two queries use them — are offered to the cache (its
// doorkeeper admits only fingerprints seen across at least two scans) so
// the next batch's lookup hits. Cache-owned artifacts are immutable and
// bypass the pools.
//
// A non-nil sc receives the stage-1 (filter-mask) and stage-2 (group
// decode) wall times — two time.Now() pairs per scan, nothing per fact.
//
// plans and masks are one fact group's (see scanSharedStaged). A non-nil
// costs (indexed like plans) receives each query's byte share of the
// artifacts this scan freshly materializes — see chargeArtifact for the
// split.
func buildArtifacts(plans []*queryPlan, masks []*bitset.Set, n int, sc *obs.ShardScan, costs []obs.QueryCost) (*sharedArtifacts, SharingStats) {
	stats := SharingStats{Queries: len(plans)}
	sets := map[string]*filterSet{}       // set sub-fingerprint → census
	predOwner := map[string]*filterSpec{} // any resolved spec for the predicate
	groupOwner := map[string]*queryPlan{}
	// Artifact → using queries (indices into plans/costs), for cost
	// attribution.
	predUsers := map[string][]int{}
	groupUsers := map[string][]int{}
	visible := make([]int, len(plans))
	for k, p := range plans {
		visible[k] = n
		if masks[k] != nil {
			visible[k] = masks[k].CountRange(0, n)
		}
		if p.filterKey != "" {
			stats.FilterSets++
			s := sets[p.filterKey]
			if s == nil {
				// Every plan with this set fingerprint holds the same
				// predicate multiset (the set key is derived from the
				// predicate keys), so the first plan seen speaks for all.
				stats.DistinctFilterSets++
				s = &filterSet{p: p}
				sets[p.filterKey] = s
				for fi := range p.filters {
					if fs := &p.filters[fi]; !p.repeatsFilter(fi) {
						s.preds = append(s.preds, fs.key)
						if predOwner[fs.key] == nil {
							predOwner[fs.key] = fs
						}
					}
				}
			}
			s.users = append(s.users, k)
			if masks[k] == nil {
				s.mass += n
			} else {
				s.mass += visible[k] * sparseViewK
			}
			for _, pk := range s.preds {
				stats.FilterPredicates++
				if len(predUsers[pk]) == 0 {
					stats.DistinctPredicates++
				}
				predUsers[pk] = append(predUsers[pk], k)
			}
		}
		if p.groupKey != "" {
			stats.GroupKeySets++
			if len(groupUsers[p.groupKey]) == 0 {
				stats.DistinctGroupings++
				groupOwner[p.groupKey] = p
			}
			groupUsers[p.groupKey] = append(groupUsers[p.groupKey], k)
		}
	}

	fd := plans[0].fd
	version := fd.version.Load()
	// Artifacts are offered to the table's cache only when this scan
	// fills them over the whole live table: a group compiled before
	// concurrent ingest scans a shorter prefix (n < fd.n), and caching such
	// a partially filled bitmap under the live version would hand later
	// full-length scans missing facts. Cache *hits* are always safe — a hit
	// was filled full-length at this version, and scans never iterate past
	// their own bound.
	cachePut := n == fd.n
	art := &sharedArtifacts{fd: fd, filterMasks: map[string]*bitset.Set{},
		predMasks: map[string]*bitset.Set{}, keyCols: map[string][]int32{}}

	var t0 time.Time
	if sc != nil {
		t0 = time.Now()
	}
	buildFilterMasks(art, &stats, sets, predOwner, predUsers, n, version, cachePut, costs)
	if sc != nil {
		sc.FilterMask = time.Since(t0)
		t0 = time.Now()
	}

	// Decide key columns with the filter masks in hand: a query whose
	// filter mask was materialized decodes keys for at most the facts the
	// mask passes.
	matchedBound := map[string]int{}
	for key, fm := range art.filterMasks {
		matchedBound[key] = fm.Count()
	}
	groupMass := map[string]int{}
	for k, p := range plans {
		mass := visible[k]
		if bound, ok := matchedBound[p.filterKey]; ok && p.filterKey != "" && bound < mass {
			mass = bound
		}
		if p.groupKey != "" {
			groupMass[p.groupKey] += mass
		}
	}
	fillCols := map[string][]int32{}
	for key, users := range groupUsers {
		if col := fd.cachedCol(version, key); col != nil {
			art.keyCols[key] = col
			art.markOwned(key)
			stats.ArtifactCacheHits++
			continue
		}
		if len(users) >= 2 && groupMass[key] > n {
			col := fd.getKeyCol()
			art.keyCols[key] = col
			fillCols[key] = col
		}
	}
	if len(fillCols) > 0 {
		for key, col := range fillCols {
			groupOwner[key].materializeGroupKeys(n, col)
		}
		if cachePut {
			for key, col := range fillCols {
				if fd.offerCol(version, key, col) {
					art.markOwned(key)
				}
			}
		}
		for key, col := range fillCols {
			b := keyColBytes(col)
			stats.KeyColBytesBuilt += b
			chargeArtifact(costs, groupUsers[key], b, false)
		}
	}
	if sc != nil {
		sc.GroupDecode = time.Since(t0)
	}
	return art, stats
}

// buildFilterMasks is buildArtifacts' stage-1 planner. It decides, in
// order: (a) a set mask the table's cache holds is used as is; (b) a set
// whose users' mass reaches n gets a mask (sparseViewK); (c) a predicate
// of a set still to build gets a bitmap when the cache holds one or it
// recurs across two sets from (b) — sets served by (a) count, so a batch
// whose other sets hit the cache still builds, and offers, the bitmap the
// next batch of those sets may miss; (d) a set left out by (b) whose
// predicates all have bitmaps gets a mask too, composed by word-ANDs
// alone. fillMasks then builds the
// fresh predicate bitmaps and set masks in one pass. Every set mask is the
// conjunction of the set's predicates, so planScan, accumulation and the
// cache treat them alike however they were built.
func buildFilterMasks(art *sharedArtifacts, stats *SharingStats, sets map[string]*filterSet,
	predOwner map[string]*filterSpec, predUsers map[string][]int,
	n int, version uint64, cachePut bool, costs []obs.QueryCost) {
	fd := art.fd
	var need []*filterSet
	predSets := map[string]int{} // predicate key → sets from (b) holding it
	for key, s := range sets {
		if s.mass >= n {
			for _, pk := range s.preds {
				predSets[pk]++
			}
		}
		if m := fd.cachedMask(version, key); m != nil {
			art.filterMasks[key] = m
			art.markOwned(key)
			stats.ArtifactCacheHits++
			continue
		}
		need = append(need, s)
	}

	fresh := map[string]*filterSpec{}
	for _, s := range need {
		for _, pk := range s.preds {
			if art.predMasks[pk] != nil {
				continue
			}
			if m := fd.cachedMask(version, pk); m != nil {
				art.predMasks[pk] = m
				art.markOwned(pk)
				stats.ArtifactCacheHits++
			} else if predSets[pk] >= 2 {
				art.predMasks[pk] = fd.getMask()
				fresh[pk] = predOwner[pk]
			}
		}
	}
	for pk := range fresh {
		b := maskBytes(art.predMasks[pk])
		stats.PackedPredicateKernels++
		stats.BitmapBytesBuilt += b
		chargeArtifact(costs, predUsers[pk], b, true)
	}

	var fills []maskFill
	for _, s := range need {
		if s.mass < n && slices.ContainsFunc(s.preds, func(pk string) bool { return art.predMasks[pk] == nil }) {
			continue
		}
		m := fd.getMask()
		art.filterMasks[s.p.filterKey] = m
		fills = append(fills, maskFill{p: s.p, m: m, users: s.users})
	}
	if len(fills) == 0 && len(fresh) == 0 {
		return
	}
	fillMasks(fills, art.predMasks, fresh, n, stats, costs)
	if cachePut {
		for pk := range fresh {
			if fd.offerMask(version, pk, art.predMasks[pk]) {
				art.markOwned(pk)
			}
		}
		// A set mask one query uses is not offered: such sets are mostly
		// one-offs, and offering them churns the cache (on the dashboard
		// workload, about 10 % more CPU per operation on a 2-vCPU Xeon).
		for _, f := range fills {
			if len(f.users) >= 2 && fd.offerMask(version, f.p.filterKey, f.m) {
				art.markOwned(f.p.filterKey)
			}
		}
	}
}

// planScan builds one query's accumulation drive from the shared
// artifacts. A filtered query whose set got no mask keeps its view as
// iter and takes the fused walk.
func planScan(p *queryPlan, view *bitset.Set, art *sharedArtifacts) queryScan {
	// A hashed or group-less plan has no groupKey, hence no column.
	qs := queryScan{view: view, iter: view, keyCol: art.keyCols[p.groupKey]}
	switch fm := art.filterMasks[p.filterKey]; {
	case fm == nil:
	case view == nil:
		qs.iter, qs.prefiltered = fm, true
	default:
		// The set mask ∩ view in a pooled buffer (released with the
		// artifacts at scan end).
		eff := art.fd.getMask()
		intersectView(eff.Words(), fm.Words(), view)
		qs.iter, qs.prefiltered, qs.ownIter = eff, true, true
	}
	return qs
}

// releaseArtifacts returns fact table fd's scan-scoped pooled buffers —
// shared bitmaps, key columns, and every query's own mask (ownIter) — once
// no partial needs them (after the final merge; Results never reference
// artifacts). Cache-owned artifacts are skipped: the table's cache keeps
// them for future scans (possibly reading them concurrently), so
// pooling them would hand a mutable buffer to a reader.
func releaseArtifacts(fd *FactData, art *sharedArtifacts, scans []queryScan) {
	for _, qs := range scans {
		if qs.ownIter {
			fd.maskPool.Put(qs.iter)
		}
	}
	if art == nil {
		return
	}
	for key, m := range art.filterMasks {
		if art.cacheOwned[key] {
			continue
		}
		art.fd.maskPool.Put(m)
	}
	for key, m := range art.predMasks {
		if art.cacheOwned[key] {
			continue
		}
		art.fd.maskPool.Put(m)
	}
	for key, col := range art.keyCols {
		if art.cacheOwned[key] {
			continue
		}
		col := col
		art.fd.colPool.Put(&col)
	}
}

// loneStats is buildArtifacts' statistics for a lone query over a cold
// cache before stage 1: its uses are all distinct (loneScan adds the
// query's own mask).
func loneStats(p *queryPlan) SharingStats {
	stats := SharingStats{Queries: 1}
	if p.filterKey != "" {
		stats.FilterSets, stats.DistinctFilterSets = 1, 1
		for fi := range p.filters {
			if !p.repeatsFilter(fi) {
				stats.FilterPredicates++
			}
		}
		stats.DistinctPredicates = stats.FilterPredicates
	}
	if p.groupKey != "" {
		stats.GroupKeySets, stats.DistinctGroupings = 1, 1
	}
	return stats
}

// scanSharedStaged runs one fact group's shared scan through the staged
// pipeline: materialize stage 1 and the shared stage-2 artifacts (taking
// the table's cached ones where it has them), then walk the chunks in
// order, folding each one into every query's partial while it is
// cache-hot. plans, masks and out are the group's, every plan over the
// same FactData, and n is the group's scan bound (groupScanBound). A lone
// query has nothing to share, and its own bitmap is never offered to the
// cache, so it skips both the planner and the cache (loneScan). The
// partial per query lands in out (callers finalize, then release sp; the
// scan-scoped artifacts are released here, since no partial or Result
// references them). A non-nil sc receives the scan's per-stage wall times.
func scanSharedStaged(plans []*queryPlan, masks []*bitset.Set, out []*partial, n int, sp *scanPartials, sc *obs.ShardScan) SharingStats {
	var art *sharedArtifacts
	var stats SharingStats
	// A lone query's drive and cost stay on the stack.
	var lone [1]queryScan
	var loneCost [1]obs.QueryCost
	scans, costs := lone[:], loneCost[:]
	var t0 time.Time
	if len(plans) == 1 {
		stats = loneStats(plans[0])
		if sc != nil {
			t0 = time.Now()
		}
		scans[0] = loneScan(plans[0], masks[0], n, &stats, costs)
	} else {
		scans, costs = make([]queryScan, len(plans)), make([]obs.QueryCost, len(plans))
		art, stats = buildArtifacts(plans, masks, n, sc, costs)
		if sc != nil {
			t0 = time.Now()
		}
		for k, p := range plans {
			scans[k] = planScan(p, masks[k], art)
		}
	}
	if sc != nil {
		sc.FilterMask += time.Since(t0)
	}

	for k, p := range plans {
		out[k] = sp.get(p)
		out[k].cost.Add(costs[k])
	}
	if sc != nil {
		t0 = time.Now()
	}
	for lo := 0; lo < n; lo += execChunkSize {
		hi := min(lo+execChunkSize, n)
		for k := range scans {
			out[k].scanRangeStaged(lo, hi, &scans[k])
		}
	}
	if sc != nil {
		sc.Accumulate = time.Since(t0)
	}
	releaseArtifacts(plans[0].fd, art, scans)
	return stats
}

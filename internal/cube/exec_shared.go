package cube

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sdwp/internal/bitset"
	"sdwp/internal/obs"
)

// This file is the batch executor — the only one: the explicit (staged)
// form of the three-stage pipeline in exec.go. One shared scan first
// materializes stage 1 (filter bitmaps) and stage 2 (composite roll-up
// key columns, one per distinct group-by list of dense plans)
// as batch-scoped artifacts shared by every query whose sub-fingerprint
// matches, then runs stage 3 (accumulation) for all queries chunk by
// chunk off the shared artifacts. Queries that differ only in selection
// mask or measure — many personalized views over one fact table, the
// paper's core workload — then pay the filter evaluation and group-key
// decode once per batch instead of once per query.
//
// Shared artifacts are only materialized when they pay for themselves (at
// least two sharing queries whose combined visible fact mass exceeds a
// full table pass — see buildArtifacts). A filtered query no artifact
// covers — a lone query (a batch of one), or one whose filter set is
// unique in its batch — still runs stage 1 ahead of stage 3, into a bitmap
// of its own filled by the same packed predicate kernels (fillOwnMasks):
// a shared scan with one consumer. Only a filtered query over a sparse
// view, whose few visible facts cost less to test one by one than a
// whole-table fill, keeps the fused per-fact path (partial.scanFused); a
// group-by unique in the batch decodes its keys inline. Materialized
// artifacts are also the natural per-shard exchange unit once the fact
// table is sharded across processes.

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
	// partialMasks maps a filter-set sub-fingerprint to the AND of the
	// set's *available* predicate bitmaps only — the set's remaining
	// predicates are evaluated inline per query (queryScan.residual).
	// Partial masks are not the set's semantic mask, so they are never
	// cached and always return to the pool.
	partialMasks map[string]*bitset.Set
	keyCols      map[string][]int32 // group-by list sub-fingerprint → composite key column
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
	// iter is the mask accumulation iterates. With pre-applied filters it
	// is filterMask ∩ view, partialMask ∩ view, or the query's own
	// stage-1 bitmap; otherwise it is view (and a filtered query over a
	// sparse view runs matchFact inline). nil iterates every fact.
	iter *bitset.Set
	// prefiltered marks that iter already encodes the filters (all of
	// them when residual is empty), so fully matched facts are counted by
	// popcount instead of per-fact evaluation.
	prefiltered bool
	// ownIter marks an iter taken from the mask pool for this query alone
	// (an own stage-1 bitmap or an intersection with the view), which
	// releaseArtifacts returns to the pool.
	ownIter bool
	// residual lists the plan's filter indices NOT encoded in iter — the
	// predicates of a partially composed mask that must still be
	// evaluated per fact (over the already-narrowed iteration domain).
	residual []int
	// keyCol is the plan's shared composite group-key column (nil → inline
	// decode, scanDrive.key).
	keyCol []int32
}

// scanRangeStaged folds facts [lo, hi) into pt, driving stage 3 off qs's
// masks and key columns (partial.scanFused when nothing was prefiltered).
func (pt *partial) scanRangeStaged(lo, hi int, qs *queryScan) {
	d := pt.p.drive(qs.keyCol)
	if qs.prefiltered {
		// Stage 1 (or part of it) ran ahead of the scan: ScannedFacts is
		// the view's popcount (identical to the fused path, which counts
		// every visible fact it visits), and only facts passing the
		// encoded predicates are visited at all (iter is never nil here —
		// a prefiltered query always has a filter bitmap: a shared set or
		// partial mask, or its own).
		if qs.view == nil {
			pt.scanned += hi - lo
		} else {
			pt.scanned += qs.view.CountRange(lo, hi)
		}
		if len(qs.residual) > 0 {
			// Partially composed mask: the residual predicates run inline
			// over the narrowed domain. MatchedFacts counts facts passing
			// the whole conjunction, exactly as the fused path does.
			qs.iter.ForEachRange(lo, hi, func(i int) bool {
				if pt.p.matchResidual(int32(i), qs.residual) {
					pt.matched++
					pt.accumulateFact(int32(i), &d)
				}
				return true
			})
			return
		}
		pt.matched += qs.iter.CountRange(lo, hi)
		pt.accumulate(qs.iter, lo, hi, &d)
		return
	}
	// No stage-1 bitmap: unfiltered, or filtered over a sparse view. Stage
	// 2 may still come from the shared key column.
	pt.scanFused(lo, hi, qs.view, &d)
}

// parallelFill runs fill over [0, n) with the worker pool, morsel-driven
// exactly like the scan phases (chunk bounds are word-aligned and each
// chunk is claimed by exactly one worker, so workers write disjoint
// bitmap words). workers must already be normalized.
func parallelFill(n, workers int, fill func(lo, hi int)) {
	if workers <= 1 {
		fill(0, n)
		return
	}
	chunks := chunkCount(n)
	var cur atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			forEachMorsel(&cur, chunks, n, fill)
		}()
	}
	wg.Wait()
}

// setFill is one filter-set mask being materialized this scan: composed
// from the set's available predicate bitmaps (base), with the remaining
// predicates (residual) evaluated in a refinement pass over the already-
// narrowed domain. A set with no available predicates degenerates to the
// classic full-conjunction fill.
type setFill struct {
	m        *bitset.Set
	base     []*bitset.Set // available predicate bitmaps (composed first)
	residual []*filterSpec // predicates without bitmaps, evaluated once per set
}

// refine runs the residual predicates over facts [lo, hi). With a
// composed base the mask already holds the AND of the base predicates and
// refinement clears facts failing the residue; without one it evaluates
// the residue (= the whole conjunction) into the zeroed mask.
func (sf *setFill) refine(lo, hi int) {
	if len(sf.residual) == 0 {
		return
	}
	if len(sf.base) > 0 {
		sf.m.ForEachRange(lo, hi, func(i int) bool {
			for _, fs := range sf.residual {
				if !fs.match(int32(i)) {
					sf.m.Clear(i)
					break
				}
			}
			return true
		})
		return
	}
	if fs0 := sf.residual[0]; fs0.codes != nil && fs0.pk.n >= hi {
		// No base: the mask is zero over [lo, hi), so the first residual
		// predicate can fill it with the packed word-at-a-time kernel and
		// the remaining predicates narrow the (already sparse) result.
		fs0.pk.fillMask(fs0.codes, lo, hi, sf.m)
		for _, fs := range sf.residual[1:] {
			sf.m.ForEachRange(lo, hi, func(i int) bool {
				if !fs.match(int32(i)) {
					sf.m.Clear(i)
				}
				return true
			})
		}
		return
	}
	for i := lo; i < hi; i++ {
		ok := true
		for _, fs := range sf.residual {
			if !fs.match(int32(i)) {
				ok = false
				break
			}
		}
		if ok {
			sf.m.Set(i)
		}
	}
}

// buildArtifacts materializes the filter bitmaps and key columns the fact
// group's plans share, filling them with the worker pool chunk by chunk,
// and returns them plus the batch's sharing statistics.
//
// An artifact is materialized only when it pays for itself: it needs at
// least two sharing queries, and the sharing queries' combined fact mass
// must exceed one full-table pass; below that, each query keeps stage 1
// to itself (fillOwnMasks: its own bitmap, or the fused walk over a
// sparse view). Filter masks weigh view-mask popcounts (stage 1 runs on
// every visible fact); key columns are decided after the filter masks are
// filled, so a filtered query weighs the popcount of its materialized
// filter mask rather than its full visible mass (stage 2 runs only on
// facts that passed stage 1).
// Results are byte-identical whichever way the decision goes.
//
// Stage 1 is decomposed per predicate: each distinct single AttrFilter that
// is shared across at least two distinct filter sets materializes one
// bitmap, and set masks are AND-composed from their predicate bitmaps —
// so batches with overlapping-but-unequal filter sets ({year, regionEU}
// and {year, regionUS}) evaluate the shared predicate once instead of
// once per set. A qualifying set whose predicates are not all shared
// composes what is available and refines the residue in one pass over the
// narrowed domain; a non-qualifying set still AND-composes whatever
// predicate bitmaps exist into a partial mask and leaves the residue to
// the per-fact path (queryScan.residual).
//
// Every distinct sub-fingerprint — composed set masks, predicate bitmaps
// and key columns alike — is first looked up in the table's cross-batch
// cache by (fingerprint, table version): a hit is free, so it is used even
// by a single query of the batch, and freshly filled artifacts are offered
// to the cache (its doorkeeper admits only fingerprints seen across at
// least two scans) so the next batch's lookup hits. Cache-owned artifacts
// are immutable and bypass the pools.
//
// A non-nil sc receives the stage-1 (filter-mask) and stage-2 (group
// decode) wall times — two time.Now() pairs per scan, nothing per fact.
//
// plans and masks are one fact group's (see scanSharedStaged). A non-nil
// costs (indexed like plans) receives each query's byte share of the
// artifacts this scan freshly materializes — see chargeArtifact for the
// split.
func buildArtifacts(plans []*queryPlan, masks []*bitset.Set, workers, n int, sc *obs.ShardScan, costs []obs.QueryCost) (*sharedArtifacts, SharingStats) {
	stats := SharingStats{Queries: len(plans)}
	filterUses := map[string]int{} // set sub-fingerprint → queries using it
	groupUses := map[string]int{}  // group-by list sub-fingerprint → queries using it
	filterMass := map[string]int{} // set sub-fingerprint → Σ visible facts
	filterOwner := map[string]*queryPlan{}
	setPreds := map[string][]string{}     // set sub-fingerprint → distinct predicate keys
	predUses := map[string]int{}          // predicate key → query uses
	predSets := map[string]int{}          // predicate key → distinct sets containing it
	predMass := map[string]int{}          // predicate key → Σ visible facts
	predOwner := map[string]*filterSpec{} // any resolved spec for the predicate
	groupOwner := map[string]*queryPlan{}
	// Artifact → using queries (indices into plans/costs), for cost
	// attribution.
	setUsers := map[string][]int{}
	predUsers := map[string][]int{}
	groupUsers := map[string][]int{}
	visible := make([]int, len(plans))
	for k, p := range plans {
		visible[k] = n
		if masks[k] != nil {
			visible[k] = masks[k].Count()
		}
		if p.filterKey != "" {
			stats.FilterSets++
			if filterUses[p.filterKey] == 0 {
				stats.DistinctFilterSets++
				filterOwner[p.filterKey] = p
				// Record the set's distinct predicates once: every plan
				// with this set fingerprint holds the same predicate
				// multiset (the set key is derived from the predicate
				// keys), so the first plan seen can speak for all.
				seen := map[string]bool{}
				for fi := range p.filters {
					fs := &p.filters[fi]
					if seen[fs.key] {
						continue
					}
					seen[fs.key] = true
					setPreds[p.filterKey] = append(setPreds[p.filterKey], fs.key)
					predSets[fs.key]++
					if predOwner[fs.key] == nil {
						predOwner[fs.key] = fs
					}
				}
			}
			filterUses[p.filterKey]++
			filterMass[p.filterKey] += visible[k]
			setUsers[p.filterKey] = append(setUsers[p.filterKey], k)
			for _, pk := range setPreds[p.filterKey] {
				stats.FilterPredicates++
				if predUses[pk] == 0 {
					stats.DistinctPredicates++
				}
				predUses[pk]++
				predMass[pk] += visible[k]
				predUsers[pk] = append(predUsers[pk], k)
			}
		}
		if p.groupKey != "" {
			stats.GroupKeySets++
			if groupUses[p.groupKey] == 0 {
				stats.DistinctGroupings++
				groupOwner[p.groupKey] = p
			}
			groupUses[p.groupKey]++
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
		predMasks: map[string]*bitset.Set{}, partialMasks: map[string]*bitset.Set{},
		keyCols: map[string][]int32{}}

	var t0 time.Time
	if sc != nil {
		t0 = time.Now()
	}
	buildFilterMasksPerPredicate(art, &stats, n, version, workers, cachePut,
		filterUses, filterMass, filterOwner, setPreds, predSets, predMass, predOwner,
		costs, setUsers, predUsers)

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
	for key, uses := range groupUses {
		if col := fd.cachedCol(version, key); col != nil {
			art.keyCols[key] = col
			art.markOwned(key)
			stats.ArtifactCacheHits++
			continue
		}
		if uses >= 2 && groupMass[key] > n {
			col := fd.getKeyCol()
			art.keyCols[key] = col
			fillCols[key] = col
		}
	}
	if len(fillCols) > 0 {
		parallelFill(n, workers, func(lo, hi int) {
			for key, col := range fillCols {
				groupOwner[key].materializeGroupKeys(lo, hi, col)
			}
		})
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

// buildFilterMasksPerPredicate is buildArtifacts' stage-1 planner at
// per-predicate granularity. Predicate bitmaps materialize when the
// predicate recurs across at least two distinct filter sets (its total
// visible mass exceeding one table pass) or sits in the table's cache;
// set masks are then AND-composed from them, with any residual
// predicates refined in a single pass over the already-narrowed domain.
// The resulting art.filterMasks entries are exactly the semantic set
// masks — the conjunction of the set's predicates — so everything
// downstream (planScan, accumulation, caching) treats them alike however
// they were composed, and results stay byte-identical.
func buildFilterMasksPerPredicate(art *sharedArtifacts, stats *SharingStats,
	n int, version uint64, workers int, cachePut bool,
	filterUses, filterMass map[string]int, filterOwner map[string]*queryPlan,
	setPreds map[string][]string, predSets, predMass map[string]int,
	predOwner map[string]*filterSpec,
	costs []obs.QueryCost, setUsers, predUsers map[string][]int) {
	fd := art.fd

	// Composed set masks straight from the cache; the rest need building.
	var needSets []string
	for key := range filterUses {
		if m := fd.cachedMask(version, key); m != nil {
			art.filterMasks[key] = m
			art.markOwned(key)
			stats.ArtifactCacheHits++
			continue
		}
		needSets = append(needSets, key)
	}

	// Predicate bitmaps: a cache hit is free and used unconditionally; a
	// fresh fill must pay for itself — the predicate has to recur across
	// distinct sets (within one set, the set's own conjunction pass
	// evaluates it with short-circuiting at no extra cost).
	fillPreds := map[string]*bitset.Set{}
	for _, sk := range needSets {
		for _, pk := range setPreds[sk] {
			if art.predMasks[pk] != nil {
				continue
			}
			if m := fd.cachedMask(version, pk); m != nil {
				art.predMasks[pk] = m
				art.markOwned(pk)
				stats.ArtifactCacheHits++
				continue
			}
			if predSets[pk] >= 2 && predMass[pk] > n {
				m := fd.getMask()
				art.predMasks[pk] = m
				fillPreds[pk] = m
			}
		}
	}
	if len(fillPreds) > 0 {
		for pk := range fillPreds {
			if fs := predOwner[pk]; fs.codes != nil && fs.pk.n >= n {
				stats.PackedPredicateKernels++
			}
		}
		parallelFill(n, workers, func(lo, hi int) {
			for pk, m := range fillPreds {
				predOwner[pk].materializePredicateMask(lo, hi, m)
			}
		})
		if cachePut {
			for pk, m := range fillPreds {
				if fd.offerMask(version, pk, m) {
					art.markOwned(pk)
				}
			}
		}
		for pk, m := range fillPreds {
			b := maskBytes(m)
			stats.BitmapBytesBuilt += b
			chargeArtifact(costs, predUsers[pk], b, true)
		}
	}

	// Set masks. A set qualifying on its own (>= 2 queries whose mass
	// exceeds a table pass) always materializes fully — base composed,
	// residue refined once. A non-qualifying set becomes a full mask only
	// when every predicate already has a bitmap (composition is then pure
	// word-ANDs), or a partial mask when some do (queries evaluate the
	// residue inline over the narrowed domain).
	fillSets := map[string]*setFill{}
	for _, sk := range needSets {
		owner := filterOwner[sk]
		var base []*bitset.Set
		var residual []*filterSpec
		seen := map[string]bool{}
		for fi := range owner.filters {
			fs := &owner.filters[fi]
			if seen[fs.key] {
				continue
			}
			seen[fs.key] = true
			if m := art.predMasks[fs.key]; m != nil {
				base = append(base, m)
			} else {
				residual = append(residual, fs)
			}
		}
		qualifies := filterUses[sk] >= 2 && filterMass[sk] > n
		switch {
		case qualifies || len(residual) == 0 && len(base) > 0:
			m := fd.getMask()
			art.filterMasks[sk] = m
			fillSets[sk] = &setFill{m: m, base: base, residual: residual}
			if len(base) > 0 {
				stats.ComposedMasks++
			}
		case len(base) > 0:
			m := fd.getMask()
			art.partialMasks[sk] = m
			fillSets[sk] = &setFill{m: m, base: base}
			stats.PartialMasks++
		}
	}
	refine := false
	for _, sf := range fillSets {
		if len(sf.base) > 0 {
			sf.m.IntersectAll(sf.base) // word-parallel, memory-bound
		}
		if len(sf.residual) > 0 {
			refine = true
		}
	}
	if refine {
		parallelFill(n, workers, func(lo, hi int) {
			for _, sf := range fillSets {
				sf.refine(lo, hi)
			}
		})
	}
	// Offer freshly built full set masks to the cache (partial masks are
	// not the set's semantic mask and never leave the scan).
	if cachePut {
		for sk, sf := range fillSets {
			if art.filterMasks[sk] == sf.m && fd.offerMask(version, sk, sf.m) {
				art.markOwned(sk)
			}
		}
	}
	// Charge composed and partial set masks alike — both were freshly
	// materialized for this scan's queries.
	for sk, sf := range fillSets {
		b := maskBytes(sf.m)
		stats.BitmapBytesBuilt += b
		chargeArtifact(costs, setUsers[sk], b, true)
	}
}

// planScan builds one query's accumulation drive from the shared artifacts
// (nil art: none were planned). A filtered query it leaves unprefiltered
// is fillOwnMasks' to decide.
func planScan(p *queryPlan, view *bitset.Set, art *sharedArtifacts) queryScan {
	qs := queryScan{view: view, iter: view}
	if art == nil {
		return qs
	}
	// A hashed or group-less plan has no groupKey, hence no column.
	qs.keyCol = art.keyCols[p.groupKey]
	// A view mask sized before AddFact grew the table cannot be
	// intersected with a bitmap at the current capacity; such a query is
	// left to fillOwnMasks, whose fill clamps the view to its length.
	if fm := art.filterMasks[p.filterKey]; fm != nil && (view == nil || view.Len() == fm.Len()) {
		qs.prefiltered = true
		if view == nil {
			qs.iter = fm
		} else {
			// filter ∩ view, built in a pooled buffer (released with the
			// artifacts at scan end).
			eff := art.fd.getMask()
			eff.AndInto(fm, view)
			qs.iter, qs.ownIter = eff, true
		}
	} else if pm := art.partialMasks[p.filterKey]; pm != nil && (view == nil || view.Len() == pm.Len()) {
		// Partially composed set: iterate the AND of the available
		// predicate bitmaps and evaluate the residual predicates inline.
		// residual indexes this plan's own filter order — plans sharing a
		// set fingerprint hold the same predicate multiset, but possibly
		// reordered, so the indices are per plan.
		qs.prefiltered = true
		for fi := range p.filters {
			if art.predMasks[p.filters[fi].key] == nil {
				qs.residual = append(qs.residual, fi)
			}
		}
		if view == nil {
			qs.iter = pm
		} else {
			eff := art.fd.getMask()
			eff.AndInto(pm, view)
			qs.iter, qs.ownIter = eff, true
		}
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
	for _, m := range art.partialMasks {
		// Partial masks are never cache-owned (they are not the set's
		// semantic mask), so they always recycle.
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
// cache: its uses are all distinct, and the planner builds nothing (the
// query's own bitmap is fillOwnMasks', on both routes).
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

// sparseViewK prices the one stage-1 decision of a filtered query no
// shared artifact covers. Over a view showing fewer than n/sparseViewK of
// the scan's n facts, the query tests its filters per visible fact
// (partial.scanFused); otherwise it fills a bitmap of its own over the
// whole table. BenchmarkLoneFilteredScan's view arms price it: the fused
// walk costs about 23 ns per visible fact, the own bitmap about 1.4 ns per
// table fact, so the two meet near n/16 visible facts (see
// docs/ARCHITECTURE.md, "Columnar executor").
const sparseViewK = 16

// ownFill is one query's own stage-1 bitmap being filled.
type ownFill struct {
	p       *queryPlan
	m, view *bitset.Set
}

// fillOwnMasks gives every filtered query planScan left without a filter
// bitmap (scans is indexed like plans) a bitmap of its own, unless its
// view is sparse (sparseViewK): fillFilterMask fills it over [0, n) with
// the worker pool, and the query's drive then iterates it prefiltered,
// exactly as off a shared set mask. Each bitmap counts in
// stats.BitmapBytesBuilt and is charged whole to its one user in costs;
// its distinct predicates on packed columns count in
// stats.PackedPredicateKernels. Both routes of scanSharedStaged — the
// lone-query shortcut and the artifact planner — call it, so they build
// the same bitmaps.
func fillOwnMasks(plans []*queryPlan, scans []queryScan, n, workers int, stats *SharingStats, costs []obs.QueryCost) {
	var fills []ownFill
	needScratch := false
	for k, p := range plans {
		qs := &scans[k]
		if p.filterKey == "" || qs.prefiltered || qs.view != nil && qs.view.CountRange(0, n)*sparseViewK < n {
			continue
		}
		m := p.fd.getMask()
		qs.iter, qs.prefiltered, qs.ownIter = m, true, true
		fills = append(fills, ownFill{p: p, m: m, view: qs.view})
		preds := 0
		for fi := range p.filters {
			if p.repeatsFilter(fi) {
				continue
			}
			preds++
			if fs := &p.filters[fi]; fs.codes != nil && fs.pk.n >= n {
				stats.PackedPredicateKernels++
			}
		}
		needScratch = needScratch || preds > 1
		b := maskBytes(m)
		stats.BitmapBytesBuilt += b
		user := [1]int{k}
		chargeArtifact(costs, user[:], b, true)
	}
	if len(fills) == 0 {
		return
	}
	fd := plans[0].fd
	var scratch *bitset.Set
	if needScratch {
		scratch = fd.getMask()
	}
	parallelFill(n, workers, func(lo, hi int) {
		for _, f := range fills {
			f.p.fillFilterMask(lo, hi, f.m, scratch, f.view)
		}
	})
	if scratch != nil {
		fd.maskPool.Put(scratch)
	}
}

// scanSharedStaged runs one fact group's shared scan through the staged
// pipeline: materialize shared artifacts (taking the table's cached ones
// where it has them) and the own bitmaps of filtered queries they
// leave uncovered, then accumulate every query morsel by morsel
// (accumulateMorsels). plans, masks and out are the group's, every plan
// over the same FactData; workers must already be normalized and n is the
// group's scan bound (groupScanBound). A lone query has nothing to share,
// and its own bitmap is never offered to the cache, so it skips both the
// planner and the cache. The merged partial per query lands in out
// (callers finalize, then release sp; the scan-scoped artifacts are
// released here, since no partial or Result references them). A non-nil
// sc receives the scan's per-stage wall times.
func scanSharedStaged(plans []*queryPlan, masks []*bitset.Set, out []*partial, workers, n int, sp *scanPartials, sc *obs.ShardScan) SharingStats {
	var art *sharedArtifacts
	var stats SharingStats
	// A lone query's drive and cost stay on the stack.
	var lone [1]queryScan
	var loneCost [1]obs.QueryCost
	scans, costs := lone[:], loneCost[:]
	if len(plans) == 1 {
		stats = loneStats(plans[0])
	} else {
		scans, costs = make([]queryScan, len(plans)), make([]obs.QueryCost, len(plans))
		art, stats = buildArtifacts(plans, masks, workers, n, sc, costs)
	}
	for k, p := range plans {
		scans[k] = planScan(p, masks[k], art)
	}
	var t0 time.Time
	if sc != nil {
		t0 = time.Now()
	}
	fillOwnMasks(plans, scans, n, workers, &stats, costs)
	if sc != nil {
		sc.FilterMask += time.Since(t0)
	}

	// Worker 0 accumulates straight into out; the other workers each get
	// a row of partials of their own, merged into out in worker order.
	nq := len(plans)
	for k, p := range plans {
		out[k] = sp.get(p)
	}
	var rest []*partial // [worker-1][query]
	if workers > 1 {
		rest = make([]*partial, (workers-1)*nq)
		for i := range rest {
			rest[i] = sp.get(plans[i%nq])
		}
	}
	if sc != nil {
		t0 = time.Now()
	}
	accumulateMorsels(out, rest, scans, n)
	if sc != nil {
		sc.Accumulate = time.Since(t0)
		t0 = time.Now()
	}
	for k := range plans {
		for w := 0; w < workers-1; w++ {
			out[k].merge(rest[w*nq+k])
		}
		// Land the artifact-byte attribution on the merged partial only —
		// worker partials carry zero cost, so the merges above added
		// nothing and each share is counted exactly once.
		out[k].cost.Add(costs[k])
	}
	if sc != nil {
		sc.Merge = time.Since(t0)
	}
	releaseArtifacts(plans[0].fd, art, scans)
	return stats
}

// accumulateMorsels runs stage 3 for a fact group over facts [0, n): each
// worker claims execChunkSize morsels off a shared cursor and walks each
// one through every query of the group while the chunk is cache-hot, so
// which worker scans which chunk follows execution speed. row0 holds worker
// 0's partial per query — worker 0 is the calling goroutine — and rest the
// other workers' rows back to back. Without other workers the chunks are
// walked in order with no cursor or goroutine.
func accumulateMorsels(row0, rest []*partial, scans []queryScan, n int) {
	chunks := chunkCount(n)
	if len(rest) == 0 {
		for ci := 0; ci < chunks; ci++ {
			lo := ci * execChunkSize
			for k := range scans {
				row0[k].scanRangeStaged(lo, min(lo+execChunkSize, n), &scans[k])
			}
		}
		return
	}
	// The workers read their own copy of the drives, so a serial caller's
	// drives never leave its stack.
	shared := slices.Clone(scans)
	walk := func(row []*partial, lo, hi int) {
		for k := range shared {
			row[k].scanRangeStaged(lo, hi, &shared[k])
		}
	}
	var cur atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < len(rest); w += len(row0) {
		wg.Add(1)
		go func(row []*partial) {
			defer wg.Done()
			forEachMorsel(&cur, chunks, n, func(lo, hi int) { walk(row, lo, hi) })
		}(rest[w : w+len(row0)])
	}
	forEachMorsel(&cur, chunks, n, func(lo, hi int) { walk(row0, lo, hi) })
	wg.Wait()
}

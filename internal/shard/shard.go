// Package shard is the horizontal scaling layer under the query
// scheduler: it hash-partitions every fact table of one cube into N
// independent shards and answers batch queries by scatter-gather — the
// compiled plans fan out across the shards (each shard scan materializes
// its own stage-1/2 artifacts — per-predicate filter bitmaps AND-composed
// into set masks over the shard's own fact rows, and roll-up key columns
// — and accumulates per-query partials under its own lock), and the
// per-shard partials gather through the executor's deterministic
// shard-order merge/finalize path, so results are identical to the
// unsharded engine. MergeFinalize also returns every shard scan's pooled
// partial tables to their shard's pool once the gathered results are
// finalized.
//
// Why shards: one fact table per cube is a single ingest lock and a
// single scan unit — the remaining ceiling on fact-table size and write
// throughput. A sharded Table gives every shard its own fact columns,
// bitset and partial-table pools, artifact cache and RWMutex (an append
// still takes the table-wide lock as well; see Table.AddFact), and the
// scatter's fan-out is bounded
// (Options.MaxInFlightScans) so a wide table cannot oversubscribe small
// hosts.
//
// The parent cube keeps the authoritative copy of every fact (shards are
// scan replicas): views, exports, snapshots and PRML iteration keep
// working on global fact indices, and the Table routes each global index
// to its (shard, local) position for mask splitting and ingest. Member
// and attribute data is shared by reference across shards — it must be
// fully loaded before New, the same "compile after loading" discipline
// the executor already documents.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sdwp/internal/bitset"
	"sdwp/internal/cube"
)

// MaxShards bounds the shard count (routes store the shard id in a byte).
const MaxShards = 256

// Options configures a sharded table.
type Options struct {
	// Shards is the shard count (clamped to [1, MaxShards]). 1 still runs
	// the scatter-gather machinery over a single shard — the degenerate
	// case the equivalence harness pins against the unsharded executor.
	Shards int
	// MaxInFlightScans bounds concurrent shard scans per Table (0 = one
	// per shard: unbounded fan-out).
	MaxInFlightScans int
}

// route maps one fact's global instance indices to shard positions.
type route struct {
	shardOf []uint8
	localOf []int32
}

// factShard is one shard: a derived cube holding this shard's slice of
// every fact table, its own lock, and its own cross-batch artifact cache.
type factShard struct {
	// mu orders ingest (write) against scans (read): a scan holds the read
	// lock across rebind + scan so the shard's columns cannot grow under
	// it, which is what makes concurrent AddFact safe in sharded mode.
	mu sync.RWMutex
	c  *cube.Cube
}

// splitKey identifies one split view mask: a view state (id, epoch) over
// one fact table at one version (appends move it and grow the shards).
type splitKey struct {
	viewID  uint64
	epoch   uint64
	version uint64
	fact    string
}

// splitCacheCap bounds the split-mask cache (a plain memory bound; every
// entry is one view state's per-shard bitmaps).
const splitCacheCap = 128

// Table is a sharded fact store bound to one parent cube. It implements
// the scheduler's Executor interface, so core.Engine swaps it in for the
// cube transparently when Options.FactShards > 1.
type Table struct {
	parent *cube.Cube
	shards []*factShard
	opts   Options

	// mu guards the parent's fact columns and the routes during ingest;
	// scans only take it briefly to materialize and split view masks.
	mu     sync.RWMutex
	routes map[string]*route

	splitMu    sync.Mutex
	splits     map[splitKey][]*bitset.Set
	splitOrder []splitKey

	sem chan struct{} // bounds concurrent shard scans

	stBatches    atomic.Int64
	stShardScans atomic.Int64
}

// New builds a sharded table over a loaded cube: it derives opts.Shards
// fact-shard cubes (sharing the parent's dimension and layer data) and
// redistributes every existing fact instance by key hash. Facts loaded
// into the parent after New must go through Table.AddFact, which keeps
// parent, routes and shards consistent.
func New(parent *cube.Cube, opts Options) *Table {
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	if opts.Shards > MaxShards {
		opts.Shards = MaxShards
	}
	inFlight := opts.MaxInFlightScans
	if inFlight <= 0 || inFlight > opts.Shards {
		inFlight = opts.Shards
	}
	t := &Table{
		parent: parent,
		opts:   opts,
		routes: map[string]*route{},
		splits: map[splitKey][]*bitset.Set{},
		sem:    make(chan struct{}, inFlight),
	}
	for s := 0; s < opts.Shards; s++ {
		t.shards = append(t.shards, &factShard{c: parent.NewFactShard()})
	}
	for _, f := range parent.Schema().MD.Facts {
		fd := parent.FactData(f.Name)
		r := &route{}
		keys := make(map[string]int32, len(f.Dimensions))
		measures := make(map[string]float64, len(f.Measures))
		for i := int32(0); int(i) < fd.Len(); i++ {
			for _, dn := range f.Dimensions {
				keys[dn], _ = fd.DimKey(dn, i)
			}
			for _, m := range f.Measures {
				measures[m.Name], _ = fd.Measure(m.Name, i)
			}
			s := t.shardFor(f.Dimensions, keys)
			sh := t.shards[s]
			r.shardOf = append(r.shardOf, uint8(s))
			r.localOf = append(r.localOf, int32(sh.c.FactData(f.Name).Len()))
			if err := sh.c.AddFact(f.Name, keys, measures); err != nil {
				// The parent accepted this instance, so the shard (sharing
				// the parent's dimensions) must too.
				panic(fmt.Sprintf("shard: redistributing fact %q: %v", f.Name, err))
			}
		}
		t.routes[f.Name] = r
	}
	return t
}

// shardFor hashes a fact instance's dimension keys (FNV-1a over the
// fact's declared dimension order) to its owning shard. The assignment
// depends only on the keys, so identical load orders shard identically
// run to run.
func (t *Table) shardFor(dims []string, keys map[string]int32) int {
	h := uint32(2166136261)
	for _, dn := range dims {
		k := uint32(keys[dn])
		for shift := 0; shift < 32; shift += 8 {
			h ^= (k >> shift) & 0xff
			h *= 16777619
		}
	}
	return int(h % uint32(len(t.shards)))
}

// Shards returns the shard count.
func (t *Table) Shards() int { return len(t.shards) }

// Parent returns the parent cube (the authoritative fact store).
func (t *Table) Parent() *cube.Cube { return t.parent }

// AddFact appends a fact instance: to the parent (which assigns the
// global index and keeps views, exports and snapshots whole), to the
// routing table, and to the key-hashed shard. It holds the table-wide
// t.mu for the whole append, so appends are serialised and every scan's
// compile and view-mask split waits for it; a scan already fanned out
// waits only at the owning shard, whose lock the shard write takes.
func (t *Table) AddFact(fact string, keys map[string]int32, measures map[string]float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.parent.AddFact(fact, keys, measures); err != nil {
		return err
	}
	r := t.routes[fact]
	if r == nil {
		r = &route{}
		t.routes[fact] = r
	}
	s := t.shardFor(t.parent.Schema().MD.Fact(fact).Dimensions, keys)
	sh := t.shards[s]
	sh.mu.Lock()
	local := int32(sh.c.FactData(fact).Len())
	err := sh.c.AddFact(fact, keys, measures)
	sh.mu.Unlock()
	if err != nil {
		return fmt.Errorf("shard: shard %d rejected fact the parent accepted: %w", s, err)
	}
	r.shardOf = append(r.shardOf, uint8(s))
	r.localOf = append(r.localOf, local)
	return nil
}

// FactVersion returns the parent's fact table version: every append goes
// through the parent, and member changes bump the whole shard family.
func (t *Table) FactVersion(fact string) uint64 { return t.parent.FactVersion(fact) }

// FactCounts returns every shard's total fact count (summed across fact
// tables) — the per-shard balance GET /api/stats reports.
func (t *Table) FactCounts() []int {
	out := make([]int, len(t.shards))
	t.mu.RLock()
	defer t.mu.RUnlock()
	for s, sh := range t.shards {
		for _, f := range t.parent.Schema().MD.Facts {
			out[s] += sh.c.FactData(f.Name).Len()
		}
	}
	return out
}

// Stats is a point-in-time snapshot of the table's counters.
type Stats struct {
	// Shards is the shard count; FactCounts the per-shard fact totals.
	Shards     int   `json:"shards"`
	FactCounts []int `json:"factCounts"`
	// Batches counts scatter-gather executions; ShardScans the per-shard
	// scans they fanned out to (ShardScans/Batches is the fan-out ratio).
	Batches    int64 `json:"batches"`
	ShardScans int64 `json:"shardScans"`
	// ArtifactCache sums the shards' cross-batch artifact caches.
	ArtifactCache cube.ArtifactCacheStats `json:"artifactCache"`
	// Packed aggregates the per-shard compressed-column storage stats
	// (bytes sum across shards; per-column bit widths max-merge).
	Packed cube.PackedStats `json:"packed"`
}

// Stats snapshots the table's counters.
func (t *Table) Stats() Stats {
	st := Stats{
		Shards:     len(t.shards),
		FactCounts: t.FactCounts(),
		Batches:    t.stBatches.Load(),
		ShardScans: t.stShardScans.Load(),
		Packed:     t.PackedStats(),
	}
	for _, sh := range t.shards {
		st.ArtifactCache.Add(sh.c.ArtifactCacheStats())
	}
	return st
}

// PackedStats aggregates the shards' compressed-column storage stats,
// taking each shard's read lock so ingest cannot grow columns mid-sum.
func (t *Table) PackedStats() cube.PackedStats {
	var ps cube.PackedStats
	for _, sh := range t.shards {
		sh.mu.RLock()
		ps.Add(sh.c.PackedStats())
		sh.mu.RUnlock()
	}
	return ps
}

// MaterializeView builds a view's combined visibility masks over the
// given fact tables under the ingest read lock (mask building walks the
// parent's fact key columns, which AddFact grows under the write lock).
func (t *Table) MaterializeView(v *cube.View, facts []string) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, f := range facts {
		v.Materialize(f)
	}
}

// Compile resolves and validates a query against the parent cube. The
// scheduler compiles once at admission; execution rebinds the plan onto
// each shard's columns (cube.CompiledQuery.Rebind). The ingest read lock
// keeps the parent's columns stable while the plan binds them (the
// bindings are then swapped per shard, but resolution reads them).
func (t *Table) Compile(q cube.Query) (*cube.CompiledQuery, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.parent.Compile(q)
}

// ExecuteBatchCompiledOpt is the scatter-gather executor: split every
// query's view mask by shard, fan the batch out (each shard rebinds the
// plans onto its columns under its read lock and runs the shared staged
// scan with its own artifact cache), and gather the per-shard partials
// through the deterministic merge/finalize path. Results are identical to
// the unsharded executor's; SharingStats sums the per-shard scans (so
// instance and distinct counts scale with the fan-out, but their ratios
// still measure per-scan sharing), with Queries reported once.
func (t *Table) ExecuteBatchCompiledOpt(cqs []*cube.CompiledQuery, vs []*cube.View, opts cube.BatchOptions) ([]*cube.Result, cube.SharingStats, error) {
	var stats cube.SharingStats
	if vs != nil && len(vs) != len(cqs) {
		return nil, stats, fmt.Errorf("shard: batch has %d queries but %d views", len(cqs), len(vs))
	}
	if len(cqs) == 0 {
		return []*cube.Result{}, stats, nil
	}

	// Split personalized view masks per shard under the ingest read lock
	// (routes and the parent's columns are stable there).
	masks := make([][]*bitset.Set, len(cqs)) // [query][shard], nil = unrestricted
	t.mu.RLock()
	for i, cq := range cqs {
		if cq == nil {
			t.mu.RUnlock()
			return nil, stats, fmt.Errorf("shard: batch query %d is nil", i)
		}
		if vs != nil && vs[i] != nil {
			ms, err := t.splitLocked(cq.Query().Fact, vs[i])
			if err != nil {
				t.mu.RUnlock()
				return nil, stats, err
			}
			masks[i] = ms
		}
	}
	t.mu.RUnlock()

	t.stBatches.Add(1)
	n := len(t.shards)
	shardParts := make([][]*cube.BatchPartial, n)
	shardStats := make([]cube.SharingStats, n)
	errs := make([]error, n)
	// A shard scan's panic is re-raised here once every shard has
	// stopped: left in its goroutine it would end the process, and a
	// caller (the scheduler) fails just the batch.
	panics := make([]any, n)
	var wg sync.WaitGroup
	for s := range t.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[s] = r
				}
			}()
			t.sem <- struct{}{}
			defer func() { <-t.sem }()
			sh := t.shards[s]
			sh.mu.RLock()
			defer sh.mu.RUnlock()
			rebound := make([]*cube.CompiledQuery, len(cqs))
			for i, cq := range cqs {
				rc, err := cq.Rebind(sh.c)
				if err != nil {
					errs[s] = fmt.Errorf("shard %d: query %d: %w", s, i, err)
					return
				}
				rebound[i] = rc
			}
			smasks := make([]*bitset.Set, len(cqs))
			for i := range cqs {
				if masks[i] != nil {
					smasks[i] = masks[i][s]
				}
			}
			o := opts
			// Label this shard's stage timings in the batch's scan trace
			// (opts.Trace, when set, is shared across the fan-out).
			o.TraceShard = s
			parts, st, err := sh.c.ExecuteBatchCompiledPartials(rebound, smasks, o)
			if err != nil {
				errs[s] = fmt.Errorf("shard %d: %w", s, err)
				return
			}
			shardParts[s] = parts
			shardStats[s] = st
			t.stShardScans.Add(1)
		}(s)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, stats, err
		}
	}
	var t0 time.Time
	if opts.Trace != nil {
		t0 = time.Now()
	}
	results, err := cube.MergeFinalize(shardParts)
	if opts.Trace != nil {
		opts.Trace.AddGather(time.Since(t0))
	}
	if err != nil {
		return nil, stats, err
	}
	for _, st := range shardStats {
		stats.Add(st)
	}
	stats.Queries = len(cqs)
	return results, stats, nil
}

// splitLocked returns the per-shard visibility masks of one view over one
// fact table: the view's materialized global mask scattered through the
// routing table (nil when the view leaves the fact unrestricted). Splits
// are cached by (view id, epoch, fact version, fact) — per-shard bitmaps
// are exactly the "selection epochs scale across shards" exchange unit: a
// selection or an append bumps the key and the next query re-splits once,
// not once per shard scan. Callers hold t.mu (read).
func (t *Table) splitLocked(fact string, v *cube.View) ([]*bitset.Set, error) {
	r := t.routes[fact]
	if r == nil {
		return nil, fmt.Errorf("shard: unknown fact %q", fact)
	}
	key := splitKey{viewID: v.ID(), epoch: v.Epoch(), version: t.parent.FactVersion(fact), fact: fact}
	t.splitMu.Lock()
	if ms, ok := t.splits[key]; ok {
		t.splitMu.Unlock()
		return ms, nil
	}
	t.splitMu.Unlock()

	m := v.Materialize(fact)
	if m == nil {
		return nil, nil
	}
	out := make([]*bitset.Set, len(t.shards))
	for s, sh := range t.shards {
		out[s] = bitset.New(sh.c.FactData(fact).Len())
	}
	m.ForEach(func(g int) bool {
		if g >= len(r.shardOf) {
			// A fact loaded into the parent without going through
			// Table.AddFact has no route; it is invisible to shard scans
			// (ingest must go through the Table once sharded).
			return true
		}
		out[r.shardOf[g]].Set(int(r.localOf[g]))
		return true
	})
	t.splitMu.Lock()
	if _, ok := t.splits[key]; !ok {
		if len(t.splitOrder) >= splitCacheCap {
			oldest := t.splitOrder[0]
			t.splitOrder = t.splitOrder[1:]
			delete(t.splits, oldest)
		}
		t.splits[key] = out
		t.splitOrder = append(t.splitOrder, key)
	}
	t.splitMu.Unlock()
	return out, nil
}

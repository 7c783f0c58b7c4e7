package cube

import (
	"container/list"
	"sync"
	"sync/atomic"

	"sdwp/internal/bitset"
)

// ArtifactCache is the cross-batch artifact cache: a byte-bounded LRU of
// the batch executor's stage-1/2 artifacts — composed filter-set bitmaps
// keyed by Query.FilterFingerprint, per-predicate bitmaps keyed by
// AttrFilter.Fingerprint, and composite roll-up key columns keyed by
// Query.GroupFingerprint — so a hot dashboard filter or group-by survives
// between scans instead of being re-materialized per batch.
//
// Entries are validated against the fact table's version (FactData bumps
// it on AddFact, and the cube bumps every table on member/attribute
// mutation), so an artifact built over stale data is never served: the
// stale entry is dropped on lookup and the scan re-materializes. Cached
// artifacts are immutable and may be read by any number of concurrent
// scans; they are never recycled through the executor's buffer pools.
//
// Admission is doorkept, mirroring the scheduler's result cache: an
// artifact is admitted only once its composite key (fingerprint, not
// version — a hot filter stays admitted across ingest) has been offered
// at least twice, so a one-off exploratory filter passes through without
// evicting hot artifacts. Two map generations bound the doorkeeper's
// footprint: when the current generation fills it becomes the old one and
// a fresh map starts, forgetting fingerprints roughly FIFO.
//
// The shard subsystem keeps one ArtifactCache per fact shard — the cache
// key is effectively (fingerprint, shard, table version) there — and the
// scheduler can front the unsharded engine with a single cache the same
// way (core.Options.ArtifactCacheBytes).
type ArtifactCache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[string]*list.Element // composite key → *artifactEntry element
	lru     *list.List               // front = most recently used

	// Doorkeeper generations (guarded by mu): composite keys offered via
	// put at least once; a second offer admits.
	doorCap int
	doorCur map[string]struct{}
	doorOld map[string]struct{}

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	stale     atomic.Int64
	doorkept  atomic.Int64
}

// artifactDoorCapacity bounds one doorkeeper generation — a memory bound,
// not a tuning knob (cf. qsched's result-cache doorkeeper).
const artifactDoorCapacity = 4096

// artifactEntry is one cached artifact. Exactly one of mask/col is set.
type artifactEntry struct {
	key     string
	version uint64
	mask    *bitset.Set
	col     []int32
	bytes   int64
}

// NewArtifactCache builds a cache bounded to maxBytes of artifact payload
// (nil if maxBytes <= 0, which callers treat as "caching off").
func NewArtifactCache(maxBytes int64) *ArtifactCache {
	if maxBytes <= 0 {
		return nil
	}
	return &ArtifactCache{max: maxBytes, entries: map[string]*list.Element{}, lru: list.New(),
		doorCap: artifactDoorCapacity, doorCur: map[string]struct{}{}}
}

// SetDoorkeeperCapacity overrides the doorkeeper's per-generation bound
// (tests exercise generation rotation with small capacities; production
// keeps the default).
func (ac *ArtifactCache) SetDoorkeeperCapacity(n int) {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if n < 1 {
		n = 1
	}
	ac.doorCap = n
}

// maskKey/predKey/colKey build the composite cache key. The fact name
// scopes fingerprints across tables; the kind prefix keeps the three
// artifact namespaces apart.
func maskKey(fd *FactData, fp string) string { return "m|" + fd.fact.Name + "|" + fp }
func predKey(fd *FactData, fp string) string { return "p|" + fd.fact.Name + "|" + fp }
func colKey(fd *FactData, fp string) string  { return "c|" + fd.fact.Name + "|" + fp }

// getMask returns the cached filter bitmap for the fingerprint if it was
// built under the given table version (and size), else nil.
func (ac *ArtifactCache) getMask(fd *FactData, version uint64, fp string) *bitset.Set {
	e := ac.get(maskKey(fd, fp), version)
	if e == nil || e.mask == nil || e.mask.Len() != fd.n {
		return nil
	}
	return e.mask
}

// getPredMask returns the cached per-predicate bitmap for the fingerprint
// if it was built under the given table version (and size), else nil.
func (ac *ArtifactCache) getPredMask(fd *FactData, version uint64, fp string) *bitset.Set {
	e := ac.get(predKey(fd, fp), version)
	if e == nil || e.mask == nil || e.mask.Len() != fd.n {
		return nil
	}
	return e.mask
}

// getCol returns the cached roll-up key column likewise.
func (ac *ArtifactCache) getCol(fd *FactData, version uint64, fp string) []int32 {
	e := ac.get(colKey(fd, fp), version)
	if e == nil || e.col == nil || len(e.col) != fd.n {
		return nil
	}
	return e.col
}

func (ac *ArtifactCache) get(key string, version uint64) *artifactEntry {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	el, ok := ac.entries[key]
	if !ok {
		ac.misses.Add(1)
		return nil
	}
	e := el.Value.(*artifactEntry)
	if e.version != version {
		// Built over a previous table state: drop it (the caller will
		// re-materialize and re-insert at the current version).
		ac.removeLocked(el)
		ac.stale.Add(1)
		ac.misses.Add(1)
		return nil
	}
	ac.lru.MoveToFront(el)
	ac.hits.Add(1)
	return e
}

// putMask hands a freshly filled filter bitmap to the cache. It reports
// whether the cache took ownership — false when the table version moved
// while the scan was filling (the artifact may be torn relative to the new
// state) or when the artifact alone exceeds the cache bound.
func (ac *ArtifactCache) putMask(fd *FactData, version uint64, fp string, m *bitset.Set) bool {
	if fd.version.Load() != version {
		return false
	}
	return ac.put(&artifactEntry{key: maskKey(fd, fp), version: version, mask: m,
		bytes: int64(m.Len()/8 + 16)})
}

// putPredMask hands a freshly filled per-predicate bitmap to the cache
// likewise.
func (ac *ArtifactCache) putPredMask(fd *FactData, version uint64, fp string, m *bitset.Set) bool {
	if fd.version.Load() != version {
		return false
	}
	return ac.put(&artifactEntry{key: predKey(fd, fp), version: version, mask: m,
		bytes: int64(m.Len()/8 + 16)})
}

// putCol hands a freshly filled key column to the cache likewise.
func (ac *ArtifactCache) putCol(fd *FactData, version uint64, fp string, col []int32) bool {
	if fd.version.Load() != version {
		return false
	}
	return ac.put(&artifactEntry{key: colKey(fd, fp), version: version, col: col,
		bytes: int64(4*len(col) + 16)})
}

// admitLocked is the doorkeeper verdict for one composite key: true once
// the key has been offered before (this offer then counts as the repeat
// that keeps it hot), false on first sight — the offer is recorded so the
// next one admits. Callers hold ac.mu.
func (ac *ArtifactCache) admitLocked(key string) bool {
	if _, ok := ac.doorCur[key]; ok {
		return true
	}
	if _, ok := ac.doorOld[key]; ok {
		ac.doorCur[key] = struct{}{} // keep hot keys in the fresh generation
		return true
	}
	if len(ac.doorCur) >= ac.doorCap {
		ac.doorOld = ac.doorCur
		ac.doorCur = map[string]struct{}{}
	}
	ac.doorCur[key] = struct{}{}
	return false
}

func (ac *ArtifactCache) put(e *artifactEntry) bool {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if e.bytes > ac.max { // checked under the lock: max is mutable via Resize
		return false
	}
	if !ac.admitLocked(e.key) {
		// First offer of this fingerprint: the doorkeeper turns it away so
		// one-off filters cannot evict hot artifacts; the caller keeps
		// ownership (the buffer returns to the scan pools).
		ac.doorkept.Add(1)
		return false
	}
	if el, ok := ac.entries[e.key]; ok {
		// A concurrent scan raced us to the insert; keep the existing entry
		// (both were built at the same version, so they are identical) and
		// let the caller pool its copy.
		if el.Value.(*artifactEntry).version == e.version {
			return false
		}
		ac.removeLocked(el)
	}
	ac.entries[e.key] = ac.lru.PushFront(e)
	ac.bytes += e.bytes
	for ac.bytes > ac.max {
		oldest := ac.lru.Back()
		if oldest == nil {
			break
		}
		ac.removeLocked(oldest)
		ac.evictions.Add(1)
	}
	return true
}

// Resize retunes the cache's byte budget at runtime — the adaptive
// tuner's hit-rate knob — evicting least-recently-used entries
// immediately when shrinking below the current footprint. A no-op on a
// nil cache or a non-positive budget (a disabled cache stays disabled).
func (ac *ArtifactCache) Resize(maxBytes int64) {
	if ac == nil || maxBytes <= 0 {
		return
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	ac.max = maxBytes
	for ac.bytes > ac.max {
		oldest := ac.lru.Back()
		if oldest == nil {
			break
		}
		ac.removeLocked(oldest)
		ac.evictions.Add(1)
	}
}

// removeLocked unlinks an entry. Callers hold ac.mu. The payload is left
// to the GC — in-flight scans may still be reading it.
func (ac *ArtifactCache) removeLocked(el *list.Element) {
	e := el.Value.(*artifactEntry)
	ac.lru.Remove(el)
	delete(ac.entries, e.key)
	ac.bytes -= e.bytes
}

// ArtifactCacheStats is a point-in-time snapshot of a cache's counters.
type ArtifactCacheStats struct {
	// Hits/Misses count artifact lookups; Stale counts misses caused by a
	// table-version bump (AddFact or member mutation) since the artifact
	// was built.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Stale  int64 `json:"stale"`
	// Doorkept counts artifacts turned away by the admission doorkeeper
	// (their fingerprint had only been offered once); they stay scan-
	// scoped and pooled, and a repeat offer admits.
	Doorkept int64 `json:"doorkept"`
	// Entries/Bytes is the current footprint; Evictions counts entries
	// displaced by the byte bound.
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Evictions int64 `json:"evictions"`
}

// Stats snapshots the cache counters (zero value from a nil cache).
func (ac *ArtifactCache) Stats() ArtifactCacheStats {
	if ac == nil {
		return ArtifactCacheStats{}
	}
	st := ArtifactCacheStats{
		Hits:      ac.hits.Load(),
		Misses:    ac.misses.Load(),
		Stale:     ac.stale.Load(),
		Doorkept:  ac.doorkept.Load(),
		Evictions: ac.evictions.Load(),
	}
	ac.mu.Lock()
	st.Entries = len(ac.entries)
	st.Bytes = ac.bytes
	ac.mu.Unlock()
	return st
}

// add folds another cache's snapshot in (the shard table aggregates its
// per-shard caches this way).
func (s *ArtifactCacheStats) Add(o ArtifactCacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Stale += o.Stale
	s.Doorkept += o.Doorkept
	s.Entries += o.Entries
	s.Bytes += o.Bytes
	s.Evictions += o.Evictions
}

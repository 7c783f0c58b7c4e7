package cube

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"sdwp/internal/bitset"
)

// artifactCache is a fact table's cross-batch artifact cache: a
// byte-bounded LRU of the batch executor's stage-1/2 artifacts over that
// table — composed filter-set bitmaps keyed by Query.FilterFingerprint,
// per-predicate bitmaps keyed by AttrFilter.Fingerprint, and composite
// roll-up key columns keyed by Query.GroupFingerprint — so a hot
// dashboard filter or group-by survives between scans instead of being
// re-materialized per batch — and views' masks keyed by View.Key. Every
// FactData owns one (always on); every shared scan of the table consults
// it, and a fact shard is a FactData of its own, so a sharded table
// caches per shard with no split code.
//
// The four keyspaces are disjoint by their first byte — a set
// fingerprint starts with a length digit, a predicate fingerprint with
// 'w', a grouping fingerprint with 'g', a view key with 'v' — so the key
// needs no namespace (FuzzArtifactKeys pins this and the keys' semantic
// injectivity, FuzzViewKey the view keys').
//
// Entries are validated against the fact table's version (FactData bumps
// it on AddFact, and the cube bumps every table on member/attribute
// mutation), so an artifact built over stale data is never served: the
// stale entry is dropped on lookup and the scan re-materializes. Cached
// artifacts are immutable and may be read by any number of concurrent
// scans; they are never recycled through the executor's buffer pools.
//
// Admission is doorkept, mirroring the scheduler's result cache: an
// artifact is admitted only once its fingerprint (not version — a hot
// filter stays admitted across ingest) has been offered at least twice,
// so a one-off exploratory filter passes through without evicting hot
// artifacts; view masks skip it (every query of a session reads its
// mask). Two map generations bound the doorkeeper's footprint: when
// the current generation fills it becomes the old one and a fresh map
// starts, forgetting fingerprints roughly FIFO.
//
// The zero value is ready to use.
type artifactCache struct {
	mu      sync.Mutex
	bytes   int64
	entries map[string]*list.Element // fingerprint → *artifactEntry element
	lru     list.List                // front = most recently used

	// Doorkeeper generations (guarded by mu): fingerprints offered via
	// put at least once; a second offer admits.
	doorCur map[string]struct{}
	doorOld map[string]struct{}

	// budget and doorCap override artifactBytesPerFact and
	// artifactDoorCapacity when non-zero; only tests set them
	// (export_test.go).
	budget  int64
	doorCap int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	stale     atomic.Int64
	doorkept  atomic.Int64
}

// artifactBytesPerFact bounds a table's cached artifact payload per fact:
// five table-length int32 key columns (or forty bitmaps, or any mix), 8 MB
// at 400 000 facts. A memory bound derived from the table, not a knob.
const artifactBytesPerFact = 20

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

// cachedMask returns the table's cached bitmap (a composed set mask or a
// predicate bitmap) for the fingerprint if it was built under the given
// table version over the whole table, else nil.
func (fd *FactData) cachedMask(version uint64, fp string) *bitset.Set {
	e := fd.artifacts.get(fp, version)
	if e == nil || e.mask == nil || e.mask.Len() != fd.n {
		return nil
	}
	return e.mask
}

// cachedCol returns the table's cached roll-up key column likewise.
func (fd *FactData) cachedCol(version uint64, fp string) []int32 {
	e := fd.artifacts.get(fp, version)
	if e == nil || e.col == nil || len(e.col) != fd.n {
		return nil
	}
	return e.col
}

// offerMask hands a bitmap freshly filled over the whole table to the
// table's cache. It reports whether the cache took ownership — false when
// the doorkeeper turns it away, when the table version moved while the
// scan was filling (the artifact may be torn relative to the new state),
// or when the artifact alone exceeds the budget.
func (fd *FactData) offerMask(version uint64, fp string, m *bitset.Set) bool {
	return fd.offer(&artifactEntry{key: fp, version: version, mask: m,
		bytes: int64(m.Len()/8 + 16)})
}

// offerCol hands a freshly filled key column to the cache likewise.
func (fd *FactData) offerCol(version uint64, fp string, col []int32) bool {
	return fd.offer(&artifactEntry{key: fp, version: version, col: col,
		bytes: int64(4*len(col) + 16)})
}

func (fd *FactData) offer(e *artifactEntry) bool {
	if fd.version.Load() != e.version {
		return false
	}
	return fd.artifacts.put(e, fd.n)
}

func (ac *artifactCache) get(key string, version uint64) *artifactEntry {
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

// admitLocked is the doorkeeper verdict for one fingerprint: true once it
// has been offered before (this offer then counts as the repeat that keeps
// it hot), false on first sight — the offer is recorded so the next one
// admits. Callers hold ac.mu.
func (ac *artifactCache) admitLocked(key string) bool {
	if _, ok := ac.doorCur[key]; ok {
		return true
	}
	if _, ok := ac.doorOld[key]; ok {
		ac.doorCur[key] = struct{}{} // keep hot keys in the fresh generation
		return true
	}
	doorCap := ac.doorCap
	if doorCap == 0 {
		doorCap = artifactDoorCapacity
	}
	if ac.doorCur == nil || len(ac.doorCur) >= doorCap {
		ac.doorOld = ac.doorCur
		ac.doorCur = map[string]struct{}{}
	}
	ac.doorCur[key] = struct{}{}
	return false
}

// put inserts e into the cache of a table of n facts.
func (ac *artifactCache) put(e *artifactEntry, n int) bool {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	budget := ac.budgetLocked(n)
	if e.bytes > budget {
		return false
	}
	if !strings.HasPrefix(e.key, viewKeyPrefix) && !ac.admitLocked(e.key) {
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
	if ac.entries == nil {
		ac.entries = map[string]*list.Element{}
	}
	ac.entries[e.key] = ac.lru.PushFront(e)
	ac.bytes += e.bytes
	for ac.bytes > budget {
		oldest := ac.lru.Back()
		if oldest == nil {
			break
		}
		ac.removeLocked(oldest)
		ac.evictions.Add(1)
	}
	return true
}

// budgetLocked is the byte budget of a table of n facts. Callers hold
// ac.mu.
func (ac *artifactCache) budgetLocked(n int) int64 {
	if ac.budget != 0 {
		return ac.budget
	}
	return artifactBytesPerFact * int64(n)
}

// removeLocked unlinks an entry. Callers hold ac.mu. The payload is left
// to the GC — in-flight scans may still be reading it.
func (ac *artifactCache) removeLocked(el *list.Element) {
	e := el.Value.(*artifactEntry)
	ac.lru.Remove(el)
	delete(ac.entries, e.key)
	ac.bytes -= e.bytes
}

// ArtifactCacheStats is a point-in-time snapshot of artifact-cache
// counters (one table's, or a sum over tables and shards).
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
	// displaced by the byte budget.
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Evictions int64 `json:"evictions"`
}

// stats snapshots the cache counters.
func (ac *artifactCache) stats() ArtifactCacheStats {
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

// ArtifactCacheStats sums the artifact caches of the cube's fact tables.
func (c *Cube) ArtifactCacheStats() ArtifactCacheStats {
	var st ArtifactCacheStats
	for _, fd := range c.facts {
		st.Add(fd.artifacts.stats())
	}
	return st
}

// Add folds another snapshot in (the shard table sums its shards' caches
// this way).
func (s *ArtifactCacheStats) Add(o ArtifactCacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Stale += o.Stale
	s.Doorkept += o.Doorkept
	s.Entries += o.Entries
	s.Bytes += o.Bytes
	s.Evictions += o.Evictions
}

package qsched

import (
	"container/list"
	"sync"

	"sdwp/internal/cube"
)

// resultCache is a byte-bounded LRU over immutable query results. Keys are
// the scheduler's (view id, view epoch, plan fingerprint) triples, so a
// view mutation retires all of that view's entries simply by never looking
// them up again — old-epoch entries age out through normal LRU pressure.
type resultCache struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits      int64
	misses    int64
	evictions int64
}

type cacheEntry struct {
	key  string
	res  *cube.Result
	size int64
}

func newResultCache(maxBytes int64) *resultCache {
	return &resultCache{max: maxBytes, ll: list.New(), items: map[string]*list.Element{}}
}

// get returns the cached result for key and marks it most recently used.
// The returned Result is shared and must be treated as immutable.
func (c *resultCache) get(key string) (*cube.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// entryOverhead approximates the per-entry bookkeeping cost beyond the
// result itself: the cacheEntry struct, its list.Element, and the map slot.
const entryOverhead = 128

// entrySize is what one cached entry charges against the byte budget: the
// result, its key string, and the fixed bookkeeping overhead.
func entrySize(key string, res *cube.Result) int64 {
	return resultSize(res) + int64(len(key)) + entryOverhead
}

// put inserts (or refreshes) a result, evicting least-recently-used entries
// until the byte budget holds. Results larger than the whole budget are not
// cached at all.
func (c *resultCache) put(key string, res *cube.Result) {
	size := entrySize(key, res)
	if size > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += size - e.size
		e.res, e.size = res, size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, size: size})
		c.bytes += size
	}
	for c.bytes > c.max {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= e.size
		c.evictions++
	}
}

// stats returns the cache counters and current footprint.
func (c *resultCache) stats() (hits, misses, evictions, bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.bytes, len(c.items)
}

// doorkeeper is the result cache's admission filter: a result is cached
// only once its plan fingerprint has been requested at least twice, so
// one-off exploratory queries pass through without evicting hot entries.
// It is keyed by the bare plan fingerprint (not the view epoch), so a
// recurring dashboard tile stays admitted across selections and across
// users. Two map generations bound the footprint: when the current
// generation fills up it becomes the old one and a fresh map starts, which
// forgets fingerprints roughly FIFO without ever scanning.
type doorkeeper struct {
	mu       sync.Mutex
	capacity int
	cur, old map[string]struct{}
}

func newDoorkeeper(capacity int) *doorkeeper {
	return &doorkeeper{capacity: capacity, cur: map[string]struct{}{}}
}

// request records one request for the fingerprint and reports whether it
// had been requested before (= the next put for it may cache).
func (d *doorkeeper) request(fp string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.cur[fp]; ok {
		return true
	}
	if _, ok := d.old[fp]; ok {
		d.cur[fp] = struct{}{} // keep hot fingerprints in the fresh gen
		return true
	}
	if len(d.cur) >= d.capacity {
		d.old = d.cur
		d.cur = map[string]struct{}{}
	}
	d.cur[fp] = struct{}{}
	return false
}

// errCache is the negative cache for invalid queries: compile errors keyed
// by query fingerprint. Validation depends only on the cube schema — never
// on view state — so entries are epoch-agnostic; the bounded FIFO simply
// forgets old mistakes. A hit answers a repeated malformed query without
// re-deriving the error or touching the coalesce queue.
type errCache struct {
	mu       sync.Mutex
	capacity int
	m        map[string]error
	order    []string // insertion order, the FIFO eviction queue
}

func newErrCache(capacity int) *errCache {
	return &errCache{capacity: capacity, m: map[string]error{}}
}

// get returns the cached compile error for the fingerprint, if any.
func (c *errCache) get(fp string) (error, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	err, ok := c.m[fp]
	return err, ok
}

// put records a compile error, evicting the oldest entry over capacity.
func (c *errCache) put(fp string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[fp]; ok {
		return
	}
	if len(c.m) >= c.capacity && len(c.order) > 0 {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
	}
	c.m[fp] = err
	c.order = append(c.order, fp)
}

// size returns the number of cached errors.
func (c *errCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// resultSize approximates a Result's memory footprint: struct and slice
// headers plus string bytes and 8 bytes per aggregate value. It
// deliberately overcounts a little (headers rounded up) so the byte bound
// is conservative.
func resultSize(r *cube.Result) int64 {
	const (
		structOverhead = 96
		sliceHeader    = 24
		stringHeader   = 16
	)
	size := int64(structOverhead)
	for _, s := range r.GroupCols {
		size += stringHeader + int64(len(s))
	}
	for _, s := range r.AggCols {
		size += stringHeader + int64(len(s))
	}
	for _, row := range r.Rows {
		size += 2 * sliceHeader
		for _, g := range row.Groups {
			size += stringHeader + int64(len(g))
		}
		size += 8 * int64(len(row.Values))
	}
	return size
}

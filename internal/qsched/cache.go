package qsched

import (
	"container/list"
	"sync"

	"sdwp/internal/cube"
)

// resultCache is a byte-bounded LRU over immutable query results. Keys are
// the scheduler's (view key, fact version, plan fingerprint) triples, so a
// selection or an append retires the entries of the content before it
// simply by never looking them up again — they age out through normal LRU
// pressure.
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
// It is keyed by the bare plan fingerprint (not the view key), so a
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

package obs

import (
	"sort"
	"sync"
	"time"
)

// QueryCost is the resource-consumption vector attributed to one query:
// what the executor measured (facts, artifact bytes, result cells), the
// CPU nanoseconds the scheduler split out of the shared batch scan, and
// the credits sharing and caching earned the query. Every field is a
// plain additive counter so costs compose by Add — a sharded scan's cost
// is the sum of its per-shard partial costs, a batch's cost is the sum
// of its per-query attributions (the conservation law the tests pin).
type QueryCost struct {
	// FactsScanned / FactsMatched mirror Result.ScannedFacts/MatchedFacts.
	FactsScanned int64 `json:"factsScanned"`
	FactsMatched int64 `json:"factsMatched"`
	// CellsTouched counts distinct group cells materialized by finalize
	// (before any Limit truncation).
	CellsTouched int64 `json:"cellsTouched"`
	// BitmapBytes / KeyColBytes are this query's share of the filter
	// bitmaps and roll-up key columns freshly materialized by its scan.
	// Shared artifacts split evenly across the queries that use them, so
	// per-query shares sum exactly to the batch's build totals.
	BitmapBytes int64 `json:"bitmapBytes"`
	KeyColBytes int64 `json:"keyColBytes"`
	// SharedSavedBytes is the sharing discount on artifact bytes: what
	// the query would have built alone minus its attributed share.
	SharedSavedBytes int64 `json:"sharedSavedBytes"`
	// CPUNs is this query's share of the batch's per-stage scan CPU
	// (filter mask + group decode + accumulate + merge + gather), split
	// proportionally to facts scanned across the coalesced batch.
	CPUNs int64 `json:"cpuNs"`
	// SharedSavedNs is the coalescing discount: the batch's full scan
	// CPU minus this query's attributed share (zero for a lone query).
	SharedSavedNs int64 `json:"sharedSavedNs"`
	// CacheCreditNs is scan CPU avoided by result-cache hits, credited
	// from the cost stored with the cached result.
	CacheCreditNs int64 `json:"cacheCreditNs"`
}

// Add accumulates o into c.
func (c *QueryCost) Add(o QueryCost) {
	c.FactsScanned += o.FactsScanned
	c.FactsMatched += o.FactsMatched
	c.CellsTouched += o.CellsTouched
	c.BitmapBytes += o.BitmapBytes
	c.KeyColBytes += o.KeyColBytes
	c.SharedSavedBytes += o.SharedSavedBytes
	c.CPUNs += o.CPUNs
	c.SharedSavedNs += o.SharedSavedNs
	c.CacheCreditNs += o.CacheCreditNs
}

// Weight collapses the vector to one scalar for ranking: CPU time when
// the scheduler measured it, with facts scanned as a tie-breaker for
// costs recorded outside a scheduler batch (direct executor calls).
func (c QueryCost) Weight() float64 {
	return float64(c.CPUNs) + float64(c.FactsScanned)
}

// SplitTotal divides total nanoseconds (or any additive unit) across
// weights proportionally, with exact conservation: the cumulative-target
// method guarantees every share is non-negative and the shares sum to
// total, deterministically. Zero weights still receive a minimal share
// via the +1 smoothing the caller applies.
func SplitTotal(total int64, weights []int64) []int64 {
	shares := make([]int64, len(weights))
	if len(weights) == 0 || total <= 0 {
		return shares
	}
	var wsum float64
	for _, w := range weights {
		if w > 0 {
			wsum += float64(w)
		}
	}
	if wsum == 0 {
		// Degenerate: split evenly.
		q, r := total/int64(len(weights)), total%int64(len(weights))
		for i := range shares {
			shares[i] = q
			if int64(i) < r {
				shares[i]++
			}
		}
		return shares
	}
	var acc int64
	var cum float64
	for i, w := range weights {
		if w > 0 {
			cum += float64(w)
		}
		target := int64(float64(total) * cum / wsum)
		if i == len(weights)-1 {
			target = total
		}
		if target < acc {
			target = acc
		}
		if target > total {
			target = total
		}
		shares[i] = target - acc
		acc = target
	}
	return shares
}

// OtherTenant is the collapsed label for tenants past the cardinality
// cap, matching the HistogramVec overflow series so JSON aggregates and
// /metrics series line up.
const OtherTenant = "other"

// AccountantOptions sizes the cost-accounting layer.
type AccountantOptions struct {
	// ProfileCapacity bounds the heavy-query profile registry (0 =
	// default 128 fingerprints).
	ProfileCapacity int
	// DecayHalfLife is the half-life of the profile ranking score: a
	// profile's cumulative cost weight halves every period, so a
	// one-time expensive migration query eventually yields the top-K to
	// the queries that are expensive *now* (0 = default 10 minutes).
	DecayHalfLife time.Duration
	// TenantCap bounds the distinct per-tenant aggregate entries; past
	// it new tenants collapse into OtherTenant (0 = default 64).
	TenantCap int
}

const (
	defaultProfileCapacity = 128
	defaultDecayHalfLife   = 10 * time.Minute
	defaultTenantCap       = 64
)

// tenantAccount accumulates one tenant's cost totals.
type tenantAccount struct {
	queries   int64
	cacheHits int64
	cost      QueryCost
}

// TenantStat is one tenant's aggregate, as served by GET /api/tenants.
type TenantStat struct {
	Tenant string `json:"tenant"`
	// Queries counts every submission attributed to the tenant,
	// including result-cache hits.
	Queries      int64     `json:"queries"`
	CacheHits    int64     `json:"cacheHits"`
	CacheHitRate float64   `json:"cacheHitRate"`
	Cost         QueryCost `json:"cost"`
}

// Accountant attributes per-query costs to tenants and feeds the
// heavy-query profile registry. All methods are nil-safe and
// goroutine-safe; recording is a short critical section over plain
// counter adds.
type Accountant struct {
	opts AccountantOptions

	mu      sync.Mutex
	tenants map[string]*tenantAccount
	total   tenantAccount // global sums, for conservation checks and /metrics

	profiles *ProfileRegistry
}

// NewAccountant builds an accountant with the given bounds.
func NewAccountant(opts AccountantOptions) *Accountant {
	if opts.ProfileCapacity <= 0 {
		opts.ProfileCapacity = defaultProfileCapacity
	}
	if opts.DecayHalfLife <= 0 {
		opts.DecayHalfLife = defaultDecayHalfLife
	}
	if opts.TenantCap <= 0 {
		opts.TenantCap = defaultTenantCap
	}
	return &Accountant{
		opts:     opts,
		tenants:  make(map[string]*tenantAccount),
		profiles: NewProfileRegistry(opts.ProfileCapacity, opts.DecayHalfLife),
	}
}

// TenantCap returns the configured tenant-label cardinality cap.
func (a *Accountant) TenantCap() int {
	if a == nil {
		return 0
	}
	return a.opts.TenantCap
}

// tenantLocked returns (creating if needed) the account for tenant,
// collapsing new tenants into OtherTenant once the cap is reached.
func (a *Accountant) tenantLocked(tenant string) *tenantAccount {
	if t := a.tenants[tenant]; t != nil {
		return t
	}
	if len(a.tenants) >= a.opts.TenantCap {
		tenant = OtherTenant
		if t := a.tenants[tenant]; t != nil {
			return t
		}
	}
	t := &tenantAccount{}
	a.tenants[tenant] = t
	return t
}

// RecordQuery attributes one executed query's cost to a tenant and
// feeds the profile registry under the query's plan fingerprint.
func (a *Accountant) RecordQuery(tenant, fingerprint, traceID string, dur time.Duration, c QueryCost) {
	if a == nil {
		return
	}
	a.mu.Lock()
	t := a.tenantLocked(tenant)
	t.queries++
	t.cost.Add(c)
	a.total.queries++
	a.total.cost.Add(c)
	a.mu.Unlock()
	a.profiles.Record(fingerprint, traceID, dur, c)
}

// RecordCacheHit credits a tenant for a result-cache hit: the stored
// result's cost is the work the cache avoided, credited as CacheCreditNs
// (CPU) — the hit itself scans nothing, so no other field accrues.
func (a *Accountant) RecordCacheHit(tenant string, saved QueryCost) {
	if a == nil {
		return
	}
	credit := saved.CPUNs + saved.CacheCreditNs
	a.mu.Lock()
	t := a.tenantLocked(tenant)
	t.queries++
	t.cacheHits++
	t.cost.CacheCreditNs += credit
	a.total.queries++
	a.total.cacheHits++
	a.total.cost.CacheCreditNs += credit
	a.mu.Unlock()
}

// Tenants snapshots every tenant aggregate, most expensive first.
func (a *Accountant) Tenants() []TenantStat {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	out := make([]TenantStat, 0, len(a.tenants))
	for name, t := range a.tenants {
		s := TenantStat{Tenant: name, Queries: t.queries, CacheHits: t.cacheHits, Cost: t.cost}
		if t.queries > 0 {
			s.CacheHitRate = float64(t.cacheHits) / float64(t.queries)
		}
		out = append(out, s)
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		wi, wj := out[i].Cost.Weight(), out[j].Cost.Weight()
		if wi != wj {
			return wi > wj
		}
		return out[i].Tenant < out[j].Tenant
	})
	return out
}

// Totals returns the global query count and summed cost across every
// tenant (including OtherTenant) — the right-hand side of the
// conservation law the tests assert.
func (a *Accountant) Totals() (queries int64, cost QueryCost) {
	if a == nil {
		return 0, QueryCost{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total.queries, a.total.cost
}

// TopQueries returns the n heaviest query profiles by decayed
// cumulative cost.
func (a *Accountant) TopQueries(n int) []QueryProfile {
	if a == nil {
		return nil
	}
	return a.profiles.Top(n)
}

// Profiles exposes the underlying registry (for metrics collectors).
func (a *Accountant) Profiles() *ProfileRegistry {
	if a == nil {
		return nil
	}
	return a.profiles
}

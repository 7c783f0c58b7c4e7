package obs

import (
	"fmt"
	"testing"
	"time"
)

// TestSplitTotalConserves pins the cost-attribution invariant everything
// downstream relies on: the proportional split of a batch total across
// weighted queries sums back to the total exactly, for any weights.
func TestSplitTotalConserves(t *testing.T) {
	cases := []struct {
		total   int64
		weights []int64
	}{
		{0, []int64{1, 2, 3}},
		{1, []int64{1}},
		{7, []int64{1, 1, 1}},
		{100, []int64{1, 2, 3, 4}},
		{999_999_937, []int64{5, 0, 17, 1, 1 << 40}},
		{1 << 50, []int64{3, 3, 3, 3, 3, 3, 3}},
	}
	for _, tc := range cases {
		shares := SplitTotal(tc.total, tc.weights)
		if len(shares) != len(tc.weights) {
			t.Fatalf("SplitTotal(%d, %v) returned %d shares", tc.total, tc.weights, len(shares))
		}
		var sum int64
		for i, s := range shares {
			if s < 0 {
				t.Errorf("SplitTotal(%d, %v): negative share %d at %d", tc.total, tc.weights, s, i)
			}
			sum += s
		}
		if sum != tc.total {
			t.Errorf("SplitTotal(%d, %v) = %v sums to %d", tc.total, tc.weights, shares, sum)
		}
	}
	if got := SplitTotal(10, nil); len(got) != 0 {
		t.Errorf("SplitTotal with no weights returned %v", got)
	}
}

// TestSplitTotalProportional checks heavier weights get at least as much.
func TestSplitTotalProportional(t *testing.T) {
	shares := SplitTotal(1000, []int64{1, 10, 100})
	if !(shares[0] <= shares[1] && shares[1] <= shares[2]) {
		t.Errorf("shares not monotone in weight: %v", shares)
	}
	if shares[2] < 800 {
		t.Errorf("dominant weight got %d of 1000", shares[2])
	}
}

// TestAccountantAttributionAndTotals checks per-tenant accumulation, the
// global totals, and the weight-ordered listing.
func TestAccountantAttributionAndTotals(t *testing.T) {
	a := NewAccountant(AccountantOptions{})
	a.RecordQuery("alice", "fpA", "t1", time.Millisecond, QueryCost{FactsScanned: 100, CPUNs: 5000})
	a.RecordQuery("alice", "fpB", "t2", time.Millisecond, QueryCost{FactsScanned: 50, CPUNs: 1000})
	a.RecordQuery("bob", "fpA", "t3", time.Millisecond, QueryCost{FactsScanned: 10, CPUNs: 200})
	a.RecordCacheHit("bob", QueryCost{CPUNs: 700, CacheCreditNs: 300})

	stats := a.Tenants()
	if len(stats) != 2 {
		t.Fatalf("tenants = %d, want 2", len(stats))
	}
	if stats[0].Tenant != "alice" {
		t.Errorf("heaviest tenant = %q, want alice", stats[0].Tenant)
	}
	if stats[0].Queries != 2 || stats[0].Cost.FactsScanned != 150 || stats[0].Cost.CPUNs != 6000 {
		t.Errorf("alice account %+v", stats[0])
	}
	bob := stats[1]
	if bob.Queries != 2 || bob.CacheHits != 1 {
		t.Errorf("bob counts %+v", bob)
	}
	if bob.Cost.CacheCreditNs != 1000 { // stored CPU + stored credit
		t.Errorf("bob cache credit = %d, want 1000", bob.Cost.CacheCreditNs)
	}
	if want := 0.5; bob.CacheHitRate != want {
		t.Errorf("bob hit rate = %v, want %v", bob.CacheHitRate, want)
	}

	queries, total := a.Totals()
	if queries != 4 {
		t.Errorf("total queries = %d, want 4", queries)
	}
	var sum QueryCost
	for _, ts := range stats {
		sum.Add(ts.Cost)
	}
	if total != sum {
		t.Errorf("global total %+v != Σ tenants %+v", total, sum)
	}
}

// TestAccountantTenantCapCollapses checks the cardinality guard: past the
// cap, new tenants land in the shared "other" account instead of growing
// the map (and the metric label space) without bound.
func TestAccountantTenantCapCollapses(t *testing.T) {
	a := NewAccountant(AccountantOptions{TenantCap: 3})
	for i := 0; i < 10; i++ {
		a.RecordQuery(fmt.Sprintf("tenant%d", i), "fp", "", time.Millisecond, QueryCost{FactsScanned: 1})
	}
	stats := a.Tenants()
	if len(stats) > 4 { // cap named tenants + the shared "other" series
		t.Fatalf("tenant accounts = %d, want <= cap+1 = 4", len(stats))
	}
	var other *TenantStat
	for i := range stats {
		if stats[i].Tenant == OtherTenant {
			other = &stats[i]
		}
	}
	if other == nil {
		t.Fatal("no \"other\" account after overflow")
	}
	if other.Queries != 7 { // 10 tenants, 3 named before the cap bit
		t.Errorf("other absorbed %d queries, want 7", other.Queries)
	}
	queries, total := a.Totals()
	if queries != 10 || total.FactsScanned != 10 {
		t.Errorf("totals lost overflow traffic: %d queries, %+v", queries, total)
	}
}

// TestProfileRegistryTopAndEviction checks the heavy-query registry:
// ranking by cumulative cost, the profile fields, and capacity eviction
// of the coldest fingerprint.
func TestProfileRegistryTopAndEviction(t *testing.T) {
	r := NewProfileRegistry(2, time.Hour)
	r.Record("heavy", "t1", 10*time.Millisecond, QueryCost{FactsScanned: 1000, CPUNs: 1e7})
	r.Record("heavy", "t2", 30*time.Millisecond, QueryCost{FactsScanned: 1000, CPUNs: 3e7})
	r.Record("light", "t3", time.Millisecond, QueryCost{FactsScanned: 10, CPUNs: 1e5})

	top := r.Top(10)
	if len(top) != 2 {
		t.Fatalf("Top returned %d profiles, want 2", len(top))
	}
	if top[0].Fingerprint != "heavy" {
		t.Errorf("top profile = %q, want heavy", top[0].Fingerprint)
	}
	h := top[0]
	if h.Count != 2 || h.TotalCost.FactsScanned != 2000 {
		t.Errorf("heavy profile %+v", h)
	}
	if h.MeanCost.FactsScanned != 1000 || h.MeanCost.CPUNs != 2e7 {
		t.Errorf("heavy mean cost %+v", h.MeanCost)
	}
	if h.MeanMs != 20 {
		t.Errorf("heavy mean = %vms, want 20", h.MeanMs)
	}
	if h.P99Ms < 20 {
		t.Errorf("heavy p99 = %vms, want >= mean", h.P99Ms)
	}
	if h.LastTraceID != "t2" {
		t.Errorf("last trace = %q, want t2", h.LastTraceID)
	}

	// A third fingerprint evicts the coldest (light).
	r.Record("new", "t4", time.Millisecond, QueryCost{FactsScanned: 500, CPUNs: 1e6})
	if r.Len() != 2 {
		t.Fatalf("registry holds %d, want capacity 2", r.Len())
	}
	for _, p := range r.Top(10) {
		if p.Fingerprint == "light" {
			t.Error("light survived eviction over the colder entry")
		}
	}
	records, evictions := r.Counters()
	if records != 4 || evictions != 1 {
		t.Errorf("counters = %d records / %d evictions, want 4/1", records, evictions)
	}
}

// TestProfileRegistryDecay checks score decay: with a tiny half-life an
// old heavy fingerprint ranks below a fresh light one.
func TestProfileRegistryDecay(t *testing.T) {
	r := NewProfileRegistry(8, time.Millisecond)
	base := time.Unix(1000, 0)
	now := base
	r.now = func() time.Time { return now }

	r.Record("old-heavy", "", time.Second, QueryCost{FactsScanned: 1e6, CPUNs: 1e9})
	now = base.Add(time.Second) // 1000 half-lives later
	r.Record("fresh-light", "", time.Millisecond, QueryCost{FactsScanned: 10, CPUNs: 1e5})

	top := r.Top(2)
	if len(top) != 2 || top[0].Fingerprint != "fresh-light" {
		t.Fatalf("decay did not demote the stale fingerprint: %+v", top)
	}
}

// TestHistogramQuantile checks the bucketed quantile used for profile p99.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(time.Microsecond) // bucket upper bound 2µs
	}
	h.Observe(100 * time.Millisecond)
	if q := h.Quantile(0.5); q > 4e-6 {
		t.Errorf("p50 = %v, want ~2µs", q)
	}
	if q := h.Quantile(0.999); q < 0.05 {
		t.Errorf("p99.9 = %v, want to land in the slow bucket", q)
	}
	var empty Histogram
	if q := empty.Quantile(0.99); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
}

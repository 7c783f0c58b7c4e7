package qsched

// Scheduler-level cost attribution: the batch pays its measured scan CPU
// once, every query of the batch gets a proportional share plus the
// sharing discount, deduplicated waiters split their request's cost
// across tenants, and result-cache hits credit the stored cost back.
// The conservation laws here complement the byte-level ones in
// internal/cube and internal/shard: Σ per-query CPU == batch CPU, and
// per-tenant accounts sum to what was actually executed.

import (
	"sync"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/obs"
)

// TestBatchCPUAttributionConserves submits one multi-query batch and pins
// the CPU split: shares sum to the batch total, and every query's share
// plus its sharing discount reconstructs the same batch total.
func TestBatchCPUAttributionConserves(t *testing.T) {
	ds := testDataset(t)
	acct := obs.NewAccountant(obs.AccountantOptions{})
	s := New(ds.Cube, Options{Costs: acct})
	defer s.Close()

	qs := []cube.Query{cityQuery(0), cityQuery(1), cityQuery(2), countQuery}
	res, err := s.SubmitBatch(qs, nil, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Batches != 1 {
		t.Fatalf("batches = %d, want 1 (the conservation law is per batch)", st.Batches)
	}
	var batchCPU, facts int64
	for _, r := range res {
		batchCPU += r.Cost.CPUNs
		facts += int64(r.ScannedFacts)
	}
	if batchCPU <= 0 {
		t.Fatal("batch attributed no CPU")
	}
	for i, r := range res {
		if got := r.Cost.CPUNs + r.Cost.SharedSavedNs; got != batchCPU {
			t.Errorf("query %d: share %d + discount %d = %d != batch CPU %d",
				i, r.Cost.CPUNs, r.Cost.SharedSavedNs, got, batchCPU)
		}
	}

	// The tenant account sums exactly what the batch attributed.
	stats := acct.Tenants()
	if len(stats) != 1 || stats[0].Tenant != "alice" {
		t.Fatalf("tenants = %+v, want alice alone", stats)
	}
	if stats[0].Cost.CPUNs != batchCPU {
		t.Errorf("alice CPU %d != Σ attributed %d", stats[0].Cost.CPUNs, batchCPU)
	}
	if stats[0].Cost.FactsScanned != facts {
		t.Errorf("alice facts %d != Σ scanned %d", stats[0].Cost.FactsScanned, facts)
	}
	if stats[0].Queries != int64(len(qs)) {
		t.Errorf("alice queries = %d, want %d", stats[0].Queries, len(qs))
	}

	// The profile registry folded every fingerprint in.
	if top := acct.TopQueries(10); len(top) != len(qs) {
		t.Errorf("profiles = %d, want %d distinct fingerprints", len(top), len(qs))
	}
}

// TestDedupSplitsCostAcrossTenants coalesces the identical query from two
// tenants into one scan and checks the split: each tenant is charged, and
// the two shares sum to the single scan's cost.
func TestDedupSplitsCostAcrossTenants(t *testing.T) {
	ds := testDataset(t)
	acct := obs.NewAccountant(obs.AccountantOptions{})
	ge := newGatedExec(ds.Cube)
	s := New(ge, Options{MaxInFlight: 1, Costs: acct})
	defer s.Close()
	defer ge.open()
	// A third tenant's scan holds the one slot, so both submissions queue
	// and merge before either can run.
	stalled := stallSlot(t, s, ge, "carol")

	var wg sync.WaitGroup
	results := make([]*cube.Result, 2)
	errs := make([]error, 2)
	for i, user := range []string{"alice", "bob"} {
		wg.Add(1)
		go func(i int, user string) {
			defer wg.Done()
			results[i], errs[i] = s.Submit(countQuery, nil, user)
		}(i, user)
	}
	waitFor(t, "the two submissions to merge", func() bool {
		st := s.Stats()
		return st.QueueDepth == 1 && st.Shared == 1
	})
	ge.open()
	wg.Wait()
	if err := <-stalled; err != nil {
		t.Fatalf("stalling query: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if st := s.Stats(); st.Shared != 1 {
		t.Fatalf("shared = %d, want 1 (the two submissions must dedup)", st.Shared)
	}

	full := results[0].Cost
	stats := acct.Tenants()
	if len(stats) != 3 {
		t.Fatalf("tenants = %d, want alice, bob and the stalling carol", len(stats))
	}
	var sum obs.QueryCost
	for _, ts := range stats {
		if ts.Tenant == "carol" {
			continue
		}
		if ts.Queries != 1 {
			t.Errorf("tenant %s recorded %d queries, want 1", ts.Tenant, ts.Queries)
		}
		if ts.Cost.FactsScanned <= 0 {
			t.Errorf("tenant %s charged no facts", ts.Tenant)
		}
		sum.Add(ts.Cost)
	}
	if sum.FactsScanned != full.FactsScanned || sum.CPUNs != full.CPUNs {
		t.Errorf("tenant shares (facts %d, cpu %d) don't sum to the scan's cost (facts %d, cpu %d)",
			sum.FactsScanned, sum.CPUNs, full.FactsScanned, full.CPUNs)
	}
}

// TestCacheHitCreditsTenant checks the avoided-cost credit: a result-cache
// hit records a query and a cache hit for the tenant, crediting the
// stored result's CPU instead of charging a scan.
func TestCacheHitCreditsTenant(t *testing.T) {
	ds := testDataset(t)
	acct := obs.NewAccountant(obs.AccountantOptions{})
	s := New(ds.Cube, Options{CacheBytes: 1 << 20, Costs: acct})
	defer s.Close()

	for i := 0; i < 3; i++ { // 1st doorkept, 2nd cached, 3rd a hit
		if _, err := s.Submit(countQuery, nil, "carol"); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.CacheHits == 0 {
		t.Fatalf("no cache hit after repeats: %+v", st)
	}
	stats := acct.Tenants()
	if len(stats) != 1 {
		t.Fatalf("tenants = %+v", stats)
	}
	carol := stats[0]
	if carol.Queries != 3 || carol.CacheHits == 0 {
		t.Errorf("carol = %d queries / %d hits, want 3 queries with hits", carol.Queries, carol.CacheHits)
	}
	if carol.Cost.CacheCreditNs <= 0 {
		t.Error("cache hit credited no avoided CPU")
	}
	if carol.CacheHitRate <= 0 {
		t.Errorf("hit rate = %v, want > 0", carol.CacheHitRate)
	}
}

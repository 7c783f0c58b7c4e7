package qsched

// Scheduler-level cost attribution: the batch pays its measured scan CPU
// once, every query of the batch gets a proportional share plus the
// sharing discount, every query charges its own tenant, and result-cache
// hits credit the stored cost back. The conservation laws here complement
// the byte-level ones in internal/cube and internal/shard: Σ per-query
// CPU == batch CPU, and per-tenant accounts sum to what was actually
// executed.

import (
	"sync"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/obs"
)

// TestBatchCPUAttributionConserves runs one batch per input and pins the
// CPU split: shares sum to the batch total, every query's share plus its
// sharing discount reconstructs the same batch total, and each tenant is
// charged exactly its own queries' shares. The inputs are one tenant's
// multi-query batch, and the identical query from two tenants queued
// behind a stalled scan into one batch.
func TestBatchCPUAttributionConserves(t *testing.T) {
	ds := testDataset(t)
	t.Run("one tenant batch", func(t *testing.T) {
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
		checkBatchConserves(t, acct, map[string][]*cube.Result{"alice": res})
		// The profile registry folded every fingerprint in.
		if top := acct.TopQueries(10); len(top) != len(qs) {
			t.Errorf("profiles = %d, want %d distinct fingerprints", len(top), len(qs))
		}
	})
	t.Run("identical query from two tenants", func(t *testing.T) {
		acct := obs.NewAccountant(obs.AccountantOptions{})
		ge := newGatedExec(ds.Cube)
		s := New(ge, Options{MaxInFlight: 1, Costs: acct})
		defer s.Close()
		defer ge.open()
		// A third tenant's scan holds the one slot, so both submissions
		// queue and the runner takes them as one batch.
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
		waitFor(t, "both submissions to queue", func() bool { return s.Stats().QueueDepth == 2 })
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
		if st := s.Stats(); st.Batches != 2 || st.Executed != 3 {
			t.Fatalf("batches %d, executed %d; want the stall's batch and one batch of both", st.Batches, st.Executed)
		}
		checkBatchConserves(t, acct, map[string][]*cube.Result{"alice": results[:1], "bob": results[1:]})
	})
}

// checkBatchConserves checks one batch's CPU split over its results,
// grouped by the tenant that submitted them: every share plus its sharing
// discount is the batch's CPU, and each listed tenant's account holds
// exactly its own results' CPU, facts and query count.
func checkBatchConserves(t *testing.T, acct *obs.Accountant, byTenant map[string][]*cube.Result) {
	t.Helper()
	var batchCPU int64
	for _, rs := range byTenant {
		for _, r := range rs {
			batchCPU += r.Cost.CPUNs
		}
	}
	if batchCPU <= 0 {
		t.Fatal("batch attributed no CPU")
	}
	accounts := map[string]obs.TenantStat{}
	for _, ts := range acct.Tenants() {
		accounts[ts.Tenant] = ts
	}
	for tenant, rs := range byTenant {
		var cpu, facts int64
		for i, r := range rs {
			if got := r.Cost.CPUNs + r.Cost.SharedSavedNs; got != batchCPU {
				t.Errorf("%s query %d: share %d + discount %d = %d != batch CPU %d",
					tenant, i, r.Cost.CPUNs, r.Cost.SharedSavedNs, got, batchCPU)
			}
			cpu += r.Cost.CPUNs
			facts += int64(r.ScannedFacts)
		}
		ts, ok := accounts[tenant]
		if !ok {
			t.Errorf("tenant %s has no account", tenant)
			continue
		}
		if ts.Cost.CPUNs != cpu {
			t.Errorf("%s CPU %d != its attributed shares %d", tenant, ts.Cost.CPUNs, cpu)
		}
		if ts.Cost.FactsScanned != facts {
			t.Errorf("%s facts %d != Σ scanned %d", tenant, ts.Cost.FactsScanned, facts)
		}
		if ts.Queries != int64(len(rs)) {
			t.Errorf("%s queries = %d, want %d", tenant, ts.Queries, len(rs))
		}
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

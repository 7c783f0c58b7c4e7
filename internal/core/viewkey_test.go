package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/cube/cubetest"
	"sdwp/internal/prml"
)

// TestEqualViewsShareMaskAndResults pins what content keys buy: two users
// who log in at the same place and make the same selection hold equal
// views, so the second user's view mask is the first user's artifact-cache
// entry (built once), and the second user's query is answered from the
// first user's cached result — crediting the stored cost exactly as a
// repeat by the first user does.
func TestEqualViewsShareMaskAndResults(t *testing.T) {
	e, ds := newTestEngineUsers(t, Options{ResultCacheBytes: 1 << 20}, map[string]string{
		"alice": "RegionalSalesManager",
		"carol": "RegionalSalesManager",
	})
	defer e.Close()
	const sel = "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 40km"
	login := func(user string) *Session {
		t.Helper()
		s, err := e.StartSession(user, ds.CityLocs[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.SpatialSelect("GeoMD.Store.City", sel); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := login("alice")
	if s1.View().Materialize("Sales") == nil {
		t.Fatal("alice's view is unrestricted: the test needs a personalized view")
	}

	before := e.Cube().ArtifactCacheStats()
	s2 := login("carol")
	after := e.Cube().ArtifactCacheStats()
	if after.Misses != before.Misses || after.Hits <= before.Hits {
		t.Errorf("carol's login and selection: %d artifact hits, %d misses; want only hits (alice built the mask)",
			after.Hits-before.Hits, after.Misses-before.Misses)
	}
	m1, m2 := s1.View().Materialize("Sales"), s2.View().Materialize("Sales")
	if m1 == nil || m1 != m2 {
		t.Fatalf("equal views hold different Sales masks (%p, %p): the mask was built twice", m1, m2)
	}

	q := cube.Query{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Store", Level: "City"}},
		Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}}}
	query := func(s *Session) *cube.Result {
		t.Helper()
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	credit := func(tenant string) (hits, ns int64) {
		for _, ts := range e.Accountant().Tenants() {
			if ts.Tenant == tenant {
				return ts.CacheHits, ts.Cost.CacheCreditNs
			}
		}
		return 0, 0
	}
	query(s1)           // doorkept: a first request is never cached
	cached := query(s1) // admitted and cached
	hits0 := e.SchedulerStats().CacheHits
	got := query(s2)
	if st := e.SchedulerStats(); st.CacheHits != hits0+1 || got != cached {
		t.Fatalf("carol's query: %d new cache hits, same result as alice's entry %v; want 1 and true",
			st.CacheHits-hits0, got == cached)
	}
	if want := cubetest.NaiveExecute(ds.Cube, q, s2.View()); !sameAnswer(got, want) {
		t.Fatal("the shared answer differs from the reference over carol's view")
	}
	want := cached.Cost.CPUNs + cached.Cost.CacheCreditNs
	if h, ns := credit("carol"); h != 1 || ns != want {
		t.Errorf("carol's hit: %d hits crediting %d ns, want 1 crediting %d", h, ns, want)
	}
	h0, ns0 := credit("alice")
	if query(s1) != cached {
		t.Fatal("alice's repeat missed the cache")
	}
	if h, ns := credit("alice"); h != h0+1 || ns-ns0 != want {
		t.Errorf("alice's same-session hit credited %d ns, carol's cross-session hit %d", ns-ns0, want)
	}
	if _, total := e.Accountant().Totals(); total.CacheCreditNs != 2*want {
		t.Errorf("total cache credit %d, want the two hits' %d", total.CacheCreditNs, 2*want)
	}
}

// TestAppendSelectQueryRandomized interleaves appends, selections and
// queries at random with the result cache on, over three sessions: two
// that always make identical selections (so they share keys, masks and
// cached answers) and one that diverges. Each round applies one mutation
// while no query runs, then the three sessions query concurrently —
// Query, QueryBatch (personalized and baseline entries) and
// QueryBaseline — and every answer must equal the reference over the
// asking session's view. Run with -race.
func TestAppendSelectQueryRandomized(t *testing.T) {
	queries := []cube.Query{
		{Fact: "Sales", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}},
		{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Store", Level: "City"}},
			Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}}},
		{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Product", Level: "Family"}},
			Aggregates: []cube.MeasureAgg{{Measure: "StoreSales", Agg: cube.AggMax}, {Agg: cube.AggCount}}},
		{Fact: "Sales", GroupBy: []cube.LevelRef{{Dimension: "Customer", Level: "Segment"}},
			Filters: []cube.AttrFilter{{LevelRef: cube.LevelRef{Dimension: "Store", Level: "City"},
				Attr: "population", Op: cube.OpGt, Value: float64(100000)}},
			Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}}},
	}
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e, ds := newTestEngineUsers(t, Options{ResultCacheBytes: 4 << 20, FactShards: shards},
				map[string]string{"alice": "RegionalSalesManager", "carol": "RegionalSalesManager",
					"dave": "RegionalSalesManager"})
			t.Cleanup(e.Close)
			rng := rand.New(rand.NewSource(int64(40 + shards)))
			var sessions [3]*Session
			for i, user := range []string{"alice", "carol", "dave"} {
				s, err := e.StartSession(user, ds.CityLocs[0])
				if err != nil {
					t.Fatal(err)
				}
				sessions[i] = s
			}
			pair, other := sessions[:2], sessions[2:]
			stores := int32(ds.Cube.Dimension("Store").LevelAt(0).Len())
			for round := 0; round < 40; round++ {
				// One mutation, for both pair sessions alike or for the
				// diverging one alone.
				group := pair
				if rng.Intn(3) == 0 {
					group = other
				}
				switch op := rng.Intn(4); op {
				case 0:
					appendSales(t, e, 1+rng.Intn(40))
				case 1:
					pred := fmt.Sprintf("Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < %dkm",
						10+rng.Intn(200))
					for _, s := range group {
						if _, err := s.SpatialSelect("GeoMD.Store.City", pred); err != nil {
							t.Fatal(err)
						}
					}
				case 2:
					m := rng.Int31n(stores)
					for _, s := range group {
						if err := selectDirect(s, prml.Instance{Kind: prml.InstMember, Dimension: "Store", Level: "Store", Index: m}); err != nil {
							t.Fatal(err)
						}
					}
				case 3:
					f := rng.Int31n(int32(ds.Cube.FactData("Sales").Len()))
					for _, s := range group {
						if err := selectDirect(s, prml.Instance{Kind: prml.InstFact, Fact: "Sales", Index: f}); err != nil {
							t.Fatal(err)
						}
					}
				}
				// Concurrent queries over the quiescent state.
				var wg sync.WaitGroup
				errs := make(chan error, 3*len(queries))
				for i, s := range sessions {
					picks := rng.Perm(len(queries))[:2]
					kind := rng.Intn(3)
					wg.Add(1)
					go func(i int, s *Session) {
						defer wg.Done()
						if err := randomQueries(s, kind, queries, picks); err != nil {
							errs <- fmt.Errorf("round %d session %d: %w", round, i, err)
						}
					}(i, s)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
			}
			if st := e.SchedulerStats(); st.CacheHits == 0 {
				t.Fatalf("no result-cache hits in 40 rounds: %+v", st)
			}
			if k := pair[0].View().Key(); k != pair[1].View().Key() || k == other[0].View().Key() {
				t.Fatal("the pair's views differ, or the third session never diverged: the harness shared nothing")
			}
		})
	}
}

// randomQueries runs the picked queries through one of the session's
// three query paths and checks every answer against the reference.
func randomQueries(s *Session, kind int, queries []cube.Query, picks []int) error {
	c := s.Engine().Cube()
	check := func(q cube.Query, res *cube.Result, v *cube.View) error {
		if want := cubetest.NaiveExecute(c, q, v); !sameAnswer(res, want) {
			return fmt.Errorf("query %+v (personalized %v): matched %d facts, the reference %d",
				q, v != nil, res.MatchedFacts, want.MatchedFacts)
		}
		return nil
	}
	switch kind {
	case 0:
		for _, p := range picks {
			res, err := s.Query(queries[p])
			if err == nil {
				err = check(queries[p], res, s.View())
			}
			if err != nil {
				return err
			}
		}
	case 1:
		qs := make([]cube.Query, 0, 2*len(picks))
		baseline := make([]bool, 0, 2*len(picks))
		for _, p := range picks {
			qs = append(qs, queries[p], queries[p])
			baseline = append(baseline, false, true)
		}
		res, err := s.QueryBatch(qs, baseline)
		if err != nil {
			return err
		}
		for i, q := range qs {
			v := s.View()
			if baseline[i] {
				v = nil
			}
			if err := check(q, res[i], v); err != nil {
				return err
			}
		}
	default:
		for _, p := range picks {
			res, err := s.QueryBaseline(queries[p])
			if err == nil {
				err = check(queries[p], res, nil)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// selectDirect adds one instance to the session's view as a rule's
// SelectInstance action does.
func selectDirect(s *Session, inst prml.Instance) error {
	env := &sessionEnv{s: s}
	defer env.publish()
	return env.SelectInstance(prml.InstVal(inst))
}

// Command experiments regenerates every evaluation artifact of the
// reproduction, keyed to the experiment index in DESIGN.md §4:
//
//	F1..F6 — the paper's six figures (process, models, profile, metamodel)
//	X1..X3 — the paper's three worked examples (Section 5)
//	C1..C5 — quantitative support for the paper's claims
//	C6..C13 — ablations and scale-out: rule-plan optimizer, parallel/batch
//	         executors, the query scheduler (coalescing + result cache),
//	         cross-query subexpression sharing, sharded fact tables,
//	         per-filter bitmap algebra (predicate bitmaps AND-composed
//	         into filter-set masks), per-tenant query-cost accounting
//	         under a mixed-tenant workload, and heavy-tenant isolation
//	         (weighted fair admission + overload shedding keeping a light
//	         tenant's tail latency bounded under a flooding tenant)
//
// The output of this command is what EXPERIMENTS.md records. Pass -full for
// the larger sweeps (C1 to 1M facts, C4 to 1M points).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdwp"
	"sdwp/internal/geoidx"
	"sdwp/internal/geom"
	"sdwp/internal/prml"
)

var (
	full = flag.Bool("full", false, "run the large sweeps")
	only = flag.String("only", "", "comma-separated experiment IDs to run (e.g. C13 or F5,C8); default all")
)

func main() {
	log.SetFlags(0)
	flag.Parse()
	section("F1", "F1/F2/F3/F4 — models and process", runFigures)
	section("F5", "F5 — PRML metamodel round trip", runF5)
	section("X1", "F6 + X1 — schema rule (Example 5.1)", runX1)
	section("X2", "X2 — instance rule (Example 5.2)", runX2)
	section("X3", "X3 — interest rules (Example 5.3)", runX3)
	section("C1", "C1 — personalized view vs full-cube baseline", runC1)
	section("C2", "C2 — one-time pre-selection vs per-query spatial re-filtering", runC2)
	section("C3", "C3 — rule-engine cost", runC3)
	section("C4", "C4 — R-tree vs linear spatial scan", runC4)
	section("C5", "C5 — cube roll-up scaling", runC5)
	section("C6", "C6 — ablation: rule-plan optimizer (R-tree) vs interpreter", runC6)
	section("C7", "C7 — parallel partitioned scan & shared-scan query batch", runC7)
	section("C8", "C8 — query scheduler: coalesced shared scans + result cache under concurrent clients", runC8)
	section("C9", "C9 — cross-query subexpression sharing: shared filter bitmaps + group-key columns", runC9)
	section("C10", "C10 — sharded fact table: scatter-gather scans + cross-batch artifact cache", runC10)
	section("C11", "C11 — per-filter bitmap algebra: predicate bitmaps AND-composed into set masks", runC11)
	section("C12", "C12 — per-tenant cost accounting: mixed-tenant traffic, fair splits, cache credits", runC12)
	section("C13", "C13 — heavy-tenant isolation: fair shares + load shedding under a flooding tenant", runC13)
}

// section runs one experiment, skipped when -only is set and does not list
// its ID.
func section(id, title string, f func()) {
	if *only != "" {
		match := false
		for _, want := range strings.Split(*only, ",") {
			if strings.EqualFold(strings.TrimSpace(want), id) {
				match = true
				break
			}
		}
		if !match {
			return
		}
	}
	header(title)
	f()
}

func header(s string) {
	fmt.Printf("\n==== %s ====\n", s)
}

// must aborts on error (the harness runs fixed, known-good scenarios).
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func mustErr(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// engineWithRules builds the standard scenario: default dataset, Fig. 4
// users, paper rules, threshold 2.
func engineWithRules(cfg sdwp.DataConfig) (*sdwp.Engine, *sdwp.Dataset) {
	ds := must(sdwp.GenerateData(cfg))
	users := must(sdwp.NewSalesUserStore(map[string]string{
		"alice": "RegionalSalesManager",
		"bob":   "Accountant",
	}))
	e := sdwp.NewEngine(ds.Cube, users, sdwp.EngineOptions{})
	e.SetParam("threshold", sdwp.Number(2))
	must(e.AddRules(sdwp.PaperRules))
	return e, ds
}

func runFigures() {
	// F2: the Fig. 2 MD model.
	schema := sdwp.SalesSchema()
	fmt.Println("F2: base MD model (Fig. 2):")
	indented(schema.Render())

	// F3/F4: the SUS profile.
	p := must(sdwp.Fig4Profile())
	fmt.Println("F3/F4: SUS profile classes:")
	for _, c := range p.Classes() {
		fmt.Printf("    «%s» %s\n", p.Class(c).Stereo, c)
	}
}

func runF5() {
	rules := must(sdwp.ParseRules(sdwp.PaperRules))
	printed := sdwp.FormatRules(rules...)
	back := must(sdwp.ParseRules(printed))
	fmt.Printf("  parsed %d rules; canonical form re-parses to %d rules\n", len(rules), len(back))
	for _, r := range rules {
		fmt.Printf("    %-18s kind=%-9s event=%s\n", r.Name, prml.Classify(r), r.Event.Kind)
	}
}

func runX1() {
	e, ds := engineWithRules(sdwp.DefaultDataConfig())
	defer e.Close()
	alice := must(e.StartSession("alice", ds.CityLocs[0]))
	bob := must(e.StartSession("bob", ds.CityLocs[0]))
	fmt.Println("  manager schema delta (Fig. 2 → Fig. 6):")
	for _, d := range alice.Schema().Diff(e.Cube().Schema()) {
		fmt.Println("    " + d)
	}
	fmt.Printf("  accountant schema delta: %d entries (personalization is per user)\n",
		len(bob.Schema().Diff(e.Cube().Schema())))
	fmt.Println("  personalized GeoMD (manager):")
	indented(alice.Schema().Render())
}

func runX2() {
	e, ds := engineWithRules(sdwp.DefaultDataConfig())
	defer e.Close()
	loc := ds.CityLocs[3]
	s := must(e.StartSession("alice", loc))
	mask := s.View().LevelMask("Store", "Store")
	want := 0
	for _, sl := range ds.StoreLocs {
		if geom.Haversine(loc, sl) < 5 {
			want++
		}
	}
	fmt.Printf("  stores within 5 km (ground truth %d, rule selected %d)\n", want, mask.Count())
	res := must(s.Query(sdwp.Query{Fact: "Sales", Aggregates: []sdwp.MeasureAgg{{Agg: sdwp.COUNT}}}))
	base := must(s.QueryBaseline(sdwp.Query{Fact: "Sales", Aggregates: []sdwp.MeasureAgg{{Agg: sdwp.COUNT}}}))
	fmt.Printf("  succeeding analysis sees %d of %d facts\n", res.MatchedFacts, base.MatchedFacts)
}

func runX3() {
	e, ds := engineWithRules(sdwp.DefaultDataConfig())
	defer e.Close()
	const pred = "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km"
	for round := 1; round <= 3; round++ {
		s := must(e.StartSession("alice", ds.CityLocs[0]))
		sel := must(s.SpatialSelect("GeoMD.Store.City", pred))
		deg, _ := e.Users().Get("alice").Resolve([]string{"dm2airportcity", "degree"})
		fmt.Printf("  session %d: %d airport cities selected, rules fired %v, degree=%v\n",
			round, len(sel.Selected), sel.RulesFired, deg)
		mustErr(e.EndSession(s))
	}
	s := must(e.StartSession("alice", ds.CityLocs[0]))
	_, hasTrain := s.Schema().Layer("Train")
	cities := s.View().LevelMask("Store", "City")
	fmt.Printf("  over threshold: Train layer=%v, %d train-connected cities pre-selected\n",
		hasTrain, cities.Count())
}

func timeIt(n int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(start) / time.Duration(n)
}

func runC1() {
	sizes := []int{20000, 100000, 500000}
	if *full {
		sizes = append(sizes, 1000000)
	}
	q := sdwp.Query{
		Fact:       "Sales",
		GroupBy:    []sdwp.LevelRef{{Dimension: "Product", Level: "Family"}},
		Aggregates: []sdwp.MeasureAgg{{Measure: "UnitSales", Agg: sdwp.SUM}},
	}
	fmt.Printf("  %10s %14s %14s %12s %12s %8s\n",
		"facts", "baseline", "personalized", "rows-base", "rows-pers", "speedup")
	for _, n := range sizes {
		cfg := sdwp.DefaultDataConfig()
		cfg.Stores = 2000
		cfg.Sales = n
		e, ds := engineWithRules(cfg)
		s := must(e.StartSession("alice", ds.CityLocs[7]))
		var rb, rp *sdwp.Result
		tBase := timeIt(5, func() { rb = must(s.QueryBaseline(q)) })
		tPers := timeIt(5, func() { rp = must(s.Query(q)) })
		fmt.Printf("  %10d %14s %14s %12d %12d %7.1fx\n",
			n, tBase.Round(time.Microsecond), tPers.Round(time.Microsecond),
			rb.ScannedFacts, rp.ScannedFacts,
			float64(tBase)/float64(tPers))
		e.Close()
	}
}

func runC2() {
	cfg := sdwp.DefaultDataConfig()
	cfg.Stores = 2000
	cfg.Sales = 200000
	e, ds := engineWithRules(cfg)
	defer e.Close()
	loc := ds.CityLocs[7]
	q := sdwp.Query{
		Fact:       "Sales",
		GroupBy:    []sdwp.LevelRef{{Dimension: "Product", Level: "Family"}},
		Aggregates: []sdwp.MeasureAgg{{Measure: "UnitSales", Agg: sdwp.SUM}},
	}
	fmt.Printf("  %12s %16s %16s\n", "queries", "per-query-filter", "pre-selected")
	for _, nq := range []int{1, 10, 100} {
		// Baseline B3: a spatial-capable tool re-filters on every query —
		// a fresh session (rule evaluation + selection) per query.
		start := time.Now()
		for i := 0; i < nq; i++ {
			s := must(e.StartSession("alice", loc))
			must(s.Query(q))
			mustErr(e.EndSession(s))
		}
		perQuery := time.Since(start)
		// The paper's way: one session, selection happens once at login.
		start = time.Now()
		s := must(e.StartSession("alice", loc))
		for i := 0; i < nq; i++ {
			must(s.Query(q))
		}
		mustErr(e.EndSession(s))
		pre := time.Since(start)
		fmt.Printf("  %12d %16s %16s\n", nq,
			perQuery.Round(time.Microsecond), pre.Round(time.Microsecond))
	}
}

func runC3() {
	// Parse + analyze throughput.
	nParse := 2000
	t := timeIt(1, func() {
		for i := 0; i < nParse; i++ {
			must(sdwp.ParseRules(sdwp.PaperRules))
		}
	})
	fmt.Printf("  parse throughput: %.0f rule-sets/s (4 rules each)\n",
		float64(nParse)/t.Seconds())

	// Session-start latency vs number of registered rules. Extra rules are
	// no-op acquisition rules (they still parse, classify and evaluate).
	fmt.Printf("  %12s %18s\n", "rules", "session-start")
	for _, n := range []int{4, 40, 400} {
		cfg := sdwp.DefaultDataConfig()
		e, ds := engineWithRules(cfg)
		var extra strings.Builder
		for i := 4; i < n; i++ {
			fmt.Fprintf(&extra, "Rule:pad%03d When SessionStart do SetContent(SUS.DecisionMaker.name, 'u') endWhen\n", i)
		}
		if extra.Len() > 0 {
			must(e.AddRules(extra.String()))
		}
		loc := ds.CityLocs[0]
		lat := timeIt(10, func() {
			s := must(e.StartSession("alice", loc))
			mustErr(e.EndSession(s))
		})
		fmt.Printf("  %12d %18s\n", n, lat.Round(time.Microsecond))
		e.Close()
	}
}

func runC4() {
	sizes := []int{1000, 10000, 100000}
	if *full {
		sizes = append(sizes, 1000000)
	}
	fmt.Printf("  %10s %14s %14s %10s\n", "points", "r-tree", "linear", "speedup")
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(42))
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*12-9, rng.Float64()*7+36)
		}
		rt := geoidx.NewPointIndex(pts)
		lin := geoidx.NewLinearPointIndex(pts)
		center := geom.Pt(-3.7, 40.4)
		reps := 200
		if n >= 100000 {
			reps = 20
		}
		tR := timeIt(reps, func() {
			rt.WithinKm(center, 25, func(int32) bool { return true })
		})
		tL := timeIt(reps, func() {
			lin.WithinKm(center, 25, func(int32) bool { return true })
		})
		fmt.Printf("  %10d %14s %14s %9.1fx\n", n,
			tR.Round(time.Nanosecond), tL.Round(time.Nanosecond), float64(tL)/float64(tR))
	}
}

func runC5() {
	sizes := []int{20000, 200000}
	if *full {
		sizes = append(sizes, 1000000)
	}
	levels := []string{"Store", "City", "State", "Country"}
	fmt.Printf("  %10s", "facts")
	for _, l := range levels {
		fmt.Printf(" %12s", l)
	}
	fmt.Println()
	for _, n := range sizes {
		cfg := sdwp.DefaultDataConfig()
		cfg.Stores = 2000
		cfg.Sales = n
		ds := must(sdwp.GenerateData(cfg))
		fmt.Printf("  %10d", n)
		for _, level := range levels {
			q := sdwp.Query{
				Fact:       "Sales",
				GroupBy:    []sdwp.LevelRef{{Dimension: "Store", Level: level}},
				Aggregates: []sdwp.MeasureAgg{{Measure: "UnitSales", Agg: sdwp.SUM}},
			}
			lat := timeIt(3, func() { must(ds.Cube.Execute(q, nil)) })
			fmt.Printf(" %12s", lat.Round(time.Microsecond))
		}
		fmt.Println()
	}
}

func runC6() {
	const rule = `Rule:near When SessionStart do
  Foreach s in (GeoMD.Store)
    If (Distance(s.geometry, SUS.DecisionMaker.dm2session.s2location.geometry) < 5km) then
      SelectInstance(s)
    endIf
  endForeach
endWhen`
	sizes := []int{10000, 100000}
	if *full {
		sizes = append(sizes, 500000)
	}
	fmt.Printf("  %10s %16s %16s %10s\n", "stores", "optimized", "interpreted", "speedup")
	for _, stores := range sizes {
		cfg := sdwp.DefaultDataConfig()
		cfg.Stores = stores
		cfg.Sales = 1000
		ds := must(sdwp.GenerateData(cfg))
		var lat [2]time.Duration
		for mode, disable := range []bool{false, true} {
			users := must(sdwp.NewSalesUserStore(map[string]string{"u": "RegionalSalesManager"}))
			e := sdwp.NewEngine(ds.Cube, users, sdwp.EngineOptions{DisableRuleOptimizer: disable})
			must(e.AddRules(rule))
			loc := ds.CityLocs[0]
			reps := 5
			if stores >= 100000 && disable {
				reps = 2
			}
			lat[mode] = timeIt(reps, func() {
				s := must(e.StartSession("u", loc))
				mustErr(e.EndSession(s))
			})
			e.Close()
		}
		fmt.Printf("  %10d %16s %16s %9.1fx\n", stores,
			lat[0].Round(time.Microsecond), lat[1].Round(time.Microsecond),
			float64(lat[1])/float64(lat[0]))
	}
}

// runC7 measures the parallel partitioned query executor against the
// serial scan, and the shared-scan batch API against answering the same
// queries one by one — the multi-user dashboard workload: every logged-in
// manager's personalized view aggregating over the same fact table.
func runC7() {
	cfg := sdwp.DefaultDataConfig()
	cfg.Stores = 2000
	cfg.Sales = 200000
	if *full {
		cfg.Sales = 1000000
	}
	roles := map[string]string{}
	const users = 8
	for i := 0; i < users; i++ {
		roles[fmt.Sprintf("mgr%02d", i)] = "RegionalSalesManager"
	}
	ds := must(sdwp.GenerateData(cfg))
	userStore := must(sdwp.NewSalesUserStore(roles))
	e := sdwp.NewEngine(ds.Cube, userStore, sdwp.EngineOptions{})
	defer e.Close()
	e.SetParam("threshold", sdwp.Number(2))
	must(e.AddRules(sdwp.PaperRules))

	q := sdwp.Query{
		Fact:       "Sales",
		GroupBy:    []sdwp.LevelRef{{Dimension: "Store", Level: "City"}},
		Aggregates: []sdwp.MeasureAgg{{Measure: "UnitSales", Agg: sdwp.SUM}},
	}

	// Parallel partitioned scan vs serial, full warehouse.
	fmt.Printf("  parallel scan (%d facts, group by Store.City):\n", cfg.Sales)
	fmt.Printf("  %10s %14s %10s\n", "workers", "latency", "speedup")
	serial := timeIt(5, func() { must(ds.Cube.Execute(q, nil)) })
	fmt.Printf("  %10d %14s %9.1fx\n", 1, serial.Round(time.Microsecond), 1.0)
	seen := map[int]bool{1: true}
	for _, workers := range []int{2, 4, runtime.NumCPU()} {
		w := workers
		if seen[w] {
			continue
		}
		seen[w] = true
		lat := timeIt(5, func() { must(ds.Cube.ExecuteParallel(q, nil, w)) })
		fmt.Printf("  %10d %14s %9.1fx\n", w, lat.Round(time.Microsecond),
			float64(serial)/float64(lat))
	}

	// Shared-scan batch: every manager's personalized view of the same
	// aggregate, answered one by one vs in one batch.
	var sessions []*sdwp.Session
	var qs []sdwp.Query
	for i := 0; i < users; i++ {
		s := must(e.StartSession(fmt.Sprintf("mgr%02d", i), ds.CityLocs[i%len(ds.CityLocs)]))
		sessions = append(sessions, s)
		qs = append(qs, q)
	}
	fmt.Printf("  shared-scan batch (%d personalized sessions, same fact):\n", users)
	oneByOne := timeIt(5, func() {
		for _, s := range sessions {
			must(s.Query(q))
		}
	})
	batched := timeIt(5, func() { must(e.ExecuteBatch(qs, sessions)) })
	fmt.Printf("  %14s %14s %10s\n", "one-by-one", "batched", "speedup")
	fmt.Printf("  %14s %14s %9.1fx\n", oneByOne.Round(time.Microsecond),
		batched.Round(time.Microsecond), float64(oneByOne)/float64(batched))
	for _, s := range sessions {
		mustErr(e.EndSession(s))
	}
}

// runC8 measures the qsched subsystem end to end: N concurrent clients,
// each looping personalized single queries (the traffic shape a batch API
// cannot help — nobody arrives holding a batch), answered by the
// scheduler with coalescing alone and with the epoch-keyed result cache
// on top, reporting how many fact scans actually ran for how many queries.
func runC8() {
	cfg := sdwp.DefaultDataConfig()
	cfg.Stores = 2000
	cfg.Sales = 200000
	if *full {
		cfg.Sales = 1000000
	}
	const clients = 16
	const queriesPerClient = 25
	roles := map[string]string{}
	for i := 0; i < clients; i++ {
		roles[fmt.Sprintf("mgr%02d", i)] = "RegionalSalesManager"
	}
	ds := must(sdwp.GenerateData(cfg))

	// Each client cycles through a few dashboard tiles; repeats within and
	// across clients are what the cache and dedup paths exist for.
	tiles := []sdwp.Query{
		{Fact: "Sales", GroupBy: []sdwp.LevelRef{{Dimension: "Store", Level: "City"}},
			Aggregates: []sdwp.MeasureAgg{{Measure: "UnitSales", Agg: sdwp.SUM}}},
		{Fact: "Sales", GroupBy: []sdwp.LevelRef{{Dimension: "Product", Level: "Family"}},
			Aggregates: []sdwp.MeasureAgg{{Measure: "StoreSales", Agg: sdwp.SUM}}},
		{Fact: "Sales", Aggregates: []sdwp.MeasureAgg{{Agg: sdwp.COUNT}}},
	}

	modes := []struct {
		name string
		opts sdwp.EngineOptions
	}{
		{"coalesced", sdwp.EngineOptions{MaxInFlightScans: 2}},
		{"coalesced+cache", sdwp.EngineOptions{MaxInFlightScans: 2,
			ResultCacheBytes: 32 << 20}},
	}
	fmt.Printf("  %d clients x %d personalized queries, %d facts\n",
		clients, queriesPerClient, cfg.Sales)
	fmt.Printf("  %16s %12s %12s %10s %10s %8s\n",
		"mode", "wall", "queries/s", "scans", "coalesce", "cachehit")
	for _, mode := range modes {
		users := must(sdwp.NewSalesUserStore(roles))
		e := sdwp.NewEngine(ds.Cube, users, mode.opts)
		e.SetParam("threshold", sdwp.Number(2))
		must(e.AddRules(sdwp.PaperRules))
		sessions := make([]*sdwp.Session, clients)
		for i := range sessions {
			sessions[i] = must(e.StartSession(fmt.Sprintf("mgr%02d", i),
				ds.CityLocs[i%len(ds.CityLocs)]))
		}
		start := time.Now()
		var wg sync.WaitGroup
		for i, s := range sessions {
			wg.Add(1)
			go func(i int, s *sdwp.Session) {
				defer wg.Done()
				for k := 0; k < queriesPerClient; k++ {
					must(s.Query(tiles[(i+k)%len(tiles)]))
				}
			}(i, s)
		}
		wg.Wait()
		wall := time.Since(start)
		st := e.SchedulerStats()
		total := clients * queriesPerClient
		fmt.Printf("  %16s %12s %12.0f %10d %9.1fx %7.0f%%\n",
			mode.name, wall.Round(time.Microsecond),
			float64(total)/wall.Seconds(), st.FactScans, st.CoalesceRatio, 100*st.CacheHitRate)
		for _, s := range sessions {
			mustErr(e.EndSession(s))
		}
		e.Close()
	}
}

// runC9 measures cross-query subexpression sharing inside batch scans,
// both at the executor (a 16-query batch sharing one filter set across
// four groupings: the artifacts it builds and its wall time) and end to
// end through the scheduler (concurrent clients issuing filtered
// personalized queries that coalesce into sharing-aware scans, reported
// through SchedulerStats' filter-mask / group-key sharing ratios — the
// same numbers GET /api/stats serves).
func runC9() {
	cfg := sdwp.DefaultDataConfig()
	cfg.Stores = 2000
	cfg.Sales = 200000
	if *full {
		cfg.Sales = 1000000
	}
	ds := must(sdwp.GenerateData(cfg))

	// Executor level: one batch, shared filter set, four groupings.
	filters := []sdwp.AttrFilter{{
		LevelRef: sdwp.LevelRef{Dimension: "Store", Level: "City"},
		Attr:     "population", Op: sdwp.OpGt, Value: float64(100000),
	}}
	var qs []sdwp.Query
	for _, level := range []string{"Store", "City", "State", "Country"} {
		for _, measure := range []string{"UnitSales", "StoreSales"} {
			for _, limit := range []int{0, 5} {
				qs = append(qs, sdwp.Query{
					Fact:       "Sales",
					GroupBy:    []sdwp.LevelRef{{Dimension: "Store", Level: level}},
					Aggregates: []sdwp.MeasureAgg{{Measure: measure, Agg: sdwp.SUM}},
					Filters:    filters,
					Limit:      limit,
				})
			}
		}
	}
	var stats sdwp.SharingStats
	tOn := timeIt(5, func() {
		_, st, err := ds.Cube.ExecuteBatchOpt(qs, nil, sdwp.BatchOptions{})
		mustErr(err)
		stats = st
	})
	fmt.Printf("  batch of %d queries (%d facts): %d filter sets -> %d bitmaps, %d groupings -> %d key columns\n",
		len(qs), cfg.Sales, stats.FilterSets, stats.DistinctFilterSets,
		stats.GroupKeySets, stats.DistinctGroupings)
	fmt.Printf("  %14s %14s\n", "batch", "per-query")
	fmt.Printf("  %14s %14s\n", tOn.Round(time.Microsecond),
		(tOn / time.Duration(len(qs))).Round(time.Microsecond))

	// End to end: concurrent personalized clients whose filtered dashboard
	// tiles coalesce into sharing-aware scans. A 300 km selection radius
	// keeps each view broad enough (~17% of facts each, 8 clients per
	// batch) that the executor's cost heuristic materializes the shared
	// artifacts; narrower views deliberately keep stage 1 per query —
	// sharing never regresses them — while the sharing ratios report the
	// workload's shareability either way.
	const clients = 8
	const queriesPerClient = 12
	const wideRule = `Rule:near300 When SessionStart do
  Foreach s in (GeoMD.Store)
    If (Distance(s.geometry, SUS.DecisionMaker.dm2session.s2location.geometry) < 300km) then
      SelectInstance(s)
    endIf
  endForeach
endWhen`
	roles := map[string]string{}
	for i := 0; i < clients; i++ {
		roles[fmt.Sprintf("mgr%02d", i)] = "RegionalSalesManager"
	}
	tiles := qs[:6]
	fmt.Printf("  scheduler end-to-end: %d clients x %d filtered queries\n", clients, queriesPerClient)
	fmt.Printf("  %12s %10s %12s %12s\n", "wall", "scans", "filter-share", "group-share")
	users := must(sdwp.NewSalesUserStore(roles))
	e := sdwp.NewEngine(ds.Cube, users, sdwp.EngineOptions{MaxInFlightScans: 2})
	must(e.AddRules(wideRule))
	sessions := make([]*sdwp.Session, clients)
	for i := range sessions {
		sessions[i] = must(e.StartSession(fmt.Sprintf("mgr%02d", i),
			ds.CityLocs[i%len(ds.CityLocs)]))
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *sdwp.Session) {
			defer wg.Done()
			for k := 0; k < queriesPerClient; k++ {
				must(s.Query(tiles[(i+k)%len(tiles)]))
			}
		}(i, s)
	}
	wg.Wait()
	wall := time.Since(start)
	st := e.SchedulerStats()
	fShare, gShare := "-", "-"
	if st.FilterMasks > 0 {
		fShare = fmt.Sprintf("%.1fx", st.FilterMaskSharing)
	}
	if st.GroupKeyCols > 0 {
		gShare = fmt.Sprintf("%.1fx", st.GroupKeySharing)
	}
	fmt.Printf("  %12s %10d %12s %12s\n",
		wall.Round(time.Microsecond), st.FactScans, fShare, gShare)
	for _, s := range sessions {
		mustErr(e.EndSession(s))
	}
	e.Close()
}

// runC10 measures the sharded fact-table executor A/B: the same 16-query
// dashboard batch answered by the single-table engine vs scatter-gather
// over 2/4/8 hash-partitioned shards (results are identical; the shard
// columns show the fan-out and the per-shard fact balance), plus each
// table's cross-batch artifact cache (repeated batches stop
// re-materializing their shared filter bitmaps and key columns — the hit
// column; every shard caches its own slice).
func runC10() {
	cfg := sdwp.DefaultDataConfig()
	cfg.Stores = 2000
	cfg.Sales = 200000
	if *full {
		cfg.Sales = 1000000
	}
	ds := must(sdwp.GenerateData(cfg))
	users := must(sdwp.NewSalesUserStore(map[string]string{"alice": "RegionalSalesManager"}))

	filters := []sdwp.AttrFilter{{
		LevelRef: sdwp.LevelRef{Dimension: "Store", Level: "City"},
		Attr:     "population", Op: sdwp.OpGt, Value: float64(100000),
	}}
	var qs []sdwp.Query
	for _, level := range []string{"Store", "City", "State", "Country"} {
		for _, measure := range []string{"UnitSales", "StoreSales"} {
			for _, limit := range []int{0, 5} {
				qs = append(qs, sdwp.Query{
					Fact:       "Sales",
					GroupBy:    []sdwp.LevelRef{{Dimension: "Store", Level: level}},
					Aggregates: []sdwp.MeasureAgg{{Measure: measure, Agg: sdwp.SUM}},
					Filters:    filters,
					Limit:      limit,
				})
			}
		}
	}

	const rounds = 5
	fmt.Printf("  batch of %d queries x %d rounds, %d facts, %d CPUs\n",
		len(qs), rounds, cfg.Sales, runtime.GOMAXPROCS(0))
	fmt.Printf("  %14s %12s %10s %10s %14s %12s\n",
		"mode", "wall/round", "shardscans", "balance", "artifact-hits", "vs 1 shard")
	var base time.Duration
	for _, shards := range []int{1, 2, 4, 8} {
		e := sdwp.NewEngine(ds.Cube, users, sdwp.EngineOptions{
			FactShards:   shards,
			QueryWorkers: 2,
		})
		t := timeIt(rounds, func() {
			must(e.ExecuteBatch(qs, nil))
		}) / rounds
		st := e.SchedulerStats()
		balance := "-"
		if len(st.ShardFactCounts) > 1 {
			min, max := st.ShardFactCounts[0], st.ShardFactCounts[0]
			for _, c := range st.ShardFactCounts {
				if c < min {
					min = c
				}
				if c > max {
					max = c
				}
			}
			balance = fmt.Sprintf("%.2f", float64(min)/float64(max))
		}
		name := "unsharded"
		if shards > 1 {
			name = fmt.Sprintf("%d shards", shards)
		}
		speedup := "1.0x"
		if shards == 1 {
			base = t
		} else if t > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(base)/float64(t))
		}
		fmt.Printf("  %14s %12s %10d %10s %14d %12s\n",
			name, t.Round(time.Microsecond), st.ShardScans, balance,
			st.ArtifactCache.Hits, speedup)
		e.Close()
	}
}

// runC11 measures the per-filter bitmap algebra: a dashboard batch whose
// filter sets overlap without being equal, reporting how many predicate
// bitmaps the executor built and composed, and the table's cross-batch
// artifact cache's admission doorkeeper over repeated runs.
func runC11() {
	cfg := sdwp.DefaultDataConfig()
	cfg.Stores = 2000
	cfg.Sales = 200000
	if *full {
		cfg.Sales = 1000000
	}
	ds := must(sdwp.GenerateData(cfg))

	// Overlapping-but-unequal filter sets: all six pairwise conjunctions
	// of four predicates, cycled with levels and measures into a 16-query
	// dashboard batch: the executor evaluates the four predicates once
	// each and AND-composes the six set masks.
	mkF := func(dim, level, attr string, op sdwp.FilterOp, v any) sdwp.AttrFilter {
		return sdwp.AttrFilter{LevelRef: sdwp.LevelRef{Dimension: dim, Level: level},
			Attr: attr, Op: op, Value: v}
	}
	pool := []sdwp.AttrFilter{
		mkF("Store", "City", "population", sdwp.OpGt, float64(100000)),
		mkF("Store", "City", "population", sdwp.OpGt, float64(1000000)),
		mkF("Customer", "Customer", "age", sdwp.OpLe, float64(40)),
		mkF("Product", "Product", "brand", sdwp.OpNe, "Brand05"),
	}
	var sets [][]sdwp.AttrFilter
	for i := 0; i < len(pool); i++ {
		for j := i + 1; j < len(pool); j++ {
			sets = append(sets, []sdwp.AttrFilter{pool[i], pool[j]})
		}
	}
	var qs []sdwp.Query
	levels := []string{"Store", "City", "State", "Country"}
	measures := []string{"UnitSales", "StoreSales"}
	for k := 0; k < 16; k++ {
		qs = append(qs, sdwp.Query{
			Fact:       "Sales",
			GroupBy:    []sdwp.LevelRef{{Dimension: "Store", Level: levels[k%len(levels)]}},
			Aggregates: []sdwp.MeasureAgg{{Measure: measures[k%len(measures)], Agg: sdwp.SUM}},
			Filters:    sets[k%len(sets)],
		})
	}

	// One cold run: a repeat would take its bitmaps from the table's
	// artifact cache instead of building them.
	var stats sdwp.SharingStats
	tPred := timeIt(1, func() {
		_, st, err := ds.Cube.ExecuteBatchOpt(qs, nil, sdwp.BatchOptions{})
		mustErr(err)
		stats = st
	})
	fmt.Printf("  batch of %d queries (%d facts): %d filter sets -> %d distinct, %d predicate uses -> %d bitmaps, %d composed masks\n",
		len(qs), cfg.Sales, stats.FilterSets, stats.DistinctFilterSets,
		stats.FilterPredicates, stats.DistinctPredicates, stats.ComposedMasks)
	fmt.Printf("  wall %s\n", tPred.Round(time.Microsecond))

	// Cache admission: one-off filter sets are doorkept (never cached);
	// the recurring dashboard, first offered by the cold run above, is
	// admitted on its second offer and served from the cache after that.
	before := ds.Cube.ArtifactCacheStats()
	oneOff := func(round int) []sdwp.Query {
		f := []sdwp.AttrFilter{mkF("Store", "City", "population", sdwp.OpGt, float64(50000+round))}
		return []sdwp.Query{{Fact: "Sales",
			GroupBy:    []sdwp.LevelRef{{Dimension: "Store", Level: "State"}},
			Aggregates: []sdwp.MeasureAgg{{Measure: "UnitSales", Agg: sdwp.SUM}},
			Filters:    f,
		}, {Fact: "Sales",
			Aggregates: []sdwp.MeasureAgg{{Agg: sdwp.COUNT}},
			Filters:    f,
		}}
	}
	fmt.Printf("  cache admission doorkeeper (table artifact cache, 20 B/fact = %.1f MiB):\n",
		float64(20*cfg.Sales)/(1<<20))
	fmt.Printf("  %8s %14s %8s %10s %10s %10s\n", "round", "hot batch", "hits", "doorkept", "entries", "bytes")
	for round := 1; round <= 3; round++ {
		t := timeIt(1, func() {
			must2(ds.Cube.ExecuteBatchOpt(qs, nil, sdwp.BatchOptions{}))
			must2(ds.Cube.ExecuteBatchOpt(oneOff(round), nil, sdwp.BatchOptions{}))
		})
		st := ds.Cube.ArtifactCacheStats()
		fmt.Printf("  %8d %14s %8d %10d %10d %10d\n", round, t.Round(time.Microsecond),
			st.Hits-before.Hits, st.Doorkept-before.Doorkept, st.Entries, st.Bytes)
	}
}

// runC12 drives a mixed-tenant workload through one engine and reads the
// cost accounts back: a dashboard tenant whose repeated batch turns into
// result-cache credits, an ad-hoc tenant paying full scans for one-off
// fingerprints, and two tenants issuing the identical query concurrently
// while one scan holds the single scan slot, so they queue together and
// the coalesced scan's cost splits fairly between them. The tables
// printed here are the same data GET /api/tenants and
// GET /api/queries/top serve.
func runC12() {
	cfg := sdwp.DefaultDataConfig()
	cfg.Stores = 1000
	cfg.Sales = 100000
	ds := must(sdwp.GenerateData(cfg))
	users := must(sdwp.NewSalesUserStore(map[string]string{
		"dash":   "RegionalSalesManager", // repeated dashboard: cache hits
		"adhoc":  "Accountant",           // one-off fingerprints: full scans
		"twin-a": "RegionalSalesManager", // identical concurrent queries:
		"twin-b": "RegionalSalesManager", // one scan, cost split across both
	}))
	e := sdwp.NewEngine(ds.Cube, users, sdwp.EngineOptions{
		MaxInFlightScans: 1, // queries arriving during a scan coalesce behind it
		ResultCacheBytes: 8 << 20,
	})
	defer e.Close()

	mkQ := func(level, measure string, minPop float64) sdwp.Query {
		return sdwp.Query{Fact: "Sales",
			GroupBy:    []sdwp.LevelRef{{Dimension: "Store", Level: level}},
			Aggregates: []sdwp.MeasureAgg{{Measure: measure, Agg: sdwp.SUM}},
			Filters: []sdwp.AttrFilter{{LevelRef: sdwp.LevelRef{Dimension: "Store", Level: "City"},
				Attr: "population", Op: sdwp.OpGt, Value: minPop}},
		}
	}
	dashboard := []sdwp.Query{
		mkQ("City", "UnitSales", 100000),
		mkQ("State", "UnitSales", 100000),
		mkQ("State", "StoreSales", 100000),
	}
	sessions := map[string]*sdwp.Session{}
	for user := range map[string]string{"dash": "", "adhoc": "", "twin-a": "", "twin-b": ""} {
		sessions[user] = must(e.StartSession(user, ds.CityLocs[0]))
	}

	const rounds = 8
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the dashboard tenant repeats one batch: hits from round 2 on
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			must(sessions["dash"].QueryBatch(dashboard, nil))
		}
	}()
	go func() {
		defer wg.Done()
		twin := sdwp.Query{Fact: "Sales", Aggregates: []sdwp.MeasureAgg{{Agg: sdwp.COUNT}}}
		var tw sync.WaitGroup
		for r := 0; r < rounds; r++ {
			// The ad-hoc tenant's one-off scan (it never repeats a
			// fingerprint) takes the slot; once a scan is in flight the
			// twins' identical query queues behind it and both ride the
			// next shared scan.
			adhocDone := make(chan struct{})
			go func(r int) {
				defer close(adhocDone)
				must(sessions["adhoc"].Query(mkQ("City", "UnitSales", float64(50000+r))))
			}(r)
		wait:
			for e.SchedulerStats().InFlight == 0 {
				select {
				case <-adhocDone:
					break wait
				default:
					runtime.Gosched()
				}
			}
			for _, u := range []string{"twin-a", "twin-b"} {
				tw.Add(1)
				go func(u string) {
					defer tw.Done()
					must(sessions[u].Query(twin))
				}(u)
			}
			tw.Wait()
			<-adhocDone
		}
	}()
	wg.Wait()

	acct := e.Accountant()
	queries, total := acct.Totals()
	fmt.Printf("  %d queries accounted, %d facts scanned, %.2fms CPU attributed\n",
		queries, total.FactsScanned, float64(total.CPUNs)/1e6)
	fmt.Printf("  %8s %8s %6s %6s %12s %10s %11s\n",
		"tenant", "queries", "hits", "hit%", "facts", "cpu", "credit")
	for _, ts := range acct.Tenants() {
		fmt.Printf("  %8s %8d %6d %5.0f%% %12d %9.2fms %9.2fms\n",
			ts.Tenant, ts.Queries, ts.CacheHits, 100*ts.CacheHitRate,
			ts.Cost.FactsScanned, float64(ts.Cost.CPUNs)/1e6, float64(ts.Cost.CacheCreditNs)/1e6)
	}
	fmt.Printf("  heavy-query profiles (decay-weighted top 5 of %d fingerprints):\n", acct.Profiles().Len())
	fmt.Printf("  %14s %6s %9s %9s %12s\n", "fingerprint", "count", "mean", "p99", "facts/query")
	for _, p := range acct.TopQueries(5) {
		fp := p.Fingerprint
		if len(fp) > 14 {
			fp = fp[:14]
		}
		fmt.Printf("  %14s %6d %7.2fms %7.2fms %12d\n",
			fp, p.Count, p.MeanMs, p.P99Ms, p.MeanCost.FactsScanned)
	}
}

// runC13 demonstrates heavy-tenant isolation: cost-weighted fair admission
// plus overload shedding keep an interactive tenant's tail latency bounded
// while a hog floods the same engine with far more offered load. Each
// round measures the light tenant's paced workload twice — alone, then
// against a fresh engine where hog goroutines keep the admission queue
// saturated — and the verdict compares the best-of-rounds p99s (the
// structural tail, with single-core GC luck cancelled out). The isolation
// target is mixed p99 within 2x the solo p99, with the hog visibly
// throttled in the shed counters and the fair-share ledger.
func runC13() {
	cfg := sdwp.DefaultDataConfig()
	cfg.Stores = 1000
	cfg.Sales = 1200000
	ds := must(sdwp.GenerateData(cfg))
	mkUsers := func() *sdwp.UserStore {
		return must(sdwp.NewSalesUserStore(map[string]string{
			"light": "RegionalSalesManager", // interactive: one paced query at a time
			"hog":   "Accountant",           // flooding: hogWorkers concurrent scans
		}))
	}
	// Both tenants issue the same full-scan query shape with distinct
	// fingerprints per call (same per-query cost; neither dedup nor the
	// result cache softens the contention) — the hog is heavy purely by
	// offered volume, which is what admission control can actually police.
	cityScan := func(minPop int) sdwp.Query {
		return sdwp.Query{Fact: "Sales",
			GroupBy:    []sdwp.LevelRef{{Dimension: "Store", Level: "City"}},
			Aggregates: []sdwp.MeasureAgg{{Measure: "UnitSales", Agg: sdwp.SUM}},
			Filters: []sdwp.AttrFilter{{LevelRef: sdwp.LevelRef{Dimension: "Store", Level: "City"},
				Attr: "population", Op: sdwp.OpGt, Value: float64(minPop)}},
		}
	}
	lightQ := func(i int) sdwp.Query { return cityScan(100000 + i) }
	hogQ := func(i int) sdwp.Query { return cityScan(104096 + i%4096) }
	// The latency-bounded interactive profile from the operations cookbook:
	// serial single-query scans (no core multiplexing, no ride-along batch
	// cost — an admitted query waits behind at most one residual scan), a
	// short queue with shedding, and a 2:1 weight for the interactive
	// tenant. Throughput knobs (batching, in-flight scans) trade the other
	// way; see docs/OPERATIONS.md.
	opts := sdwp.EngineOptions{
		MaxInFlightScans: 1,
		MaxBatchQueries:  1,
		MaxQueueDepth:    2,
		TenantWeights:    map[string]float64{"light": 2, "hog": 1},
	}
	const (
		rounds     = 3
		lightN     = 60
		hogWorkers = 3
	)

	var lightShed atomic.Int64
	runLight := func(e *sdwp.Engine) []time.Duration {
		runtime.GC() // start each pass from the same heap state
		sess := must(e.StartSession("light", ds.CityLocs[0]))
		lats := make([]time.Duration, 0, lightN)
		for i := 0; i < lightN; i++ {
			start := time.Now()
			_, err := sess.Query(lightQ(i))
			for errors.Is(err, sdwp.ErrOverloaded) {
				// Fair admission keeps the under-share tenant out of the
				// shed set; retrying covers the cold start before its
				// ledger exists.
				lightShed.Add(1)
				time.Sleep(2 * time.Millisecond)
				start = time.Now()
				_, err = sess.Query(lightQ(i))
			}
			mustErr(err)
			lats = append(lats, time.Since(start))
			time.Sleep(35 * time.Millisecond) // think time: interactive, not saturating
		}
		return lats
	}
	pct := func(lats []time.Duration, p float64) time.Duration {
		s := append([]time.Duration(nil), lats...)
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		return s[int(p*float64(len(s)-1))]
	}

	{ // Per-query cost of the shared query shape, for scale.
		e := sdwp.NewEngine(ds.Cube, mkUsers(), opts)
		ls := must(e.StartSession("light", ds.CityLocs[0]))
		fmt.Printf("  per-query cost of the shared full-scan shape: %v (%d facts)\n",
			timeIt(5, func() { must(ls.Query(lightQ(100000))) }).Round(time.Microsecond), cfg.Sales)
		e.Close()
	}

	var soloAll, mixedAll []time.Duration
	soloP99 := time.Duration(1<<63 - 1)
	mixedP99 := soloP99
	var hogDone, hogShed atomic.Int64
	var lastStats sdwp.SchedulerStats
	for r := 0; r < rounds; r++ {
		// Solo pass: the light tenant alone, identically configured engine.
		e := sdwp.NewEngine(ds.Cube, mkUsers(), opts)
		solo := runLight(e)
		e.Close()
		soloAll = append(soloAll, solo...)
		if p := pct(solo, 0.99); p < soloP99 {
			soloP99 = p
		}

		// Mixed pass: the same workload while the hog floods.
		e = sdwp.NewEngine(ds.Cube, mkUsers(), opts)
		stop := make(chan struct{})
		var hw sync.WaitGroup
		for g := 0; g < hogWorkers; g++ {
			hw.Add(1)
			go func(g int) {
				defer hw.Done()
				sess := must(e.StartSession("hog", ds.CityLocs[0]))
				for i := g << 20; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := sess.Query(hogQ(i)); err != nil {
						if errors.Is(err, sdwp.ErrOverloaded) {
							hogShed.Add(1)
							// An impatient client: a fraction of the >=1s
							// Retry-After hint keeps the queue saturated.
							time.Sleep(100 * time.Millisecond)
							continue
						}
						log.Fatal(err)
					}
					hogDone.Add(1)
				}
			}(g)
		}
		time.Sleep(200 * time.Millisecond) // let the hog build its backlog and cost ledger
		mixed := runLight(e)
		lastStats = e.SchedulerStats()
		close(stop)
		hw.Wait()
		e.Close()
		mixedAll = append(mixedAll, mixed...)
		if p := pct(mixed, 0.99); p < mixedP99 {
			mixedP99 = p
		}
	}

	fmt.Printf("  light tenant: %d paced queries x %d rounds per phase; hog: %d workers flooding full scans\n",
		lightN, rounds, hogWorkers)
	fmt.Printf("  %8s %10s %12s\n", "phase", "p50", "best p99")
	fmt.Printf("  %8s %10s %12s\n", "solo",
		pct(soloAll, 0.50).Round(time.Microsecond), soloP99.Round(time.Microsecond))
	fmt.Printf("  %8s %10s %12s\n", "mixed",
		pct(mixedAll, 0.50).Round(time.Microsecond), mixedP99.Round(time.Microsecond))
	ratio := float64(mixedP99) / float64(soloP99)
	verdict := "bounded"
	if ratio > 2 {
		verdict = "over budget"
	}
	fmt.Printf("  mixed/solo p99 = %.2fx (%s; isolation target <= 2.00x); light shed-retries: %d\n",
		ratio, verdict, lightShed.Load())
	done, shed := hogDone.Load(), hogShed.Load()
	fmt.Printf("  hog offered %d queries: %d executed, %d shed (%.0f%% of offered load refused)\n",
		done+shed, done, shed, 100*float64(shed)/float64(done+shed))
	for _, tenant := range []string{"hog", "light"} {
		for reason, n := range lastStats.ShedByTenant[tenant] {
			fmt.Printf("    shed[%s][%s] = %d (final round)\n", tenant, reason, n)
		}
	}
	fmt.Printf("  fair-share ledger at final scrape (decayed cost window, heaviest first):\n")
	fmt.Printf("  %8s %7s %14s %8s %7s\n", "tenant", "weight", "usage", "queued", "share")
	for _, tsh := range lastStats.FairShares {
		fmt.Printf("  %8s %7.1f %14.0f %8d %6.0f%%\n",
			tsh.Tenant, tsh.Weight, tsh.UsageCost, tsh.Queued, 100*tsh.Share)
	}
}

// must2 aborts on error, discarding the two leading results.
func must2[A, B any](_ A, _ B, err error) {
	mustErr(err)
}

func indented(s string) {
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		fmt.Println("    " + line)
	}
}

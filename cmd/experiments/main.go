// Command experiments prints the reproduction's evaluation tables:
//
//	F1..F6 — the paper's six figures (process, models, profile, metamodel)
//	X1..X3 — the paper's three worked examples (Section 5)
//	C1..C6 — wall times behind the paper's claims: personalized view vs
//	         full cube, one-time pre-selection, rule-engine cost, R-tree vs
//	         linear scan, roll-up cost, rule-plan optimizer vs interpreter
//
// The claims themselves are asserted as work counts, not times, by
// TestPaperClaims in internal/core. Run with `go run ./cmd/experiments`.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"sdwp"
	"sdwp/internal/geoidx"
	"sdwp/internal/geom"
	"sdwp/internal/prml"
)

func main() {
	log.SetFlags(0)
	section("F1/F2/F3/F4 — models and process", runFigures)
	section("F5 — PRML metamodel round trip", runF5)
	section("F6 + X1 — schema rule (Example 5.1)", runX1)
	section("X2 — instance rule (Example 5.2)", runX2)
	section("X3 — interest rules (Example 5.3)", runX3)
	section("C1 — personalized view vs full-cube baseline", runC1)
	section("C2 — one-time pre-selection vs per-query spatial re-filtering", runC2)
	section("C3 — rule-engine cost", runC3)
	section("C4 — R-tree vs linear spatial scan", runC4)
	section("C5 — cube roll-up scaling", runC5)
	section("C6 — ablation: rule-plan optimizer (R-tree) vs interpreter", runC6)
}

func section(title string, f func()) {
	fmt.Printf("\n==== %s ====\n", title)
	f()
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

func indented(s string) {
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		fmt.Println("    " + line)
	}
}

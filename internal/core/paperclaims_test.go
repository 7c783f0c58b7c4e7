package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/cube/cubetest"
	"sdwp/internal/datagen"
	"sdwp/internal/geoidx"
	"sdwp/internal/geom"
	"sdwp/internal/prml"
)

// fiveKmStores is Example 5.2's instance rule on its own: the radius rule
// the engine's optimizer runs as an R-tree query.
const fiveKmStores = `
Rule:5kmStores When SessionStart do
  Foreach s in (GeoMD.Store)
    If (Distance(s.geometry, SUS.DecisionMaker.dm2session.s2location.geometry) < 5km) then
      SelectInstance(s)
    endIf
  endForeach
endWhen
`

// countLogins bumps a counter in the user model on every login, so a test
// can count how often SessionStart rules ran.
const countLogins = `
Rule:countLogins When SessionStart do
  SetContent(SUS.DecisionMaker.dm2airportcity.degree,
    SUS.DecisionMaker.dm2airportcity.degree + 1)
endWhen
`

// TestPaperClaims pins the paper's quantitative claims — the ones
// cmd/experiments C1–C6 print wall times for — as work counts and result
// equality, never time, over one small generated warehouse.
func TestPaperClaims(t *testing.T) {
	cfg := datagen.Default()
	cfg.Stores = 2000
	cfg.Sales = 20000
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loc := ds.CityLocs[7]
	facts := ds.Cube.FactData("Sales").Len()
	byFamily := cube.Query{
		Fact:       "Sales",
		GroupBy:    []cube.LevelRef{{Dimension: "Product", Level: "Family"}},
		Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}},
	}

	// C1: the personalized view avoids exploring the whole SDW — a primed
	// manager's query scans only the facts of the view, and its answer is
	// the reference answer over that view.
	t.Run("C1", func(t *testing.T) {
		e := newEngineOver(t, ds.Cube, Options{}, paperRules)
		for i := 0; i < 3; i++ { // raise alice's airport-city degree past the threshold
			s := mustStart(t, e, loc)
			if _, err := s.SpatialSelect("GeoMD.Store.City", airportCitySelection); err != nil {
				t.Fatal(err)
			}
			if err := e.EndSession(s); err != nil {
				t.Fatal(err)
			}
		}
		// A primed login selects the train-connected cities; log in again
		// at the first of them so the 5 km stores fall inside that view.
		s := mustStart(t, e, loc)
		if _, primed := s.Schema().Layer("Train"); !primed {
			t.Fatal("alice is not primed: no Train layer after three airport-city selections")
		}
		cities := s.View().LevelMask("Store", "City").Indices()
		if len(cities) == 0 {
			t.Fatal("the primed login selected no train-connected city")
		}
		if err := e.EndSession(s); err != nil {
			t.Fatal(err)
		}
		s = mustStart(t, e, ds.CityLocs[cities[0]])
		got, err := s.Query(byFamily)
		if err != nil {
			t.Fatal(err)
		}
		if want := cubetest.NaiveExecute(ds.Cube, byFamily, s.View()); !sameAnswer(got, want) {
			t.Fatalf("personalized query %+v, reference over the view %+v", got, want)
		}
		base, err := s.QueryBaseline(byFamily)
		if err != nil {
			t.Fatal(err)
		}
		visible := cubetest.NaiveExecute(ds.Cube, byFamily, s.View()).ScannedFacts
		if got.ScannedFacts != visible || visible == 0 || visible >= base.ScannedFacts || base.ScannedFacts != facts {
			t.Fatalf("scanned %d facts, view holds %d, baseline scanned %d of %d",
				got.ScannedFacts, visible, base.ScannedFacts, facts)
		}
	})

	// C2: spatial pre-selection happens once, at login. Queries on the
	// session run no rule; re-filtering per query (a fresh session each
	// time) re-runs the rule every time for the same answers.
	t.Run("C2", func(t *testing.T) {
		e := newEngineOver(t, ds.Cube, Options{}, fiveKmStores+countLogins)
		within := 0
		for _, sl := range ds.StoreLocs {
			if geom.Haversine(loc, sl) < 5 {
				within++
			}
		}
		if within == 0 {
			t.Fatal("no store within 5 km of the login location")
		}
		logins := func() float64 {
			t.Helper()
			d, err := e.Users().Get("alice").Resolve([]string{"dm2airportcity", "degree"})
			if err != nil {
				t.Fatal(err)
			}
			return d.(float64)
		}
		// login starts a session and returns how often it ran 5kmStores.
		login := func() (*Session, int) {
			t.Helper()
			s, runs, err := startPlans(e, "alice", loc)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, r := range runs {
				if r.Err != "" {
					t.Fatalf("rule %s: %s", r.Rule, r.Err)
				}
				if r.Rule == "5kmStores" {
					n++
					if r.Stats.InstancesSel != within {
						t.Fatalf("5kmStores selected %d stores, %d lie within 5 km", r.Stats.InstancesSel, within)
					}
				}
			}
			return s, n
		}
		query := func(s *Session) *cube.Result {
			t.Helper()
			res, err := s.Query(byFamily)
			if err != nil {
				t.Fatal(err)
			}
			if visible := cubetest.NaiveExecute(ds.Cube, byFamily, s.View()).ScannedFacts; res.ScannedFacts != visible {
				t.Fatalf("query scanned %d facts, the view holds %d", res.ScannedFacts, visible)
			}
			return res
		}

		const k = 5
		s, ran := login()
		if ran != 1 || logins() != 1 {
			t.Fatalf("login ran 5kmStores %d times and %v logins", ran, logins())
		}
		var answers []*cube.Result
		for i := 0; i < k; i++ {
			answers = append(answers, query(s))
		}
		if logins() != 1 {
			t.Fatalf("%d queries on one session ran SessionStart rules: %v logins counted", k, logins())
		}
		ran = 0
		for i := 0; i < k; i++ {
			fresh, n := login()
			ran += n
			if res := query(fresh); !sameAnswer(res, answers[i]) {
				t.Fatalf("query %d: re-filtered %+v, pre-selected %+v", i, res, answers[i])
			}
		}
		if ran != k || logins() != 1+k {
			t.Fatalf("re-filtering %d queries ran 5kmStores %d times, %v logins counted", k, ran, logins())
		}
	})

	// C3: rule-engine cost grows with the rule count only — one login runs
	// every SessionStart rule exactly once, however many there are.
	t.Run("C3", func(t *testing.T) {
		var base prml.Stats
		for _, n := range []int{4, 40, 400} {
			var pads strings.Builder
			for i := 4; i < n; i++ {
				fmt.Fprintf(&pads, "Rule:pad%03d When SessionStart do SetContent(SUS.DecisionMaker.name, 'u') endWhen\n", i)
			}
			e := newEngineOver(t, ds.Cube, Options{}, paperRules+pads.String())
			_, runs, err := startPlans(e, "alice", loc)
			if err != nil {
				t.Fatal(err)
			}
			ran := map[string]int{}
			var total prml.Stats
			for _, r := range runs {
				if r.Err != "" {
					t.Fatalf("rule %s: %s", r.Rule, r.Err)
				}
				ran[r.Rule]++
				total.ContentUpdates += r.Stats.ContentUpdates
				total.ActionsRun += r.Stats.ActionsRun
			}
			for _, r := range e.Rules() {
				want := 0
				if r.Event.Kind == prml.EvSessionStart {
					want = 1
				}
				if ran[r.Name] != want {
					t.Fatalf("%d rules: %s ran %d times, want %d", n, r.Name, ran[r.Name], want)
				}
			}
			if n == 4 {
				base = total
				continue
			}
			if total.ContentUpdates-base.ContentUpdates != n-4 || total.ActionsRun-base.ActionsRun != n-4 {
				t.Fatalf("%d rules: %+v, with the paper's rules alone %+v", n, total, base)
			}
		}
	})

	// C4: the R-tree beats a linear scan — a nearest-neighbour search
	// computes far fewer exact distances, and both indexes agree.
	t.Run("C4", func(t *testing.T) {
		const n = 100000
		rng := rand.New(rand.NewSource(42))
		pts := make([]geom.Point, n)
		ids := make([]int32, n)
		bounds := make([]geom.Rect, n)
		lin := geoidx.NewLinear()
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*12-9, rng.Float64()*7+36)
			ids[i], bounds[i] = int32(i), pts[i].Bounds()
			lin.Insert(ids[i], bounds[i])
		}
		rt := geoidx.Bulk(ids, bounds, 0)
		center := geom.Pt(-3.7, 40.4)
		// A degree of arc is longer than 50 km at these latitudes (36–43°N),
		// so this is a valid lower bound of the haversine distance.
		lowerBound := func(r geom.Rect) float64 { return r.DistanceToPoint(center) * 50 }
		calls := 0
		dist := func(id int32) float64 {
			calls++
			return geom.Haversine(center, pts[id])
		}
		nearest := func(idx geoidx.Index) ([]int32, int) {
			calls = 0
			got := idx.Nearest(10, lowerBound, dist)
			return got, calls
		}
		treeIDs, treeCalls := nearest(rt)
		linIDs, linCalls := nearest(lin)
		// Measured: the R-tree computes 144 exact distances; the bound
		// leaves a 2x margin.
		const maxTreeCalls = 288
		if linCalls != n || treeCalls > maxTreeCalls {
			t.Fatalf("exact distances: R-tree %d (bound %d), linear %d (want %d)", treeCalls, maxTreeCalls, linCalls, n)
		}
		if len(treeIDs) != 10 || !slices.Equal(treeIDs, linIDs) {
			t.Fatalf("nearest 10: R-tree %v, linear %v", treeIDs, linIDs)
		}
		within := func(pi *geoidx.PointIndex) []int32 {
			var got []int32
			pi.WithinKm(center, 25, func(i int32) bool { got = append(got, i); return true })
			slices.Sort(got)
			return got
		}
		treeSet, linSet := within(geoidx.NewPointIndex(pts)), within(geoidx.NewLinearPointIndex(pts))
		if len(treeSet) == 0 || !slices.Equal(treeSet, linSet) {
			t.Fatalf("within 25 km: R-tree %d points, linear %d", len(treeSet), len(linSet))
		}
	})

	// C5: rolling up Store → City → State → Country never adds rows, scans
	// the same facts at every level and preserves the grand total.
	t.Run("C5", func(t *testing.T) {
		sum := []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}}
		total, err := ds.Cube.Execute(cube.Query{Fact: "Sales", Aggregates: sum}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows := facts + 1
		for _, level := range []string{"Store", "City", "State", "Country"} {
			res, err := ds.Cube.Execute(cube.Query{Fact: "Sales",
				GroupBy:    []cube.LevelRef{{Dimension: "Store", Level: level}},
				Aggregates: sum}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var got float64
			for _, r := range res.Rows {
				got += r.Values[0]
			}
			if len(res.Rows) > rows || res.ScannedFacts != total.ScannedFacts || got != total.Rows[0].Values[0] {
				t.Fatalf("by %s: %d rows (previous level %d), scanned %d (ungrouped %d), sum %v (ungrouped %v)",
					level, len(res.Rows), rows, res.ScannedFacts, total.ScannedFacts, got, total.Rows[0].Values[0])
			}
			rows = len(res.Rows)
		}
	})

	// C6: the rule-plan optimizer beats the interpreter — the radius rule
	// selects the same stores while examining only the R-tree's candidates
	// instead of every store.
	t.Run("C6", func(t *testing.T) {
		cfg := datagen.Default()
		cfg.Stores = 10000
		cfg.Sales = 1000
		ds, err := datagen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		loc := ds.CityLocs[0]
		var sessions [2]*Session
		var stats [2]prml.Stats
		for i, disable := range []bool{false, true} {
			e := newEngineOver(t, ds.Cube, Options{DisableRuleOptimizer: disable}, fiveKmStores)
			s, runs, err := startPlans(e, "alice", loc)
			if err != nil {
				t.Fatal(err)
			}
			if len(runs) != 1 || runs[0].Err != "" {
				t.Fatalf("runs %+v", runs)
			}
			sessions[i], stats[i] = s, runs[0].Stats
		}
		if d := sessionDiff(sessions[0], sessions[1]); d != "" {
			t.Fatalf("optimized and interpreted views differ: %s", d)
		}
		candidates := 0
		if err := ds.Cube.MembersWithinKm("Store", "Store", loc, 5, func(int32) bool { candidates++; return true }); err != nil {
			t.Fatal(err)
		}
		opt, interp := stats[0], stats[1]
		if opt.InstancesSel == 0 || opt.InstancesSel != interp.InstancesSel || interp.LoopIterations != cfg.Stores ||
			opt.LoopIterations > candidates || candidates >= interp.LoopIterations {
			t.Fatalf("optimized %+v over %d R-tree candidates, interpreted %+v over %d stores",
				opt, candidates, interp, cfg.Stores)
		}
	})
}

func mustStart(t *testing.T, e *Engine, loc geom.Geometry) *Session {
	t.Helper()
	s, err := e.StartSession("alice", loc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sdwp/internal/bitset"
	"sdwp/internal/cube"
	"sdwp/internal/datagen"
	"sdwp/internal/geom"
	"sdwp/internal/prml"
)

// The differential harness of the compiled rule plans: one engine runs
// rules the production way (prml plans, compiled at AddRules), a twin over
// the same cube runs them through refEvaluator, and every login and
// selection must leave both sessions identical — view masks, personalized
// schema, user-model state, per-rule prml.Stats and error texts.

// planDiff is a plan engine and a reference engine over one cube, each with
// its own user store (content actions stay on their side).
type planDiff struct {
	plan, ref *Engine
}

func newPlanDiff(t testing.TB, c *cube.Cube, opts Options, rules string) *planDiff {
	t.Helper()
	return &planDiff{plan: newEngineOver(t, c, opts, rules), ref: newEngineOver(t, c, opts, rules)}
}

// newEngineOver is an engine over c with its own user store — alice (a
// regional sales manager) and bob (an accountant) — threshold 2 and the
// given rules.
func newEngineOver(t testing.TB, c *cube.Cube, opts Options, rules string) *Engine {
	t.Helper()
	users, err := datagen.NewUserStore(map[string]string{
		"alice": "RegionalSalesManager",
		"bob":   "Accountant",
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, users, opts)
	t.Cleanup(e.Close)
	e.SetParam("threshold", prml.NumberVal(2))
	if _, err := e.AddRules(rules); err != nil {
		t.Fatal(err)
	}
	return e
}

// ruleRun is one rule's outcome within a session start.
type ruleRun struct {
	Rule  string
	Stats prml.Stats
	Err   string
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// startPlans is StartSession's rule phase with per-rule outcomes.
func startPlans(e *Engine, user string, loc geom.Geometry) (*Session, []ruleRun, error) {
	s, err := e.newSession(user, loc)
	if err != nil {
		return nil, nil, err
	}
	var runs []ruleRun
	for _, phase := range e.rules().start {
		for _, p := range phase {
			st, err := s.exec(p)
			runs = append(runs, ruleRun{p.Rule.Name, st, errText(err)})
			if err != nil {
				return s, runs, nil
			}
		}
	}
	e.materialize(s.view)
	return s, runs, nil
}

// startRef is the same session start with the pre-plan rule dispatch:
// rules re-classified per login, bodies interpreted.
func startRef(e *Engine, user string, loc geom.Geometry) (*Session, []ruleRun, error) {
	s, err := e.newSession(user, loc)
	if err != nil {
		return nil, nil, err
	}
	var runs []ruleRun
	for _, kind := range []prml.RuleKind{prml.RuleSchema, prml.RuleInstance, prml.RuleOther} {
		for _, r := range e.Rules() {
			if prml.Classify(r) != kind || r.Event.Kind != prml.EvSessionStart {
				continue
			}
			st, err := refExec(s, r)
			runs = append(runs, ruleRun{r.Name, st, errText(err)})
			if err != nil {
				return s, runs, nil
			}
		}
	}
	e.materialize(s.view)
	return s, runs, nil
}

func sameMask(a, b *bitset.Set) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Equal(b)
}

// sessionDiff describes how two sessions differ ("" when they agree).
func sessionDiff(a, b *Session) string {
	if ra, rb := a.Schema().Render(), b.Schema().Render(); ra != rb {
		return fmt.Sprintf("schema:\n%s\nvs\n%s", ra, rb)
	}
	md := a.engine.cube.Schema().MD
	for _, d := range md.Dimensions {
		for _, l := range d.Levels {
			if ma, mb := a.View().LevelMask(d.Name, l.Name), b.View().LevelMask(d.Name, l.Name); !sameMask(ma, mb) {
				return fmt.Sprintf("level mask %s.%s: %s vs %s", d.Name, l.Name, ma, mb)
			}
		}
	}
	for _, f := range md.Facts {
		if ma, mb := a.View().FactMask(f.Name), b.View().FactMask(f.Name); !sameMask(ma, mb) {
			return fmt.Sprintf("fact mask %s: %s vs %s", f.Name, ma, mb)
		}
		if ma, mb := a.View().Materialize(f.Name), b.View().Materialize(f.Name); !sameMask(ma, mb) {
			return fmt.Sprintf("materialized %s: %s vs %s", f.Name, ma, mb)
		}
	}
	da, _ := a.User().Resolve([]string{"dm2airportcity", "degree"})
	db, _ := b.User().Resolve([]string{"dm2airportcity", "degree"})
	if !reflect.DeepEqual(da, db) {
		return fmt.Sprintf("airport-city degree %v vs %v", da, db)
	}
	return ""
}

// login starts a session on both sides, checks they agree, and returns
// them with the per-rule outcomes.
func (d *planDiff) login(t testing.TB, user string, loc geom.Geometry) (ps, rs *Session, runs []ruleRun) {
	t.Helper()
	ps, pruns, perr := startPlans(d.plan, user, loc)
	rs, rruns, rerr := startRef(d.ref, user, loc)
	if errText(perr) != errText(rerr) {
		t.Fatalf("login %s: plan error %q, reference %q", user, errText(perr), errText(rerr))
	}
	if !reflect.DeepEqual(pruns, rruns) {
		t.Fatalf("login %s at %s: rule outcomes differ\nplan %+v\nref  %+v", user, loc.WKT(), pruns, rruns)
	}
	if diff := sessionDiff(ps, rs); diff != "" {
		t.Fatalf("login %s at %s: %s", user, loc.WKT(), diff)
	}
	return ps, rs, pruns
}

// selectBoth runs one spatial selection on both sides and checks they
// agree.
func (d *planDiff) selectBoth(t testing.TB, ps, rs *Session, target, pred string) {
	t.Helper()
	pres, perr := ps.SpatialSelect(target, pred)
	rres, rerr := refSpatialSelect(rs, target, pred)
	if errText(perr) != errText(rerr) {
		t.Fatalf("select %q: plan error %q, reference %q", pred, errText(perr), errText(rerr))
	}
	if !reflect.DeepEqual(pres, rres) {
		t.Fatalf("select %q: plan %+v, reference %+v", pred, pres, rres)
	}
	if diff := sessionDiff(ps, rs); diff != "" {
		t.Fatalf("select %q: %s", pred, diff)
	}
}

func (d *planDiff) both(fn func(e *Engine)) {
	fn(d.plan)
	fn(d.ref)
}

func diffDataset(t testing.TB) *datagen.Dataset {
	t.Helper()
	cfg := datagen.Default()
	cfg.Cities = 30
	cfg.Stores = 150
	cfg.Customers = 50
	cfg.Sales = 2000
	cfg.TrainLines = 8
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// randomLoc is a login location near a city (5kmStores selects something)
// or anywhere in the data extent.
func randomLoc(rng *rand.Rand, ds *datagen.Dataset) geom.Point {
	if rng.Intn(2) == 0 {
		c := ds.CityLocs[rng.Intn(len(ds.CityLocs))]
		return geom.Pt(c.X+(rng.Float64()-0.5)*0.05, c.Y+(rng.Float64()-0.5)*0.05)
	}
	return geom.Pt(-9+rng.Float64()*12, 36+rng.Float64()*7.5)
}

// TestRulePlansMatchReference drives the paper's rules through random
// logins and selections — raising airport-city degrees past moving
// thresholds so TrainAirportCity fires, then removing rules — on default,
// planar and optimizer-off engines.
func TestRulePlansMatchReference(t *testing.T) {
	ds := diffDataset(t)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"planar", Options{Planar: true}},
		{"optimizer-off", Options{DisableRuleOptimizer: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newPlanDiff(t, ds.Cube, tc.opts, paperRules)
			rng := rand.New(rand.NewSource(21))
			users := []string{"alice", "bob"}
			var trainLoops, failed int
			for i := 0; i < 24; i++ {
				switch i {
				case 8:
					d.both(func(e *Engine) { e.SetParam("threshold", prml.NumberVal(0)) })
				case 12:
					d.both(func(e *Engine) { e.SetParam("threshold", prml.NumberVal(5)) })
				case 16:
					d.both(func(e *Engine) { e.RemoveRule("5kmStores") })
				case 20:
					// TrainAirportCity now iterates GeoMD.Airport without
					// the layer in the schema: it errors once its outer
					// domains are non-empty.
					d.both(func(e *Engine) { e.RemoveRule("addSpatiality") })
				}
				ps, rs, runs := d.login(t, users[i%len(users)], randomLoc(rng, ds))
				for _, r := range runs {
					if r.Rule == "TrainAirportCity" && r.Stats.LoopIterations > 0 {
						trainLoops++
					}
					if r.Err != "" {
						failed++
					}
				}
				for _, km := range []int{20, 5 + rng.Intn(60)} {
					d.selectBoth(t, ps, rs, "GeoMD.Store.City",
						fmt.Sprintf("Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < %dkm", km))
				}
			}
			if trainLoops == 0 || failed == 0 {
				t.Fatalf("scenario too tame: %d TrainAirportCity loops, %d failed rules", trainLoops, failed)
			}
		})
	}
}

// TestRulePlansErrorsMatchReference pins hoisting against the reference
// on rules that error: a hoisted loop-invariant expression must not be
// evaluated (and must not error) when the loop's inner domain is empty, and
// must error exactly as the interpreter does when it is not; a member
// without geometry fails Field inside the hoisted Intersection.
func TestRulePlansErrorsMatchReference(t *testing.T) {
	ds := diffDataset(t)
	if _, err := ds.Cube.RegisterLayer("Empty", geom.TypePoint); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Cube.AddMember("Store", "City", "Nowhere", 0); err != nil {
		t.Fatal(err)
	}
	loc := ds.CityLocs[0]
	for _, tc := range []struct {
		name, rules string
		wantErr     bool
	}{
		{"empty inner domain", `
Rule:emptyInner When SessionStart do
  AddLayer('Empty', POINT)
  Foreach s, x in (GeoMD.Store, GeoMD.Empty)
    If (Distance(GeoMD.Ghost.geometry, s.geometry) < 1km) then
      SelectInstance(s)
    endIf
  endForeach
endWhen`, false},
		{"empty outer domain, unresolvable inner source", `
Rule:emptyOuter When SessionStart do
  AddLayer('Empty', POINT)
  Foreach x, s in (GeoMD.Empty, GeoMD.Ghost)
    SelectInstance(s)
  endForeach
endWhen`, false},
		{"invariant error in a non-empty loop", `
Rule:invariantError When SessionStart do
  Foreach s, c in (GeoMD.Store, GeoMD.Store.City)
    If (Distance(GeoMD.Ghost.geometry, c.geometry) < 1km) then
      SelectInstance(s)
    endIf
  endForeach
endWhen`, true},
		{"member without geometry", `
Rule:addSpatiality When SessionStart do
  AddLayer('Airport', POINT)
  AddLayer('Train', LINE)
endWhen
Rule:trainCities When SessionStart do
  Foreach t, c, a in (GeoMD.Train, GeoMD.Store.City, GeoMD.Airport)
    If (Distance(Intersection(Intersection(t.geometry, c.geometry), a.geometry)) < 50km) then
      SelectInstance(c)
    endIf
  endForeach
endWhen`, true},
		{"radius select over a member without geometry", `
Rule:nearCities When SessionStart do
  Foreach c in (GeoMD.Store.City)
    If (Distance(c.geometry, SUS.DecisionMaker.dm2session.s2location.geometry) < 30km) then
      SelectInstance(c)
    endIf
  endForeach
endWhen`, true},
		{"content actions inside a loop", `
Rule:count When SessionStart do
  Foreach c in (GeoMD.Store.City)
    If (SUS.DecisionMaker.dm2airportcity.degree < 7) then
      SetContent(SUS.DecisionMaker.dm2airportcity.degree,
        SUS.DecisionMaker.dm2airportcity.degree + 1)
      SelectInstance(c)
    endIf
  endForeach
endWhen`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newPlanDiff(t, ds.Cube, Options{}, tc.rules)
			ps, pruns, _ := startPlans(d.plan, "alice", loc)
			rs, rruns, _ := startRef(d.ref, "alice", loc)
			if !reflect.DeepEqual(pruns, rruns) {
				t.Fatalf("rule outcomes differ\nplan %+v\nref  %+v", pruns, rruns)
			}
			if got := pruns[len(pruns)-1].Err != ""; got != tc.wantErr {
				t.Fatalf("error = %q, want error %v", pruns[len(pruns)-1].Err, tc.wantErr)
			}
			if diff := sessionDiff(ps, rs); diff != "" {
				t.Fatal(diff)
			}
		})
	}
}

// FuzzRulePlan differentially fuzzes the compiled plans against the
// reference interpreter over small rule and expression texts, on sessions
// of a tiny warehouse. Each compiled rule runs in two fresh sessions, so a
// pure loop's second run replays its memo. Inputs that do not parse are
// skipped.
func FuzzRulePlan(f *testing.F) {
	for _, seed := range []string{
		paperRules,
		`Rule:r When SessionStart do
  Foreach a, b in (GeoMD.Store.City, GeoMD.Store.City)
    If (Distance(a.geometry, b.geometry) < 100km and not Equals(a.geometry, b.geometry)) then
      SelectInstance(a)
    endIf
  endForeach
endWhen`,
		`Rule:r When SessionStart do
  Foreach t, c in (GeoMD.Train, GeoMD.Store.City)
    If (Distance(Intersection(t.geometry, c.geometry)) < 400km or c.population > 1000000) then
      SelectInstance(c)
    endIf
  endForeach
endWhen`,
		`Rule:r When SessionStart do
  Foreach c in (MD.Store.City)
    Foreach s in (GeoMD.Store)
      If (s.City.name = c.name) then
        SelectInstance(s)
        SetContent(SUS.DecisionMaker.dm2airportcity.degree, SUS.DecisionMaker.dm2airportcity.degree + 1)
      endIf
    endForeach
  endForeach
endWhen`,
		`Rule:r When SessionStart do
  Foreach f in (MD.Sales)
    If (f.UnitSales > 3 or f.Store.City.population > 100000) then
      SelectInstance(f)
    endIf
  endForeach
endWhen`,
		`Rule:r When SessionEnd do
  Foreach x, y in (MD.Store.State, GeoMD.Ghost)
    SelectInstance(x)
  endForeach
endWhen`,
		"Distance(GeoMD.Store.City.geometry, SUS.DecisionMaker.dm2session.s2location.geometry)",
		"1 + 2 * -3 < 4 and 'a' <> 'b'",
		"Intersection(SUS.DecisionMaker.dm2session.s2location.geometry, GeoMD.Ghost.geometry)",
		"threshold / 0",
	} {
		f.Add(seed)
	}
	cfg := datagen.Default()
	cfg.Cities = 6
	cfg.Stores = 12
	cfg.Customers = 8
	cfg.Sales = 40
	cfg.TrainLines = 2
	ds, err := datagen.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	d := newPlanDiff(f, ds.Cube, Options{}, "Rule:addSpatiality When SessionStart do AddLayer('Airport', POINT) AddLayer('Train', LINE) BecomeSpatial(MD.Sales.Store.geometry, POINT) endWhen")
	loc := ds.CityLocs[0]
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 600 {
			return
		}
		newPair := func() (*Session, *Session) {
			ps, _, perr := startPlans(d.plan, "alice", loc)
			rs, _, rerr := startRef(d.ref, "alice", loc)
			if perr != nil || rerr != nil {
				t.Fatalf("session start: %v / %v", perr, rerr)
			}
			return ps, rs
		}
		if rules, err := prml.Parse(src); err == nil {
			for _, r := range rules {
				p := prml.Compile(r, d.plan.compileOptions())
				for run := 1; run <= 2; run++ {
					ps, rs := newPair()
					pst, perr := ps.exec(p)
					rst, rerr := refExec(rs, r)
					if errText(perr) != errText(rerr) || pst != rst {
						t.Fatalf("rule %s, run %d: plan %+v %q, reference %+v %q", r.Name, run, pst, errText(perr), rst, errText(rerr))
					}
					if diff := sessionDiff(ps, rs); diff != "" {
						t.Fatalf("rule %s, run %d: %s", r.Name, run, diff)
					}
				}
			}
			return
		}
		e, err := prml.ParseExpr(src)
		if err != nil {
			return
		}
		ps, rs := newPair()
		pv, perr := prml.NewEvaluator(&sessionEnv{s: ps}).EvalExpr(e)
		rv, rerr := newRefEvaluator(&sessionEnv{s: rs}).EvalExpr(e)
		if errText(perr) != errText(rerr) || fmt.Sprintf("%+v", pv) != fmt.Sprintf("%+v", rv) {
			t.Fatalf("%q: plan %+v %q, reference %+v %q", src, pv, errText(perr), rv, errText(rerr))
		}
	})
}

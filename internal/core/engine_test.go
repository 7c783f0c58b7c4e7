package core

import (
	"strings"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/datagen"
	"sdwp/internal/geom"
	"sdwp/internal/prml"
	"sdwp/internal/usermodel"
)

// The paper's Section 5 rules, verbatim.
const paperRules = `
Rule:addSpatiality When SessionStart do
  If (SUS.DecisionMaker.dm2role.name = 'RegionalSalesManager') then
    AddLayer('Airport', POINT)
    BecomeSpatial(MD.Sales.Store.geometry, POINT)
  endIf
endWhen

Rule:5kmStores When SessionStart do
  Foreach s in (GeoMD.Store)
    If (Distance(s.geometry, SUS.DecisionMaker.dm2session.s2location.geometry) < 5km) then
      SelectInstance(s)
    endIf
  endForeach
endWhen

Rule:IntAirportCity When SpatialSelection(GeoMD.Store.City,
    Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km) do
  SetContent(SUS.DecisionMaker.dm2airportcity.degree,
    SUS.DecisionMaker.dm2airportcity.degree + 1)
endWhen

Rule:TrainAirportCity When SessionStart do
  If (SUS.DecisionMaker.dm2airportcity.degree > threshold) then
    AddLayer('Train', LINE)
    Foreach t, c, a in (GeoMD.Train, GeoMD.Store.City, GeoMD.Airport)
      If (Distance(Intersection(Intersection(t.geometry, c.geometry), a.geometry)) < 50km) then
        SelectInstance(c)
      endIf
    endForeach
  endIf
endWhen
`

// newTestEngine builds an engine over a small generated warehouse with the
// paper's rules registered and two users: a regional sales manager and an
// accountant.
func newTestEngine(t testing.TB) (*Engine, *datagen.Dataset) {
	t.Helper()
	return newTestEngineOpts(t, Options{})
}

// newTestEngineOpts is newTestEngine with explicit engine options (e.g.
// FactShards or ResultCacheBytes).
func newTestEngineOpts(t testing.TB, opts Options) (*Engine, *datagen.Dataset) {
	t.Helper()
	cfg := datagen.Default()
	cfg.Cities = 30
	cfg.Stores = 150
	cfg.Customers = 100
	cfg.Sales = 3000
	cfg.TrainLines = 8
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	users, err := datagen.NewUserStore(map[string]string{
		"alice": "RegionalSalesManager",
		"bob":   "Accountant",
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds.Cube, users, opts)
	e.SetParam("threshold", prml.NumberVal(2))
	if _, err := e.AddRules(paperRules); err != nil {
		t.Fatal(err)
	}
	return e, ds
}

func TestAddRulesRejectsBrokenRules(t *testing.T) {
	e, _ := newTestEngine(t)
	if _, err := e.AddRules("Rule:x When"); err == nil {
		t.Error("syntax error accepted")
	}
	// Analyzer catches unknown identifiers.
	if _, err := e.AddRules(`Rule:x When SessionStart do
  If (SUS.DecisionMaker.dm2airportcity.degree > unknownParam) then
    AddLayer('Airport', POINT)
  endIf
endWhen`); err == nil || !strings.Contains(err.Error(), "unknownParam") {
		t.Errorf("err = %v", err)
	}
	// Duplicate rule names across registrations rejected.
	if _, err := e.AddRules(`Rule:addSpatiality When SessionStart do
  AddLayer('Airport', POINT)
endWhen`); err == nil || !strings.Contains(err.Error(), "duplicate rule name") {
		t.Errorf("err = %v", err)
	}
	if got := len(e.Rules()); got != 4 {
		t.Errorf("rules = %d, want the original 4", got)
	}
}

// TestExample51SchemaRule is experiment X1 and (with the Train layer from
// rule TrainAirportCity) F6: the manager's session schema matches Fig. 6,
// the accountant's stays at Fig. 2.
func TestExample51SchemaRule(t *testing.T) {
	e, ds := newTestEngine(t)
	loc := ds.CityLocs[0]

	alice, err := e.StartSession("alice", loc)
	if err != nil {
		t.Fatal(err)
	}
	if !alice.Schema().IsSpatial("Store", "Store") {
		t.Error("manager's Store level must be spatial (BecomeSpatial)")
	}
	if _, ok := alice.Schema().Layer("Airport"); !ok {
		t.Error("manager's schema must have the Airport layer")
	}
	gt, _ := alice.Schema().SpatialType("Store", "Store")
	if gt != geom.TypePoint {
		t.Errorf("Store spatial type = %v", gt)
	}

	bob, err := e.StartSession("bob", loc)
	if err != nil {
		t.Fatal(err)
	}
	if bob.Schema().IsSpatial("Store", "Store") {
		t.Error("accountant's schema must not gain spatiality")
	}
	if _, ok := bob.Schema().Layer("Airport"); ok {
		t.Error("accountant's schema must not gain the Airport layer")
	}
	// The engine's base schema is untouched (clone semantics).
	if e.Cube().Schema().IsSpatial("Store", "Store") {
		t.Error("base schema mutated by a session")
	}
}

// TestExample52InstanceRule is experiment X2: only stores within 5 km of
// the user remain visible to succeeding analysis.
func TestExample52InstanceRule(t *testing.T) {
	e, ds := newTestEngine(t)
	loc := ds.CityLocs[3]
	s, err := e.StartSession("alice", loc)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: stores within 5 km (haversine).
	want := map[int32]bool{}
	for i, sl := range ds.StoreLocs {
		if geom.Haversine(loc, sl) < 5 {
			want[int32(i)] = true
		}
	}
	if len(want) == 0 {
		t.Fatal("test geography produced no stores within 5 km; adjust config")
	}
	mask := s.View().LevelMask("Store", "Store")
	if mask == nil {
		t.Fatal("no store selection recorded")
	}
	if mask.Count() != len(want) {
		t.Fatalf("selected %d stores, want %d", mask.Count(), len(want))
	}
	for idx := range want {
		if !mask.Test(int(idx)) {
			t.Errorf("store %d within 5km not selected", idx)
		}
	}

	// Succeeding analysis sees only those stores' facts.
	res, err := s.Query(cube.Query{
		Fact:       "Sales",
		Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.QueryBaseline(cube.Query{
		Fact:       "Sales",
		Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchedFacts >= base.MatchedFacts {
		t.Errorf("personalized %d facts !< baseline %d", res.MatchedFacts, base.MatchedFacts)
	}
	// Count exactly: facts whose store is in the selection.
	fd := e.Cube().FactData("Sales")
	exact := 0
	for i := int32(0); int(i) < fd.Len(); i++ {
		k, _ := fd.DimKey("Store", i)
		if want[k] {
			exact++
		}
	}
	if res.MatchedFacts != exact {
		t.Errorf("personalized matched %d, want %d", res.MatchedFacts, exact)
	}
}

// TestExample53InterestRules is experiment X3: spatial selections raise the
// AirportCity degree via the tracking rule; once past the threshold, the
// next session gains the Train layer and train-connected cities.
func TestExample53InterestRules(t *testing.T) {
	e, ds := newTestEngine(t)
	loc := ds.CityLocs[0]

	const selectNearAirports = "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km"

	// Three sessions, each selecting cities near airports once.
	for round := 1; round <= 3; round++ {
		s, err := e.StartSession("alice", loc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.SpatialSelect("GeoMD.Store.City", selectNearAirports)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Selected) == 0 {
			t.Fatal("no airport cities selected; geography too sparse")
		}
		fired := false
		for _, name := range res.RulesFired {
			if name == "IntAirportCity" {
				fired = true
			}
		}
		if !fired {
			t.Fatalf("round %d: tracking rule did not fire (fired: %v)", round, res.RulesFired)
		}
		degree, err := e.Users().Get("alice").Resolve([]string{"dm2airportcity", "degree"})
		if err != nil {
			t.Fatal(err)
		}
		if degree != float64(round) {
			t.Fatalf("degree after round %d = %v", round, degree)
		}
		if err := e.EndSession(s); err != nil {
			t.Fatal(err)
		}
	}

	// degree (3) > threshold (2): the next session runs TrainAirportCity.
	s, err := e.StartSession("alice", loc)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Schema().Layer("Train"); !ok {
		t.Fatal("Train layer missing after threshold exceeded")
	}
	cityMask := s.View().LevelMask("Store", "City")
	if cityMask == nil || !cityMask.Any() {
		t.Fatal("no train-connected cities selected")
	}
	// Every selected city must lie on some train route (necessary
	// condition for a rail connection).
	onRoute := map[int32]bool{}
	for _, route := range ds.TrainRoutes {
		for _, cityIdx := range route {
			onRoute[cityIdx] = true
		}
	}
	for _, idx := range cityMask.Indices() {
		if !onRoute[int32(idx)] {
			t.Errorf("selected city %d is on no train route", idx)
		}
	}

	// The accountant never accumulated interest: no Train layer.
	b, err := e.StartSession("bob", loc)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Schema().Layer("Train"); ok {
		t.Error("accountant gained the Train layer without interest")
	}
}

// TestFig1ProcessPipeline is experiment F1: the complete Fig. 1 flow in one
// test — MD model, schema rules, GeoMD model, instance rules, personalized
// analysis.
func TestFig1ProcessPipeline(t *testing.T) {
	e, ds := newTestEngine(t)
	s, err := e.StartSession("alice", ds.CityLocs[1])
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1 (schema rules) produced a GeoMD model.
	diff := s.Schema().Diff(e.Cube().Schema())
	wantDiff := map[string]bool{
		"+SpatialLevel Store.Store POINT": true,
		"+Layer Airport POINT":            true,
	}
	for _, d := range diff {
		if !wantDiff[d] {
			t.Errorf("unexpected schema delta %q", d)
		}
		delete(wantDiff, d)
	}
	if len(wantDiff) != 0 {
		t.Errorf("missing schema deltas: %v (got %v)", wantDiff, diff)
	}
	// Phase 2 (instance rules) produced a restricted view.
	if !s.View().Restricted() {
		t.Fatal("view not personalized")
	}
	// Succeeding OLAP analysis works through the view.
	res, err := s.Query(cube.Query{
		Fact:       "Sales",
		GroupBy:    []cube.LevelRef{{Dimension: "Store", Level: "City"}},
		Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScannedFacts == 0 {
		t.Fatal("query scanned nothing")
	}
}

func TestSessionWiringBuildsFig4Graph(t *testing.T) {
	e, ds := newTestEngine(t)
	loc := ds.CityLocs[2]
	s, err := e.StartSession("alice", loc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.User().Resolve([]string{"dm2session", "s2location", "geometry"})
	if err != nil {
		t.Fatal(err)
	}
	pt, ok := g.(geom.Point)
	if !ok || !pt.Eq(loc) {
		t.Fatalf("wired location = %v", g)
	}
	if s.Location() == nil || s.User() == nil || s.ID == "" {
		t.Error("session accessors broken")
	}
	if e.Session(s.ID) != s {
		t.Error("session registry lookup failed")
	}
	if err := e.EndSession(s); err != nil {
		t.Fatal(err)
	}
	if e.Session(s.ID) != nil {
		t.Error("session not removed on end")
	}
}

func TestStartSessionWithoutLocationFailsLocationRule(t *testing.T) {
	// The 5kmStores rule needs the user location; without one the rule
	// errors and session start reports it (fail-loud semantics).
	e, _ := newTestEngine(t)
	if _, err := e.StartSession("alice", nil); err == nil {
		t.Fatal("expected error from location-dependent rule")
	}
}

func TestSpatialSelectValidation(t *testing.T) {
	e, ds := newTestEngine(t)
	s, err := e.StartSession("alice", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SpatialSelect("SUS.DecisionMaker", "true"); err == nil {
		t.Error("non-GeoMD target accepted")
	}
	if _, err := s.SpatialSelect("GeoMD.Store.City", "1 + 1"); err == nil {
		t.Error("non-bool predicate accepted")
	}
	if _, err := s.SpatialSelect("GeoMD.Store.City", "not valid ("); err == nil {
		t.Error("broken predicate accepted")
	}
	if _, err := s.SpatialSelect("GeoMD.Nothing", "true"); err == nil {
		t.Error("unknown element accepted")
	}
	// A predicate matching nothing fires no rules.
	res, err := s.SpatialSelect("GeoMD.Store.City", "false")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 || len(res.RulesFired) != 0 {
		t.Errorf("empty selection acted: %+v", res)
	}
}

func TestAccountantCannotUseAirportLayer(t *testing.T) {
	// The Airport layer is in the manager's personalized schema only; the
	// accountant's selection predicate referencing it must fail — schema
	// personalization gates instance personalization (Fig. 1 phasing).
	e, ds := newTestEngine(t)
	s, err := e.StartSession("bob", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.SpatialSelect("GeoMD.Store.City",
		"Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km")
	if err == nil {
		t.Fatal("accountant used a layer outside their schema")
	}
}

func TestParamsAndKindOrdering(t *testing.T) {
	e, _ := newTestEngine(t)
	if _, ok := e.Param("threshold"); !ok {
		t.Error("threshold param missing")
	}
	if _, ok := e.Param("ghost"); ok {
		t.Error("ghost param present")
	}
	b := e.rules()
	schema := b.start[startPhases[prml.RuleSchema]]
	if len(schema) != 2 { // addSpatiality + TrainAirportCity
		t.Errorf("schema rules = %d", len(schema))
	}
	inst := b.start[startPhases[prml.RuleInstance]]
	if len(inst) != 1 || inst[0].Rule.Name != "5kmStores" {
		t.Errorf("instance rules = %v", inst)
	}
	if len(b.tracking) != 1 || b.tracking[0].Rule.Name != "IntAirportCity" {
		t.Errorf("tracking rules = %v", b.tracking)
	}
}

func TestEnvPathResolutionErrors(t *testing.T) {
	e, ds := newTestEngine(t)
	s, err := e.StartSession("alice", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	env := &sessionEnv{s: s}
	ev := prml.NewEvaluator(env)
	for _, src := range []string{
		"SUS.WrongClass.name",          // wrong user class
		"SUS.DecisionMaker.ghost",      // unknown property
		"GeoMD.Nothing.geometry",       // unknown element
		"GeoMD.Store.City.population",  // attribute without instance context
		"MD.Sales.Store.City.geometry", // City not spatial → no collection form
		"GeoMD.Store",                  // bare element in scalar context
	} {
		expr, err := prml.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := ev.EvalExpr(expr); err == nil {
			t.Errorf("%q: expected resolution error", src)
		}
	}
	// Store became spatial for alice → collection geometry works.
	expr, _ := prml.ParseExpr("Distance(SUS.DecisionMaker.dm2session.s2location.geometry, GeoMD.Store.geometry) < 10000km")
	v, err := ev.EvalExpr(expr)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != prml.KindBool || !v.Bool {
		t.Errorf("collection distance = %v", v)
	}
}

func TestEnvActionsErrors(t *testing.T) {
	e, ds := newTestEngine(t)
	s, err := e.StartSession("alice", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	env := &sessionEnv{s: s}
	// AddLayer not in catalog.
	if err := env.AddLayer("Volcano", geom.TypePoint); err == nil {
		t.Error("unknown catalog layer accepted")
	}
	// AddLayer with wrong type.
	if err := env.AddLayer(datagen.LayerTrain, geom.TypePoint); err == nil {
		t.Error("catalog type mismatch accepted")
	}
	// SetContent outside SUS.
	target, _ := prml.ParseExpr("GeoMD.Store.City.population")
	if err := env.SetContent(target.(*prml.PathExpr), prml.NumberVal(1)); err == nil {
		t.Error("SetContent to model path accepted")
	}
	// SelectInstance of a layer object.
	if err := env.SelectInstance(prml.InstVal(prml.Instance{
		Kind: prml.InstLayerObject, Layer: datagen.LayerAirport, Index: 0,
	})); err == nil {
		t.Error("layer object selection accepted")
	}
	// SelectInstance of a non-instance.
	if err := env.SelectInstance(prml.NumberVal(1)); err == nil {
		t.Error("non-instance selection accepted")
	}
	// BecomeSpatial of a layer path.
	bsTarget, _ := prml.ParseExpr("GeoMD.Airport")
	if err := env.BecomeSpatial(bsTarget.(*prml.PathExpr), geom.TypePoint); err == nil {
		t.Error("BecomeSpatial of a layer accepted")
	}
}

func TestEnvFieldNavigation(t *testing.T) {
	e, ds := newTestEngine(t)
	s, err := e.StartSession("alice", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	env := &sessionEnv{s: s}
	store := prml.Instance{Kind: prml.InstMember, Dimension: "Store", Level: "Store", Index: 0}

	// Attribute access.
	v, err := env.Field(store, []string{"name"})
	if err != nil || v.Kind != prml.KindString {
		t.Fatalf("name = %v, %v", v, err)
	}
	// Roll-up navigation to the city and its attribute.
	v, err = env.Field(store, []string{"City", "name"})
	if err != nil || v.Kind != prml.KindString || !strings.HasPrefix(v.Str, "City") {
		t.Fatalf("City.name = %v, %v", v, err)
	}
	v, err = env.Field(store, []string{"City", "population"})
	if err != nil || v.Kind != prml.KindNumber {
		t.Fatalf("City.population = %v, %v", v, err)
	}
	// Roll-up to an instance.
	v, err = env.Field(store, []string{"State"})
	if err != nil || v.Kind != prml.KindInstance || v.Inst.Level != "State" {
		t.Fatalf("State = %v, %v", v, err)
	}
	// Geometry.
	v, err = env.Field(store, []string{"geometry"})
	if err != nil || v.Kind != prml.KindGeom {
		t.Fatalf("geometry = %v, %v", v, err)
	}
	// Errors.
	if _, err := env.Field(store, []string{"ghost"}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := env.Field(store, []string{"name", "deeper"}); err == nil {
		t.Error("navigation through attribute accepted")
	}
	if _, err := env.Field(store, []string{"geometry", "deeper"}); err == nil {
		t.Error("navigation beyond geometry accepted")
	}
	// Layer object fields.
	apt := prml.Instance{Kind: prml.InstLayerObject, Layer: datagen.LayerAirport, Index: 0}
	if v, err := env.Field(apt, []string{"name"}); err != nil || v.Kind != prml.KindString {
		t.Errorf("airport name = %v, %v", v, err)
	}
	if _, err := env.Field(apt, []string{"altitude"}); err == nil {
		t.Error("unknown layer field accepted")
	}
	// Fact fields.
	fact := prml.Instance{Kind: prml.InstFact, Fact: "Sales", Index: 0}
	if v, err := env.Field(fact, []string{"UnitSales"}); err != nil || v.Kind != prml.KindNumber {
		t.Errorf("measure = %v, %v", v, err)
	}
	if v, err := env.Field(fact, []string{"Store", "City", "name"}); err != nil || v.Kind != prml.KindString {
		t.Errorf("fact→store→city = %v, %v", v, err)
	}
	if _, err := env.Field(fact, []string{"Ghost"}); err == nil {
		t.Error("unknown fact field accepted")
	}
}

func TestSessionEndRule(t *testing.T) {
	e, ds := newTestEngine(t)
	if _, err := e.AddRules(`Rule:logout When SessionEnd do
  SetContent(SUS.DecisionMaker.name, 'loggedOut')
endWhen`); err != nil {
		t.Fatal(err)
	}
	s, err := e.StartSession("alice", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EndSession(s); err != nil {
		t.Fatal(err)
	}
	if got := e.Users().Get("alice").GetString("name"); got != "loggedOut" {
		t.Errorf("SessionEnd rule did not run: name = %q", got)
	}
}

func TestWireSessionWithoutSessionClass(t *testing.T) {
	// A profile with only a user class: wiring is a no-op, sessions work.
	p := usermodel.NewProfile()
	if _, err := p.AddClass("U", usermodel.StereoUser); err != nil {
		t.Fatal(err)
	}
	store, err := usermodel.NewStore(p)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := datagen.Generate(datagen.Config{Cities: 5, Stores: 10, Customers: 5, Products: 5, Days: 5, Sales: 50})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds.Cube, store, Options{})
	s, err := e.StartSession("u1", geom.Pt(0, 40))
	if err != nil {
		t.Fatal(err)
	}
	if s.User().Class().Name != "U" {
		t.Error("wrong user class")
	}
}

// Rules may iterate fact instances directly (MD.<Fact> as Foreach source)
// and select them — producing a fact-level mask rather than a member mask.
func TestFactIterationRule(t *testing.T) {
	e, ds := newTestEngine(t)
	if _, err := e.AddRules(`Rule:bigTickets When SessionStart do
  Foreach f in (MD.Sales)
    If (f.UnitSales > 19) then
      SelectInstance(f)
    endIf
  endForeach
endWhen`); err != nil {
		t.Fatal(err)
	}
	s, err := e.StartSession("bob", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	mask := s.View().FactMask("Sales")
	if mask == nil || !mask.Any() {
		t.Fatal("no facts selected")
	}
	// Ground truth: facts with UnitSales == 20 (generator max).
	fd := e.Cube().FactData("Sales")
	want := 0
	for i := int32(0); int(i) < fd.Len(); i++ {
		if v, _ := fd.Measure("UnitSales", i); v > 19 {
			want++
		}
	}
	if mask.Count() != want {
		t.Fatalf("selected %d facts, want %d", mask.Count(), want)
	}
	// The fact mask intersects with bob's store mask in queries.
	res, err := s.Query(cube.Query{Fact: "Sales", Aggregates: []cube.MeasureAgg{{Agg: cube.AggCount}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchedFacts > want {
		t.Fatalf("query saw %d facts, more than the %d selected", res.MatchedFacts, want)
	}
}

// A v-dependent reference expression must defeat the optimizer's pattern
// matcher and still evaluate correctly through the interpreter.
func TestOptimizerBailsOnVarDependentReference(t *testing.T) {
	e, ds := newTestEngine(t)
	if _, err := e.AddRules(`Rule:selfRef When SessionStart do
  Foreach s in (GeoMD.Store)
    If (Distance(s.geometry, Intersection(s.geometry, s.geometry)) < 1km) then
      SelectInstance(s)
    endIf
  endForeach
endWhen`); err != nil {
		t.Fatal(err)
	}
	s, err := e.StartSession("bob", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Every store is at distance 0 from itself: all stores selected.
	mask := s.View().LevelMask("Store", "Store")
	if mask == nil || mask.Count() != e.Cube().Dimension("Store").Level("Store").Len() {
		t.Fatalf("self-reference rule selected %v", mask)
	}
}

func TestRemoveRule(t *testing.T) {
	e, ds := newTestEngine(t)
	if !e.RemoveRule("5kmStores") {
		t.Fatal("rule not found for removal")
	}
	if e.RemoveRule("5kmStores") {
		t.Fatal("double removal succeeded")
	}
	if got := len(e.Rules()); got != 3 {
		t.Fatalf("rules after removal = %d", got)
	}
	// Sessions no longer run the removed instance rule — and no longer
	// need a location.
	s, err := e.StartSession("alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.View().LevelMask("Store", "Store") != nil {
		t.Error("removed rule still selected stores")
	}
	_ = ds
}

func TestSessionStartedAtStamped(t *testing.T) {
	e, ds := newTestEngine(t)
	s, err := e.StartSession("alice", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.User().Resolve([]string{"dm2session", "startedAt"})
	if err != nil {
		t.Fatal(err)
	}
	ts, ok := v.(string)
	if !ok || len(ts) < 20 || !strings.Contains(ts, "T") {
		t.Fatalf("startedAt = %v", v)
	}
}

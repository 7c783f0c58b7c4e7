package prml

import (
	"fmt"
	"strings"
	"testing"

	"sdwp/internal/geom"
)

// fakeEnv is a scripted Env for evaluator tests. Distances are planar so
// test geometry stays arithmetic-friendly.
type fakeEnv struct {
	paths   map[string]Value            // rooted path → value
	fields  map[string]map[string]Value // instance key → field → value
	domains map[string][]Instance       // rooted path → Foreach domain
	params  map[string]Value

	setCalls  []string
	selected  []Instance
	schemaOps []string
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{
		paths:   map[string]Value{},
		fields:  map[string]map[string]Value{},
		domains: map[string][]Instance{},
		params:  map[string]Value{},
	}
}

func (f *fakeEnv) ResolvePath(p *PathExpr) (Value, error) {
	if v, ok := f.paths[p.String()]; ok {
		return v, nil
	}
	return Value{}, fmt.Errorf("fake: unknown path %s", p)
}

func (f *fakeEnv) Field(inst Instance, segs []string) (Value, error) {
	m := f.fields[inst.String()]
	if m == nil {
		return Value{}, fmt.Errorf("fake: unknown instance %s", inst)
	}
	if v, ok := m[strings.Join(segs, ".")]; ok {
		return v, nil
	}
	return Value{}, fmt.Errorf("fake: instance %s has no field %v", inst, segs)
}

func (f *fakeEnv) Iterate(p *PathExpr, fn func(Instance) error) error {
	dom, ok := f.domains[p.String()]
	if !ok {
		return fmt.Errorf("fake: no domain %s", p)
	}
	for _, inst := range dom {
		if err := fn(inst); err != nil {
			return err
		}
	}
	return nil
}

func (f *fakeEnv) Param(name string) (Value, bool) {
	v, ok := f.params[name]
	return v, ok
}

// LoopData names no data: every Foreach runs.
func (f *fakeEnv) LoopData([]*PathExpr) (LoopKey, bool) { return LoopKey{}, false }

func (f *fakeEnv) SetContent(target *PathExpr, v Value) error {
	f.setCalls = append(f.setCalls, fmt.Sprintf("%s=%s", target, v))
	f.paths[target.String()] = v
	return nil
}

func (f *fakeEnv) SelectInstance(v Value) error {
	if v.Kind != KindInstance {
		return fmt.Errorf("fake: SelectInstance wants an instance, got %s", v.Kind)
	}
	f.selected = append(f.selected, v.Inst)
	return nil
}

func (f *fakeEnv) BecomeSpatial(target *PathExpr, g geom.Type) error {
	f.schemaOps = append(f.schemaOps, fmt.Sprintf("BecomeSpatial(%s,%s)", target, g))
	return nil
}

func (f *fakeEnv) AddLayer(name string, g geom.Type) error {
	f.schemaOps = append(f.schemaOps, fmt.Sprintf("AddLayer(%s,%s)", name, g))
	return nil
}

func (f *fakeEnv) DistanceKm(a, b geom.Geometry) float64 { return geom.Distance(a, b) }
func (f *fakeEnv) LengthKm(g geom.Geometry) float64      { return geom.MinLength(g) }

// member builds a dimension-member instance with a geometry field.
func (f *fakeEnv) member(dim, level string, idx int32, g geom.Geometry) Instance {
	inst := Instance{Kind: InstMember, Dimension: dim, Level: level, Index: idx}
	f.fields[inst.String()] = map[string]Value{"geometry": GeomVal(g)}
	return inst
}

func TestExecExample51SchemaRule(t *testing.T) {
	r, err := ParseRule(ruleAddSpatiality)
	if err != nil {
		t.Fatal(err)
	}
	env := newFakeEnv()
	env.paths["SUS.DecisionMaker.dm2role.name"] = StringVal("RegionalSalesManager")
	ev := NewEvaluator(env)
	st, err := ev.Exec(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.schemaOps) != 2 ||
		env.schemaOps[0] != "AddLayer(Airport,POINT)" ||
		env.schemaOps[1] != "BecomeSpatial(MD.Sales.Store.geometry,POINT)" {
		t.Fatalf("schemaOps = %v", env.schemaOps)
	}
	if st.SchemaActions != 2 || st.ActionsRun != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// A different role performs nothing.
	env2 := newFakeEnv()
	env2.paths["SUS.DecisionMaker.dm2role.name"] = StringVal("Accountant")
	st2, err := NewEvaluator(env2).Exec(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(env2.schemaOps) != 0 || st2.ActionsRun != 0 {
		t.Fatalf("wrong role still acted: %v", env2.schemaOps)
	}
}

func TestExecExample52InstanceRule(t *testing.T) {
	r, err := ParseRule(rule5kmStores)
	if err != nil {
		t.Fatal(err)
	}
	env := newFakeEnv()
	// Stores at planar distances 3, 4.9 and 7 from the user at (0,0).
	s0 := env.member("Store", "Store", 0, geom.Pt(3, 0))
	s1 := env.member("Store", "Store", 1, geom.Pt(0, 4.9))
	s2 := env.member("Store", "Store", 2, geom.Pt(7, 0))
	env.domains["GeoMD.Store"] = []Instance{s0, s1, s2}
	env.paths["SUS.DecisionMaker.dm2session.s2location.geometry"] = GeomVal(geom.Pt(0, 0))

	st, err := NewEvaluator(env).Exec(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.selected) != 2 || env.selected[0] != s0 || env.selected[1] != s1 {
		t.Fatalf("selected = %v (s2 at distance 7 must be excluded)", env.selected)
	}
	if st.InstancesSel != 2 || st.LoopIterations != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExecExample53TrackingRuleBody(t *testing.T) {
	r, err := ParseRule(ruleIntAirportCity)
	if err != nil {
		t.Fatal(err)
	}
	env := newFakeEnv()
	env.paths["SUS.DecisionMaker.dm2airportcity.degree"] = NumberVal(3)
	if _, err := NewEvaluator(env).Exec(r); err != nil {
		t.Fatal(err)
	}
	if len(env.setCalls) != 1 || env.setCalls[0] != "SUS.DecisionMaker.dm2airportcity.degree=4" {
		t.Fatalf("setCalls = %v", env.setCalls)
	}
}

func TestExecExample53TrainRule(t *testing.T) {
	r, err := ParseRule(ruleTrainAirportCity)
	if err != nil {
		t.Fatal(err)
	}
	env := newFakeEnv()
	env.params["threshold"] = NumberVal(2)
	env.paths["SUS.DecisionMaker.dm2airportcity.degree"] = NumberVal(3)

	// Train t0 passes through city c0 (at 10,0) and airport a0 (at 40,0):
	// segment length 30 < 50 → select c0. City c1 is on no train.
	t0 := env.member("Train", "", 0, geom.Ln(geom.Pt(0, 0), geom.Pt(100, 0)))
	t0.Kind = InstLayerObject
	t0.Layer = "Train"
	t0.Dimension, t0.Level = "", ""
	env.fields[t0.String()] = map[string]Value{"geometry": GeomVal(geom.Ln(geom.Pt(0, 0), geom.Pt(100, 0)))}
	c0 := env.member("Store", "City", 0, geom.Pt(10, 0))
	c1 := env.member("Store", "City", 1, geom.Pt(10, 55))
	a0 := Instance{Kind: InstLayerObject, Layer: "Airport", Index: 0}
	env.fields[a0.String()] = map[string]Value{"geometry": GeomVal(geom.Pt(40, 0))}

	env.domains["GeoMD.Train"] = []Instance{t0}
	env.domains["GeoMD.Store.City"] = []Instance{c0, c1}
	env.domains["GeoMD.Airport"] = []Instance{a0}

	st, err := NewEvaluator(env).Exec(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.schemaOps) != 1 || env.schemaOps[0] != "AddLayer(Train,LINE)" {
		t.Fatalf("schemaOps = %v", env.schemaOps)
	}
	if len(env.selected) != 1 || env.selected[0] != c0 {
		t.Fatalf("selected = %v, want just the connected city", env.selected)
	}
	if st.LoopIterations != 2 { // 1 train × 2 cities × 1 airport
		t.Fatalf("iterations = %d", st.LoopIterations)
	}

	// Below threshold: nothing happens.
	env.paths["SUS.DecisionMaker.dm2airportcity.degree"] = NumberVal(1)
	env.schemaOps, env.selected = nil, nil
	if _, err := NewEvaluator(env).Exec(r); err != nil {
		t.Fatal(err)
	}
	if len(env.schemaOps) != 0 || len(env.selected) != 0 {
		t.Fatal("below-threshold rule still acted")
	}
}

func TestEvalEventCond(t *testing.T) {
	r, err := ParseRule(ruleIntAirportCity)
	if err != nil {
		t.Fatal(err)
	}
	env := newFakeEnv()
	// The engine binds the selected instance; here the condition references
	// model paths directly, so provide them.
	env.paths["GeoMD.Store.City.geometry"] = GeomVal(geom.Pt(0, 0))
	env.paths["GeoMD.Airport.geometry"] = GeomVal(geom.Pt(0, 10))
	ev := NewEvaluator(env)
	ok, err := ev.EvalEventCond(r.Event.Cond, "", Instance{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("distance 10 < 20 must hold")
	}
	env.paths["GeoMD.Airport.geometry"] = GeomVal(geom.Pt(0, 30))
	ok, err = ev.EvalEventCond(r.Event.Cond, "", Instance{})
	if err != nil || ok {
		t.Fatalf("distance 30 < 20 must fail: %v %v", ok, err)
	}
	// Non-bool conditions are rejected.
	if _, err := ev.EvalEventCond(&NumberLit{Value: 1}, "", Instance{}); err == nil {
		t.Fatal("non-bool event condition accepted")
	}
}

func TestEvalOperators(t *testing.T) {
	env := newFakeEnv()
	ev := NewEvaluator(env)
	cases := map[string]Value{
		"1 + 2":          NumberVal(3),
		"7 - 2 - 1":      NumberVal(4), // left associative
		"2 * 3 + 1":      NumberVal(7),
		"10 / 4":         NumberVal(2.5),
		"-3 + 5":         NumberVal(2),
		"1 < 2":          BoolVal(true),
		"2 <= 2":         BoolVal(true),
		"3 > 4":          BoolVal(false),
		"4 >= 5":         BoolVal(false),
		"1 = 1":          BoolVal(true),
		"1 <> 1":         BoolVal(false),
		"'a' = 'a'":      BoolVal(true),
		"'a' <> 'b'":     BoolVal(true),
		"'a' < 'b'":      BoolVal(true),
		"true and false": BoolVal(false),
		"true or false":  BoolVal(true),
		"not true":       BoolVal(false),
		"not (1 > 2)":    BoolVal(true),
		"true = false":   BoolVal(false),
		"1 = 'a'":        BoolVal(false), // cross-kind equality is false
		"500m + 0.5":     NumberVal(1),   // metres normalize to km
	}
	for src, want := range cases {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		got, err := ev.EvalExpr(e)
		if err != nil {
			t.Fatalf("eval %q: %v", src, err)
		}
		if got != want {
			t.Errorf("%q = %s, want %s", src, got, want)
		}
	}
}

func TestEvalSpatialOperators(t *testing.T) {
	env := newFakeEnv()
	env.paths["GeoMD.A.geometry"] = GeomVal(geom.Ln(geom.Pt(0, 0), geom.Pt(10, 0)))
	env.paths["GeoMD.B.geometry"] = GeomVal(geom.Ln(geom.Pt(5, -5), geom.Pt(5, 5)))
	env.paths["GeoMD.P.geometry"] = GeomVal(geom.Pt(5, 0))
	env.paths["GeoMD.Poly.geometry"] = GeomVal(geom.Poly(geom.Pt(-1, -1), geom.Pt(11, -1), geom.Pt(11, 1), geom.Pt(-1, 1)))
	ev := NewEvaluator(env)
	cases := map[string]Value{
		"Intersect(GeoMD.A.geometry, GeoMD.B.geometry)":    BoolVal(true),
		"Disjoint(GeoMD.A.geometry, GeoMD.B.geometry)":     BoolVal(false),
		"Cross(GeoMD.A.geometry, GeoMD.B.geometry)":        BoolVal(true),
		"Inside(GeoMD.P.geometry, GeoMD.A.geometry)":       BoolVal(true),
		"Inside(GeoMD.A.geometry, GeoMD.Poly.geometry)":    BoolVal(true),
		"Equals(GeoMD.A.geometry, GeoMD.A.geometry)":       BoolVal(true),
		"Equals(GeoMD.A.geometry, GeoMD.B.geometry)":       BoolVal(false),
		"Distance(GeoMD.P.geometry, GeoMD.B.geometry) = 0": BoolVal(true),
		"Distance(GeoMD.A.geometry) = 10":                  BoolVal(true), // unary = length
	}
	for src, want := range cases {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		got, err := ev.EvalExpr(e)
		if err != nil {
			t.Fatalf("eval %q: %v", src, err)
		}
		if got != want {
			t.Errorf("%q = %s, want %s", src, got, want)
		}
	}
	// Intersection returns a geometry value.
	e, _ := ParseExpr("Intersection(GeoMD.A.geometry, GeoMD.P.geometry)")
	v, err := ev.EvalExpr(e)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != KindGeom || v.Geom.Type() != geom.TypeCollection {
		t.Fatalf("Intersection = %s", v)
	}
}

func TestEvalErrors(t *testing.T) {
	env := newFakeEnv()
	env.paths["SUS.U.s"] = StringVal("x")
	ev := NewEvaluator(env)
	for _, src := range []string{
		"1 + 'a'",
		"1 / 0",
		"not 3",
		"-true",
		"'a' < 1",
		"true and 1",
		"1 or false",
		"unknownIdent",
		"SUS.U.ghost",
		"Distance('a', 'b')",
		"Intersect(SUS.U.s, SUS.U.s)",
	} {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := ev.EvalExpr(e); err == nil {
			t.Errorf("%q: expected evaluation error", src)
		}
	}
}

func TestEvalShortCircuit(t *testing.T) {
	env := newFakeEnv()
	ev := NewEvaluator(env)
	// The right operand references an unknown path; short-circuit must skip
	// its evaluation.
	e, _ := ParseExpr("false and SUS.U.ghost")
	if v, err := ev.EvalExpr(e); err != nil || v.Bool {
		t.Fatalf("and short-circuit: %v %v", v, err)
	}
	e, _ = ParseExpr("true or SUS.U.ghost")
	if v, err := ev.EvalExpr(e); err != nil || !v.Bool {
		t.Fatalf("or short-circuit: %v %v", v, err)
	}
}

func TestExecErrorsCarryRuleName(t *testing.T) {
	r, _ := ParseRule(`Rule:broken When SessionStart do
  If (SUS.U.ghost) then
    AddLayer('X', POINT)
  endIf
endWhen`)
	_, err := NewEvaluator(newFakeEnv()).Exec(r)
	if err == nil || !strings.Contains(err.Error(), "rule broken") {
		t.Fatalf("err = %v", err)
	}
}

func TestExecIfConditionMustBeBool(t *testing.T) {
	r, _ := ParseRule(`Rule:r When SessionStart do
  If (1 + 1) then
    AddLayer('X', POINT)
  endIf
endWhen`)
	_, err := NewEvaluator(newFakeEnv()).Exec(r)
	if err == nil || !strings.Contains(err.Error(), "want bool") {
		t.Fatalf("err = %v", err)
	}
}

func TestExecElseBranch(t *testing.T) {
	r, _ := ParseRule(`Rule:r When SessionStart do
  If (false) then
    AddLayer('A', POINT)
  else
    AddLayer('B', LINE)
  endIf
endWhen`)
	env := newFakeEnv()
	if _, err := NewEvaluator(env).Exec(r); err != nil {
		t.Fatal(err)
	}
	if len(env.schemaOps) != 1 || env.schemaOps[0] != "AddLayer(B,LINE)" {
		t.Fatalf("schemaOps = %v", env.schemaOps)
	}
}

func TestEvalInstanceShorthandGeometry(t *testing.T) {
	// Distance(s, ...) works when s is an instance: the evaluator coerces
	// instances to their geometry field.
	env := newFakeEnv()
	s := env.member("Store", "Store", 0, geom.Pt(3, 4))
	env.domains["GeoMD.Store"] = []Instance{s}
	env.paths["SUS.U.loc"] = GeomVal(geom.Pt(0, 0))
	r, _ := ParseRule(`Rule:r When SessionStart do
  Foreach s in (GeoMD.Store)
    If (Distance(s, SUS.U.loc) = 5) then
      SelectInstance(s)
    endIf
  endForeach
endWhen`)
	if _, err := NewEvaluator(env).Exec(r); err != nil {
		t.Fatal(err)
	}
	if len(env.selected) != 1 {
		t.Fatalf("selected = %v", env.selected)
	}
}

func TestValueHelpers(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{BoolVal(true), KindBool},
		{NumberVal(1), KindNumber},
		{StringVal("x"), KindString},
		{GeomVal(geom.Pt(0, 0)), KindGeom},
		{InstVal(Instance{Kind: InstFact, Fact: "Sales", Index: 2}), KindInstance},
	} {
		if tc.v.Kind != tc.kind {
			t.Errorf("kind = %v, want %v", tc.v.Kind, tc.kind)
		}
		if tc.v.String() == "" {
			t.Errorf("empty String for %v", tc.kind)
		}
	}
	// FromAny/ToAny round trip.
	for _, x := range []any{true, 3.5, "s", geom.Pt(1, 2), nil} {
		v, err := FromAny(x)
		if err != nil {
			t.Fatal(err)
		}
		back := v.ToAny()
		switch want := x.(type) {
		case geom.Geometry:
			if !geom.Equals(back.(geom.Geometry), want) {
				t.Errorf("geom round trip lost value")
			}
		default:
			if back != x {
				t.Errorf("round trip %v → %v", x, back)
			}
		}
	}
	if _, err := FromAny(struct{}{}); err == nil {
		t.Error("FromAny should reject unknown types")
	}
	if v, _ := FromAny(int32(4)); v.Num != 4 {
		t.Error("int32 conversion")
	}
	if got := (Instance{Kind: InstMember, Dimension: "D", Level: "L", Index: 1}).String(); got != "D.L[1]" {
		t.Errorf("member String = %q", got)
	}
	if got := (Instance{Kind: InstLayerObject, Layer: "A", Index: 0}).String(); got != "layer A[0]" {
		t.Errorf("layer String = %q", got)
	}
}

func BenchmarkEval5kmStores1000(b *testing.B) {
	r, err := ParseRule(rule5kmStores)
	if err != nil {
		b.Fatal(err)
	}
	env := newFakeEnv()
	insts := make([]Instance, 1000)
	for i := range insts {
		insts[i] = env.member("Store", "Store", int32(i), geom.Pt(float64(i%100), float64(i/100)))
	}
	env.domains["GeoMD.Store"] = insts
	env.paths["SUS.DecisionMaker.dm2session.s2location.geometry"] = GeomVal(geom.Pt(0, 0))
	ev := NewEvaluator(env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.selected = env.selected[:0]
		if _, err := ev.Exec(r); err != nil {
			b.Fatal(err)
		}
	}
}

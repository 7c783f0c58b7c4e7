package prml

import (
	"reflect"
	"testing"

	"sdwp/internal/geom"
)

func TestPureForeach(t *testing.T) {
	for _, tc := range []struct {
		body string
		want bool
	}{
		{`Foreach t, c, a in (GeoMD.Train, GeoMD.Store.City, GeoMD.Airport)
    If (Distance(Intersection(Intersection(t.geometry, c.geometry), a.geometry)) < 50km) then
      SelectInstance(c)
    endIf
  endForeach`, true},
		{`Foreach s in (GeoMD.Store)
    If (not (s.City.population > 1000 and -s.size < 2)) then
      SelectInstance(s)
    else
      If (s.name = 'x') then SelectInstance(s) endIf
    endIf
  endForeach`, true},
		{`Foreach s in (GeoMD.Store) SelectInstance(s) endForeach`, true},
		// Reads the user model.
		{`Foreach s in (GeoMD.Store)
    If (Distance(s.geometry, SUS.DecisionMaker.dm2session.s2location.geometry) < 5km) then
      SelectInstance(s)
    endIf
  endForeach`, false},
		// Reads the warehouse outside its own variables.
		{`Foreach s in (GeoMD.Store)
    If (Distance(s.geometry, GeoMD.Airport.geometry) < 5km) then SelectInstance(s) endIf
  endForeach`, false},
		// Reads a parameter.
		{`Foreach s in (GeoMD.Store)
    If (s.size > threshold) then SelectInstance(s) endIf
  endForeach`, false},
		// Selects something other than a bare loop variable.
		{`Foreach s in (GeoMD.Store) SelectInstance(s.City) endForeach`, false},
		// Acts on the session.
		{`Foreach s in (GeoMD.Store) AddLayer('Train', LINE) endForeach`, false},
		{`Foreach s in (GeoMD.Store) Foreach c in (GeoMD.Store.City) SelectInstance(c) endForeach endForeach`, false},
	} {
		r, err := ParseRule("Rule:r When SessionStart do\n  " + tc.body + "\nendWhen")
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if got := pure(r.Body[0].(*ForeachStmt)); got != tc.want {
			t.Errorf("pure = %v, want %v:\n%s", got, tc.want, tc.body)
		}
	}

	// A loop nested in another reads its own variables only when it does
	// not read the enclosing one.
	r, err := ParseRule(`Rule:r When SessionStart do
  Foreach c in (GeoMD.Store.City)
    Foreach s in (GeoMD.Store)
      If (s.City.name = c.name) then SelectInstance(s) endIf
    endForeach
    Foreach s in (GeoMD.Store)
      If (s.City.name = 'x') then SelectInstance(s) endIf
    endForeach
  endForeach
endWhen`)
	if err != nil {
		t.Fatal(err)
	}
	outer := r.Body[0].(*ForeachStmt)
	if pure(outer.Body[0].(*ForeachStmt)) || !pure(outer.Body[1].(*ForeachStmt)) {
		t.Fatal("an inner loop reading the enclosing variable must be impure, one that does not pure")
	}
}

// keyedEnv is a fakeEnv that names its loop data and counts the domains
// it enumerates.
type keyedEnv struct {
	*fakeEnv
	key      LoopKey
	iterates int
}

func (k *keyedEnv) LoopData([]*PathExpr) (LoopKey, bool) { return k.key, true }

func (k *keyedEnv) Iterate(p *PathExpr, fn func(Instance) error) error {
	k.iterates++
	return k.fakeEnv.Iterate(p, fn)
}

func TestPureForeachReplays(t *testing.T) {
	r, err := ParseRule(`Rule:near When SessionStart do
  Foreach s, c in (GeoMD.Store, GeoMD.Store.City)
    If (Distance(s.geometry, c.geometry) < 2) then
      SelectInstance(s)
    endIf
  endForeach
endWhen`)
	if err != nil {
		t.Fatal(err)
	}
	p := Compile(r, CompileOptions{})
	newEnv := func(gen uint64) *keyedEnv {
		env := &keyedEnv{fakeEnv: newFakeEnv(), key: LoopKey{Store: "warehouse", Gen: gen, Domains: []string{"Store", "City"}}}
		env.domains["GeoMD.Store"] = []Instance{
			env.member("Store", "Store", 0, geom.Pt(0, 0)),
			env.member("Store", "Store", 1, geom.Pt(5, 0)),
			env.member("Store", "Store", 2, geom.Pt(1, 0)),
		}
		env.domains["GeoMD.Store.City"] = []Instance{
			env.member("Store", "City", 0, geom.Pt(0, 1)),
			env.member("Store", "City", 1, geom.Pt(1, 1)),
		}
		return env
	}
	run := func(env *keyedEnv) Stats {
		t.Helper()
		st, err := NewEvaluator(env).ExecPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	first := newEnv(1)
	want := run(first)
	if first.iterates == 0 || want.InstancesSel != 4 || want.LoopIterations != 6 {
		t.Fatalf("first run: %d domains enumerated, stats %+v", first.iterates, want)
	}
	second := newEnv(1)
	if st := run(second); st != want || second.iterates != 0 || !reflect.DeepEqual(second.selected, first.selected) {
		t.Fatalf("replay: %d domains enumerated, stats %+v selected %v; want 0, %+v, %v",
			second.iterates, st, second.selected, want, first.selected)
	}

	// A new generation runs the loop again; a failed run is not recorded.
	moved := newEnv(2)
	moved.fields["Store.Store[1]"]["geometry"] = GeomVal(geom.Pt(0, 2))
	if st := run(moved); moved.iterates == 0 || st.InstancesSel != 6 {
		t.Fatalf("new generation: %d domains enumerated, stats %+v", moved.iterates, st)
	}
	broken := newEnv(3)
	delete(broken.fields["Store.Store[2]"], "geometry")
	if _, err := NewEvaluator(broken).ExecPlan(p); err == nil {
		t.Fatal("a store without geometry should fail the loop")
	}
	again := newEnv(3)
	if run(again); again.iterates == 0 {
		t.Fatal("a failed run was replayed")
	}
}

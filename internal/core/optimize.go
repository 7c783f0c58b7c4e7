package core

import (
	"sdwp/internal/geom"
	"sdwp/internal/prml"
)

// This file implements the engine's rule-plan optimizer: the paper's
// hottest rule idiom,
//
//	Foreach v in (GeoMD.<Level>)
//	  If (Distance(v.geometry, <v-free geometry expr>) < <r>) then
//	    SelectInstance(v)
//	  endIf
//	endForeach
//
// (Example 5.2's 5kmStores, the logistics example's reachableStores, ...)
// is executed as a radius query through the cube's spatial access paths —
// an R-tree candidate sweep for point levels — instead of interpreting the
// loop body once per member. The shape is matched once per rule, when
// AddRules compiles it (prml.CompileOptions.Native); sessions run the
// matched plan. The ablation benchmark BenchmarkAblationRuleOptimizer
// measures the difference; Options.DisableRuleOptimizer turns the
// optimizer off.
//
// The optimizer is semantics-preserving: it bails out (handled=false) for
// any shape it does not fully recognize, it re-applies the strict `<`
// comparison on the exact geodetic distance of each index candidate, and it
// only runs in geodetic mode (the planar ablation mode uses the generic
// interpreter, whose Distance is planar).

// radiusSelectNative is the engine's prml.CompileOptions.Native planner:
// it matches the idiom once, when a rule is compiled, and returns the
// native plan (nil when the Foreach has another shape).
func radiusSelectNative(f *prml.ForeachStmt) (prml.NativeForeach, prml.Expr) {
	plan, ok := matchRadiusSelect(f)
	if !ok {
		return nil, nil
	}
	return func(env prml.Env, ref func() (prml.Value, error)) (bool, int, error) {
		se, ok := env.(*sessionEnv)
		if !ok {
			return false, 0, nil
		}
		return se.runRadiusSelect(plan, ref)
	}, plan.refExpr
}

// runRadiusSelect executes a matched radius selection; evalRef evaluates
// the plan's reference expression in the enclosing scope.
func (env *sessionEnv) runRadiusSelect(plan radiusSelectPlan, evalRef func() (prml.Value, error)) (bool, int, error) {
	elem, rest, err := env.resolveElem(plan.source)
	if err != nil || len(rest) != 0 || elem.kind != elemLevel {
		return false, 0, nil
	}
	ld := env.s.engine.cube.Dimension(elem.dim).Level(elem.level)
	if ld == nil {
		return false, 0, nil
	}
	// The reference geometry must be loop-variable-free (checked by the
	// matcher) and must evaluate to a geometry in the enclosing scope.
	refVal, err := evalRef()
	if err != nil {
		return false, 0, nil // let the interpreter surface the error
	}
	var ref geom.Geometry
	switch refVal.Kind {
	case prml.KindGeom:
		ref = refVal.Geom
	default:
		return false, 0, nil
	}
	if ref == nil || ref.IsEmpty() {
		return false, 0, nil
	}
	// Members without geometry make the generic path error; bail out so the
	// behaviour (the error) is identical.
	for i := int32(0); int(i) < ld.Len(); i++ {
		if ld.Geometry(i) == nil {
			return false, 0, nil
		}
	}

	n := 0
	var selErr error
	err = env.s.engine.cube.MembersWithinKm(elem.dim, elem.level, ref, plan.radiusKm,
		func(member int32) bool {
			// Strict `<` on the exact distance (the index uses ≤).
			g := ld.Geometry(member)
			if geom.GeodeticDistance(g, ref) >= plan.radiusKm {
				return true
			}
			inst := prml.Instance{Kind: prml.InstMember, Dimension: elem.dim,
				Level: elem.level, Index: member}
			if selErr = env.SelectInstance(prml.InstVal(inst)); selErr != nil {
				return false
			}
			n++
			return true
		})
	if err != nil {
		return false, 0, nil
	}
	if selErr != nil {
		return true, n, selErr
	}
	return true, n, nil
}

// radiusSelectPlan is the recognized shape.
type radiusSelectPlan struct {
	source   *prml.PathExpr
	refExpr  prml.Expr
	radiusKm float64
}

// matchRadiusSelect recognizes the idiom described above.
func matchRadiusSelect(f *prml.ForeachStmt) (radiusSelectPlan, bool) {
	var none radiusSelectPlan
	if len(f.Vars) != 1 || len(f.Sources) != 1 || len(f.Body) != 1 {
		return none, false
	}
	v := f.Vars[0]
	src := f.Sources[0]
	if src.Root != prml.RootGeoMD {
		return none, false
	}
	ifStmt, ok := f.Body[0].(*prml.IfStmt)
	if !ok || len(ifStmt.Else) != 0 || len(ifStmt.Then) != 1 {
		return none, false
	}
	sel, ok := ifStmt.Then[0].(*prml.SelectInstanceStmt)
	if !ok {
		return none, false
	}
	selPath, ok := sel.Target.(*prml.PathExpr)
	if !ok || selPath.Root != v || len(selPath.Segs) != 0 {
		return none, false
	}
	cmp, ok := ifStmt.Cond.(*prml.BinaryExpr)
	if !ok || cmp.Op != prml.OpLt {
		return none, false
	}
	lit, ok := cmp.R.(*prml.NumberLit)
	if !ok || lit.Value <= 0 {
		return none, false
	}
	call, ok := cmp.L.(*prml.CallExpr)
	if !ok || call.Op != prml.SpDistance || len(call.Args) != 2 {
		return none, false
	}
	// One argument must be v.geometry (or bare v), the other v-free.
	isVarGeom := func(e prml.Expr) bool {
		p, ok := e.(*prml.PathExpr)
		if !ok || p.Root != v {
			return false
		}
		return len(p.Segs) == 0 || (len(p.Segs) == 1 && p.Segs[0] == "geometry")
	}
	var refExpr prml.Expr
	switch {
	case isVarGeom(call.Args[0]) && exprFreeOf(call.Args[1], v):
		refExpr = call.Args[1]
	case isVarGeom(call.Args[1]) && exprFreeOf(call.Args[0], v):
		refExpr = call.Args[0]
	default:
		return none, false
	}
	return radiusSelectPlan{source: src, refExpr: refExpr, radiusKm: lit.Value}, true
}

// exprFreeOf reports whether the expression never references the variable.
func exprFreeOf(e prml.Expr, v string) bool {
	switch ex := e.(type) {
	case nil:
		return true
	case *prml.NumberLit, *prml.StringLit, *prml.BoolLit:
		return true
	case *prml.PathExpr:
		return ex.Root != v
	case *prml.UnaryExpr:
		return exprFreeOf(ex.X, v)
	case *prml.BinaryExpr:
		return exprFreeOf(ex.L, v) && exprFreeOf(ex.R, v)
	case *prml.CallExpr:
		for _, a := range ex.Args {
			if !exprFreeOf(a, v) {
				return false
			}
		}
		return true
	}
	return false
}

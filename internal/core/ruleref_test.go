package core

import (
	"fmt"

	"sdwp/internal/geom"
	"sdwp/internal/prml"
)

// refEvaluator is the tree-walking PRML interpreter the compiled rule plans
// replaced, kept here as their differential reference: a fresh scope map
// per loop iteration, every sub-expression re-evaluated where it appears,
// every iteration domain re-resolved on entry, and the radius-query
// optimizer matched per execution. It mirrors prml.Evaluator's semantics
// exactly — values, statistics and error texts.
type refEvaluator struct {
	env *sessionEnv
	// native enables the radius-query optimizer (off for planar and
	// DisableRuleOptimizer engines).
	native bool
}

func newRefEvaluator(env *sessionEnv) *refEvaluator {
	o := env.s.engine.opts
	return &refEvaluator{env: env, native: !o.Planar && !o.DisableRuleOptimizer}
}

type refScope map[string]prml.Value

func (s refScope) child() refScope {
	c := make(refScope, len(s)+2)
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (ev *refEvaluator) Exec(r *prml.Rule) (prml.Stats, error) {
	var st prml.Stats
	err := ev.execStmts(r.Body, refScope{}, &st)
	if err != nil {
		return st, fmt.Errorf("rule %s: %w", r.Name, err)
	}
	return st, nil
}

func (ev *refEvaluator) EvalEventCond(cond prml.Expr) (bool, error) {
	v, err := ev.evalExpr(cond, refScope{})
	if err != nil {
		return false, err
	}
	if v.Kind != prml.KindBool {
		return false, fmt.Errorf("prml: event condition is %s, want bool", v.Kind)
	}
	return v.Bool, nil
}

func (ev *refEvaluator) EvalExpr(e prml.Expr) (prml.Value, error) {
	return ev.evalExpr(e, refScope{})
}

func (ev *refEvaluator) execStmts(body []prml.Stmt, sc refScope, st *prml.Stats) error {
	for _, s := range body {
		if err := ev.execStmt(s, sc, st); err != nil {
			return err
		}
	}
	return nil
}

func (ev *refEvaluator) execStmt(s prml.Stmt, sc refScope, st *prml.Stats) error {
	switch stmt := s.(type) {
	case *prml.IfStmt:
		v, err := ev.evalExpr(stmt.Cond, sc)
		if err != nil {
			return err
		}
		if v.Kind != prml.KindBool {
			return fmt.Errorf("prml: %s: If condition is %s, want bool", stmt.Pos, v.Kind)
		}
		if v.Bool {
			return ev.execStmts(stmt.Then, sc, st)
		}
		return ev.execStmts(stmt.Else, sc, st)

	case *prml.ForeachStmt:
		if plan, ok := matchRadiusSelect(stmt); ok && ev.native {
			handled, n, err := ev.env.runRadiusSelect(plan, func() (prml.Value, error) {
				return ev.evalExpr(plan.refExpr, sc)
			})
			if err != nil {
				return err
			}
			if handled {
				st.LoopIterations += n
				st.ActionsRun += n
				st.InstancesSel += n
				return nil
			}
		}
		return ev.execForeach(stmt, sc, st, 0)

	case *prml.SetContentStmt:
		v, err := ev.evalExpr(stmt.Value, sc)
		if err != nil {
			return err
		}
		if err := ev.env.SetContent(stmt.Target, v); err != nil {
			return fmt.Errorf("prml: %s: %w", stmt.Pos, err)
		}
		st.ActionsRun++
		st.ContentUpdates++
		return nil

	case *prml.SelectInstanceStmt:
		v, err := ev.evalExpr(stmt.Target, sc)
		if err != nil {
			return err
		}
		if err := ev.env.SelectInstance(v); err != nil {
			return fmt.Errorf("prml: %s: %w", stmt.Pos, err)
		}
		st.ActionsRun++
		st.InstancesSel++
		return nil

	case *prml.BecomeSpatialStmt:
		if err := ev.env.BecomeSpatial(stmt.Target, stmt.Geom); err != nil {
			return fmt.Errorf("prml: %s: %w", stmt.Pos, err)
		}
		st.ActionsRun++
		st.SchemaActions++
		return nil

	case *prml.AddLayerStmt:
		if err := ev.env.AddLayer(stmt.Layer, stmt.Geom); err != nil {
			return fmt.Errorf("prml: %s: %w", stmt.Pos, err)
		}
		st.ActionsRun++
		st.SchemaActions++
		return nil
	}
	return fmt.Errorf("prml: unknown statement %T", s)
}

// execForeach iterates the cartesian product of the statement's sources,
// binding one variable per source.
func (ev *refEvaluator) execForeach(f *prml.ForeachStmt, sc refScope, st *prml.Stats, depth int) error {
	if depth == len(f.Vars) {
		st.LoopIterations++
		return ev.execStmts(f.Body, sc, st)
	}
	return ev.env.Iterate(f.Sources[depth], func(inst prml.Instance) error {
		inner := sc.child()
		inner[f.Vars[depth]] = prml.InstVal(inst)
		return ev.execForeach(f, inner, st, depth+1)
	})
}

func (ev *refEvaluator) evalExpr(e prml.Expr, sc refScope) (prml.Value, error) {
	switch ex := e.(type) {
	case *prml.NumberLit:
		return prml.NumberVal(ex.Value), nil
	case *prml.StringLit:
		return prml.StringVal(ex.Value), nil
	case *prml.BoolLit:
		return prml.BoolVal(ex.Value), nil
	case *prml.PathExpr:
		return ev.evalPath(ex, sc)
	case *prml.UnaryExpr:
		v, err := ev.evalExpr(ex.X, sc)
		if err != nil {
			return prml.Value{}, err
		}
		switch ex.Op {
		case prml.OpNot:
			if v.Kind != prml.KindBool {
				return prml.Value{}, fmt.Errorf("prml: %s: not applied to %s", ex.Pos, v.Kind)
			}
			return prml.BoolVal(!v.Bool), nil
		case prml.OpNeg:
			if v.Kind != prml.KindNumber {
				return prml.Value{}, fmt.Errorf("prml: %s: unary minus applied to %s", ex.Pos, v.Kind)
			}
			return prml.NumberVal(-v.Num), nil
		}
		return prml.Value{}, fmt.Errorf("prml: %s: unknown unary operator", ex.Pos)
	case *prml.BinaryExpr:
		return ev.evalBinary(ex, sc)
	case *prml.CallExpr:
		return ev.evalCall(ex, sc)
	}
	return prml.Value{}, fmt.Errorf("prml: unknown expression %T", e)
}

func (ev *refEvaluator) evalPath(p *prml.PathExpr, sc refScope) (prml.Value, error) {
	if p.IsModelPath() {
		return ev.env.ResolvePath(p)
	}
	if v, ok := sc[p.Root]; ok {
		if len(p.Segs) == 0 {
			return v, nil
		}
		if v.Kind != prml.KindInstance {
			return prml.Value{}, fmt.Errorf("prml: %s: cannot navigate %s from %s value",
				p.Pos, p.Segs[0], v.Kind)
		}
		return ev.env.Field(v.Inst, p.Segs)
	}
	if v, ok := ev.env.Param(p.Root); ok && len(p.Segs) == 0 {
		return v, nil
	}
	return prml.Value{}, fmt.Errorf("prml: %s: unknown identifier %q", p.Pos, p.Root)
}

func (ev *refEvaluator) evalBinary(b *prml.BinaryExpr, sc refScope) (prml.Value, error) {
	if b.Op == prml.OpAnd || b.Op == prml.OpOr {
		l, err := ev.evalExpr(b.L, sc)
		if err != nil {
			return prml.Value{}, err
		}
		if l.Kind != prml.KindBool {
			return prml.Value{}, fmt.Errorf("prml: %s: %s applied to %s", b.Pos, b.Op, l.Kind)
		}
		if b.Op == prml.OpAnd && !l.Bool {
			return prml.BoolVal(false), nil
		}
		if b.Op == prml.OpOr && l.Bool {
			return prml.BoolVal(true), nil
		}
		r, err := ev.evalExpr(b.R, sc)
		if err != nil {
			return prml.Value{}, err
		}
		if r.Kind != prml.KindBool {
			return prml.Value{}, fmt.Errorf("prml: %s: %s applied to %s", b.Pos, b.Op, r.Kind)
		}
		return prml.BoolVal(r.Bool), nil
	}

	l, err := ev.evalExpr(b.L, sc)
	if err != nil {
		return prml.Value{}, err
	}
	r, err := ev.evalExpr(b.R, sc)
	if err != nil {
		return prml.Value{}, err
	}

	switch b.Op {
	case prml.OpAdd, prml.OpSub, prml.OpMul, prml.OpDiv:
		if l.Kind != prml.KindNumber || r.Kind != prml.KindNumber {
			return prml.Value{}, fmt.Errorf("prml: %s: arithmetic on %s and %s", b.Pos, l.Kind, r.Kind)
		}
		switch b.Op {
		case prml.OpAdd:
			return prml.NumberVal(l.Num + r.Num), nil
		case prml.OpSub:
			return prml.NumberVal(l.Num - r.Num), nil
		case prml.OpMul:
			return prml.NumberVal(l.Num * r.Num), nil
		case prml.OpDiv:
			if r.Num == 0 {
				return prml.Value{}, fmt.Errorf("prml: %s: division by zero", b.Pos)
			}
			return prml.NumberVal(l.Num / r.Num), nil
		}
	case prml.OpEq, prml.OpNe:
		eq, err := refValuesEqual(l, r)
		if err != nil {
			return prml.Value{}, fmt.Errorf("prml: %s: %w", b.Pos, err)
		}
		if b.Op == prml.OpNe {
			eq = !eq
		}
		return prml.BoolVal(eq), nil
	case prml.OpLt, prml.OpLe, prml.OpGt, prml.OpGe:
		var cmp float64
		switch {
		case l.Kind == prml.KindNumber && r.Kind == prml.KindNumber:
			cmp = l.Num - r.Num
		case l.Kind == prml.KindString && r.Kind == prml.KindString:
			switch {
			case l.Str < r.Str:
				cmp = -1
			case l.Str > r.Str:
				cmp = 1
			}
		default:
			return prml.Value{}, fmt.Errorf("prml: %s: cannot order %s and %s", b.Pos, l.Kind, r.Kind)
		}
		switch b.Op {
		case prml.OpLt:
			return prml.BoolVal(cmp < 0), nil
		case prml.OpLe:
			return prml.BoolVal(cmp <= 0), nil
		case prml.OpGt:
			return prml.BoolVal(cmp > 0), nil
		case prml.OpGe:
			return prml.BoolVal(cmp >= 0), nil
		}
	}
	return prml.Value{}, fmt.Errorf("prml: %s: unknown binary operator", b.Pos)
}

func refValuesEqual(l, r prml.Value) (bool, error) {
	if l.Kind == prml.KindNull || r.Kind == prml.KindNull {
		return l.Kind == r.Kind, nil
	}
	if l.Kind != r.Kind {
		return false, nil
	}
	switch l.Kind {
	case prml.KindBool:
		return l.Bool == r.Bool, nil
	case prml.KindNumber:
		return l.Num == r.Num, nil
	case prml.KindString:
		return l.Str == r.Str, nil
	case prml.KindGeom:
		return geom.Equals(l.Geom, r.Geom), nil
	case prml.KindInstance:
		return l.Inst == r.Inst, nil
	}
	return false, fmt.Errorf("cannot compare %s values", l.Kind)
}

func (ev *refEvaluator) toGeometry(v prml.Value, pos prml.Pos) (geom.Geometry, error) {
	switch v.Kind {
	case prml.KindGeom:
		return v.Geom, nil
	case prml.KindInstance:
		f, err := ev.env.Field(v.Inst, []string{"geometry"})
		if err != nil {
			return nil, err
		}
		if f.Kind != prml.KindGeom {
			return nil, fmt.Errorf("prml: %s: instance %s has no geometry", pos, v.Inst)
		}
		return f.Geom, nil
	case prml.KindNull:
		return nil, nil
	}
	return nil, fmt.Errorf("prml: %s: expected geometry, got %s", pos, v.Kind)
}

// refSpatialArity is the evaluator's operator arity table.
var refSpatialArity = map[prml.SpatialOp][2]int{
	prml.SpIntersect:    {2, 2},
	prml.SpDisjoint:     {2, 2},
	prml.SpCross:        {2, 2},
	prml.SpInside:       {2, 2},
	prml.SpEquals:       {2, 2},
	prml.SpDistance:     {1, 2},
	prml.SpIntersection: {2, 2},
}

func (ev *refEvaluator) evalCall(c *prml.CallExpr, sc refScope) (prml.Value, error) {
	args := make([]prml.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := ev.evalExpr(a, sc)
		if err != nil {
			return prml.Value{}, err
		}
		args[i] = v
	}
	ar := refSpatialArity[c.Op]
	if len(args) < ar[0] || len(args) > ar[1] {
		return prml.Value{}, fmt.Errorf("prml: %s: %s expects %d..%d arguments, got %d",
			c.Pos, c.Op, ar[0], ar[1], len(args))
	}

	if c.Op == prml.SpDistance && len(args) == 1 {
		g, err := ev.toGeometry(args[0], c.Pos)
		if err != nil {
			return prml.Value{}, err
		}
		return prml.NumberVal(ev.env.LengthKm(g)), nil
	}

	ga, err := ev.toGeometry(args[0], c.Pos)
	if err != nil {
		return prml.Value{}, err
	}
	gb, err := ev.toGeometry(args[1], c.Pos)
	if err != nil {
		return prml.Value{}, err
	}

	switch c.Op {
	case prml.SpDistance:
		return prml.NumberVal(ev.env.DistanceKm(ga, gb)), nil
	case prml.SpIntersect:
		return prml.BoolVal(geom.Intersects(ga, gb)), nil
	case prml.SpDisjoint:
		return prml.BoolVal(geom.Disjoint(ga, gb)), nil
	case prml.SpCross:
		return prml.BoolVal(geom.Crosses(ga, gb)), nil
	case prml.SpInside:
		return prml.BoolVal(geom.Within(ga, gb)), nil
	case prml.SpEquals:
		return prml.BoolVal(geom.Equals(ga, gb)), nil
	case prml.SpIntersection:
		return prml.GeomVal(geom.Intersection(ga, gb)), nil
	}
	return prml.Value{}, fmt.Errorf("prml: %s: unknown spatial operator", c.Pos)
}

// refExec is Session.exec driven by the reference interpreter: one rule
// run, its selections published.
func refExec(s *Session, r *prml.Rule) (prml.Stats, error) {
	env := &sessionEnv{s: s}
	defer env.publish()
	return newRefEvaluator(env).Exec(r)
}

// refSpatialSelect is Session.SpatialSelect driven by the reference
// interpreter: the predicate re-evaluated per instance, the tracking rules
// re-classified from the rule list.
func refSpatialSelect(s *Session, target, predicate string) (*SelectionResult, error) {
	targetPath, err := parseTargetPath(target)
	if err != nil {
		return nil, err
	}
	pred, err := prml.ParseExpr(predicate)
	if err != nil {
		return nil, err
	}
	env := &sessionEnv{s: s}
	ev := newRefEvaluator(env)
	res := &SelectionResult{}
	err = env.Iterate(targetPath, func(inst prml.Instance) error {
		env.bind(targetPath, inst)
		v, err := ev.EvalExpr(pred)
		env.unbind()
		if err != nil {
			return err
		}
		if v.Kind != prml.KindBool {
			return fmt.Errorf("core: selection predicate is %s, want bool", v.Kind)
		}
		if v.Bool {
			if err := env.SelectInstance(prml.InstVal(inst)); err != nil {
				return err
			}
			res.Selected = append(res.Selected, inst)
		}
		return nil
	})
	env.publish()
	if err != nil {
		return nil, err
	}
	if len(res.Selected) == 0 {
		return res, nil
	}
	for _, r := range s.engine.Rules() {
		if prml.Classify(r) != prml.RuleTracking {
			continue
		}
		if r.Event.Target == nil || r.Event.Target.String() != targetPath.String() {
			continue
		}
		fired := false
		for _, inst := range res.Selected {
			env.bind(r.Event.Target, inst)
			ok, err := ev.EvalEventCond(r.Event.Cond)
			env.unbind()
			if err != nil {
				return nil, fmt.Errorf("core: event condition of rule %s: %w", r.Name, err)
			}
			if ok {
				fired = true
				break
			}
		}
		if !fired {
			continue
		}
		if _, err := refExec(s, r); err != nil {
			return nil, err
		}
		res.RulesFired = append(res.RulesFired, r.Name)
	}
	return res, nil
}

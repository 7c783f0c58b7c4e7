package prml

import (
	"fmt"

	"sdwp/internal/geom"
)

// Evaluator executes compiled rule plans (see plan.go) against an Env. It
// is stateless between calls and safe to reuse; per-execution statistics
// are returned by Exec and ExecPlan.
type Evaluator struct {
	env Env
}

// NewEvaluator returns an evaluator bound to env.
func NewEvaluator(env Env) *Evaluator { return &Evaluator{env: env} }

// Stats reports what one rule execution did.
type Stats struct {
	ActionsRun     int // total personalization actions performed
	InstancesSel   int // SelectInstance calls
	SchemaActions  int // BecomeSpatial + AddLayer calls
	ContentUpdates int // SetContent calls
	LoopIterations int // Foreach body executions
}

// Exec compiles the rule body and runs it (the caller decides whether the
// event matches). Callers that run a rule repeatedly compile it once with
// Compile and call ExecPlan.
func (ev *Evaluator) Exec(r *Rule) (Stats, error) {
	return ev.ExecPlan(Compile(r, CompileOptions{}))
}

// ExecPlan runs a compiled rule body.
func (ev *Evaluator) ExecPlan(p *Plan) (Stats, error) {
	var st Stats
	fr := newFrame(ev.env, p.frame, &st)
	if err := execStmts(p.body, fr); err != nil {
		return st, fmt.Errorf("rule %s: %w", p.Rule.Name, err)
	}
	return st, nil
}

// EventCond evaluates a SpatialSelection rule's compiled event condition.
// The engine binds the selected instance in the Env before calling it.
func (ev *Evaluator) EventCond(p *Plan) (bool, error) {
	if p.cond == nil {
		return false, fmt.Errorf("prml: rule %s has no event condition", p.Rule.Name)
	}
	return ev.evalCond(p.cond, Value{})
}

// EvalEventCond evaluates a SpatialSelection event condition with the event
// target bound as the variable named by bindVar (the engine binds each
// selected instance in turn to decide whether the rule fires).
func (ev *Evaluator) EvalEventCond(cond Expr, bindVar string, inst Instance) (bool, error) {
	var vars []string
	if bindVar != "" {
		vars = []string{bindVar}
	}
	return ev.evalCond(CompileExpr(cond, vars...), InstVal(inst))
}

func (ev *Evaluator) evalCond(x *ExprPlan, bound Value) (bool, error) {
	v, err := ev.evalWith(x, bound)
	if err != nil {
		return false, err
	}
	if v.Kind != KindBool {
		return false, fmt.Errorf("prml: event condition is %s, want bool", v.Kind)
	}
	return v.Bool, nil
}

// EvalExpr evaluates a standalone expression with no bound variables (used
// by the web API for ad-hoc predicates).
func (ev *Evaluator) EvalExpr(e Expr) (Value, error) {
	return ev.EvalPlan(CompileExpr(e))
}

// EvalExprWith evaluates an expression with one bound variable.
func (ev *Evaluator) EvalExprWith(e Expr, varName string, val Value) (Value, error) {
	return ev.evalWith(CompileExpr(e, varName), val)
}

// EvalPlan evaluates an expression compiled without variables — the form a
// caller evaluating one predicate many times (once per candidate instance)
// compiles once.
func (ev *Evaluator) EvalPlan(x *ExprPlan) (Value, error) {
	return ev.evalWith(x, Value{})
}

// evalWith evaluates x with its variable (if it declares one) bound to val.
func (ev *Evaluator) evalWith(x *ExprPlan, val Value) (Value, error) {
	fr := newFrame(ev.env, x.frame, nil)
	if x.frame.slots > 1 {
		fr.vars[1] = val
		fr.stamp[1] = fr.tick()
	}
	v, err := x.eval(fr)
	if err != nil {
		return Value{}, err
	}
	return *v, nil
}

func execStmts(body []cstmt, fr *frame) error {
	for _, s := range body {
		if err := s(fr); err != nil {
			return err
		}
	}
	return nil
}

// The runtime half of the compiled expressions (plan.go builds them).

func valuesEqual(l, r *Value) (bool, error) {
	if l.Kind == KindNull || r.Kind == KindNull {
		return l.Kind == r.Kind, nil
	}
	if l.Kind != r.Kind {
		return false, nil
	}
	switch l.Kind {
	case KindBool:
		return l.Bool == r.Bool, nil
	case KindNumber:
		return l.Num == r.Num, nil
	case KindString:
		return l.Str == r.Str, nil
	case KindGeom:
		return geom.Equals(l.Geom, r.Geom), nil
	case KindInstance:
		return l.Inst == r.Inst, nil
	}
	return false, fmt.Errorf("cannot compare %s values", l.Kind)
}

// geometrySeg is the field path instance-to-geometry coercion resolves.
var geometrySeg = []string{"geometry"}

// toGeometry coerces a value to a geometry: geometry values pass through;
// instance values resolve their "geometry" field via the Env (so rules may
// write Distance(s, ...) as shorthand for Distance(s.geometry, ...)).
func toGeometry(env Env, v *Value, pos Pos) (geom.Geometry, error) {
	switch v.Kind {
	case KindGeom:
		return v.Geom, nil
	case KindInstance:
		f, err := env.Field(v.Inst, geometrySeg)
		if err != nil {
			return nil, err
		}
		if f.Kind != KindGeom {
			return nil, fmt.Errorf("prml: %s: instance %s has no geometry", pos, v.Inst)
		}
		return f.Geom, nil
	case KindNull:
		return nil, nil
	}
	return nil, fmt.Errorf("prml: %s: expected geometry, got %s", pos, v.Kind)
}

// emptyCollection is the Intersection of disjoint operands, boxed once: a
// rule loop that intersects mostly-disjoint geometries (Example 5.3's
// train × city × airport product) would otherwise allocate per iteration
// to box the same empty value.
var emptyCollection geom.Geometry = geom.Collection{}

// binaryOp applies a non-logical binary operator; numeric results are
// written to out.
func binaryOp(b *BinaryExpr, l, r, out *Value) (*Value, error) {
	switch b.Op {
	case OpAdd, OpSub, OpMul, OpDiv:
		if l.Kind != KindNumber || r.Kind != KindNumber {
			return nil, fmt.Errorf("prml: %s: arithmetic on %s and %s", b.Pos, l.Kind, r.Kind)
		}
		switch b.Op {
		case OpAdd:
			*out = NumberVal(l.Num + r.Num)
			return out, nil
		case OpSub:
			*out = NumberVal(l.Num - r.Num)
			return out, nil
		case OpMul:
			*out = NumberVal(l.Num * r.Num)
			return out, nil
		case OpDiv:
			if r.Num == 0 {
				return nil, fmt.Errorf("prml: %s: division by zero", b.Pos)
			}
			*out = NumberVal(l.Num / r.Num)
			return out, nil
		}
	case OpEq, OpNe:
		eq, err := valuesEqual(l, r)
		if err != nil {
			return nil, fmt.Errorf("prml: %s: %w", b.Pos, err)
		}
		if b.Op == OpNe {
			eq = !eq
		}
		return boolPtr(eq), nil
	case OpLt, OpLe, OpGt, OpGe:
		var cmp float64
		switch {
		case l.Kind == KindNumber && r.Kind == KindNumber:
			cmp = l.Num - r.Num
		case l.Kind == KindString && r.Kind == KindString:
			switch {
			case l.Str < r.Str:
				cmp = -1
			case l.Str > r.Str:
				cmp = 1
			}
		default:
			return nil, fmt.Errorf("prml: %s: cannot order %s and %s", b.Pos, l.Kind, r.Kind)
		}
		switch b.Op {
		case OpLt:
			return boolPtr(cmp < 0), nil
		case OpLe:
			return boolPtr(cmp <= 0), nil
		case OpGt:
			return boolPtr(cmp > 0), nil
		case OpGe:
			return boolPtr(cmp >= 0), nil
		}
	}
	return nil, fmt.Errorf("prml: %s: unknown binary operator", b.Pos)
}

// callOp applies a spatial operator to its evaluated arguments (n of them;
// only the first two are kept — arity admits at most two). Numeric and
// geometric results are written to out.
func callOp(env Env, c *CallExpr, args *[2]*Value, n int, out *Value) (*Value, error) {
	ar := spatialArity[c.Op]
	if n < ar[0] || n > ar[1] {
		return nil, fmt.Errorf("prml: %s: %s expects %d..%d arguments, got %d",
			c.Pos, c.Op, ar[0], ar[1], n)
	}
	if n == 0 {
		return nil, fmt.Errorf("prml: %s: unknown spatial operator", c.Pos)
	}

	// Unary Distance: the length of the "corresponding segment".
	if c.Op == SpDistance && n == 1 {
		g, err := toGeometry(env, args[0], c.Pos)
		if err != nil {
			return nil, err
		}
		*out = NumberVal(env.LengthKm(g))
		return out, nil
	}

	ga, err := toGeometry(env, args[0], c.Pos)
	if err != nil {
		return nil, err
	}
	gb, err := toGeometry(env, args[1], c.Pos)
	if err != nil {
		return nil, err
	}

	switch c.Op {
	case SpDistance:
		*out = NumberVal(env.DistanceKm(ga, gb))
		return out, nil
	case SpIntersect:
		return boolPtr(geom.Intersects(ga, gb)), nil
	case SpDisjoint:
		return boolPtr(geom.Disjoint(ga, gb)), nil
	case SpCross:
		return boolPtr(geom.Crosses(ga, gb)), nil
	case SpInside:
		return boolPtr(geom.Within(ga, gb)), nil
	case SpEquals:
		return boolPtr(geom.Equals(ga, gb)), nil
	case SpIntersection:
		if g := geom.Intersection(ga, gb); g.Geoms != nil {
			*out = GeomVal(g)
		} else {
			*out = GeomVal(emptyCollection)
		}
		return out, nil
	}
	return nil, fmt.Errorf("prml: %s: unknown spatial operator", c.Pos)
}

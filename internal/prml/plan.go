package prml

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// This file compiles rules into plans: the executable form the Evaluator
// runs. A rule is compiled once, when it is registered; every session that
// fires it then runs the plan instead of re-walking the AST.
//
//   - Loop variables are resolved lexically to frame slots: the body reads
//     fr.vars[slot] instead of looking a name up in a per-iteration map.
//   - Every sub-expression is hoisted to the shallowest loop depth where all
//     of its variables are bound, and evaluated at most once per binding of
//     that depth: in Example 5.3's Foreach t, c, a,
//     Intersection(t.geometry, c.geometry) is computed once per (t, c)
//     pair, not once per airport. A hoisted value is computed on its first
//     use after its binding changes, so a loop whose inner domain is empty
//     evaluates (and errors) exactly as the naive interpretation would.
//   - Model paths (SUS., MD., GeoMD.) read session state, which the body's
//     own SetContent/BecomeSpatial/AddLayer actions may change; they hoist
//     no further out than the deepest loop whose body performs such an
//     action.
//   - A Foreach resolves its inner iteration domains once per execution of
//     the statement (the schema lookups behind them run once, not once per
//     outer binding) unless its body performs schema or content actions.
//   - A Foreach the CompileOptions.Native planner recognizes (the engine's
//     radius-query plan) is matched here, once per rule, and run natively.
//   - A pure Foreach — its body only If and SelectInstance, every
//     expression reading only literals and fields of the statement's own
//     variables (no model path, parameter or enclosing variable), every
//     SelectInstance a bare loop variable — selects the same instances in
//     every session that sees the same warehouse data. Purity is decided
//     here; at run time the Env names that data (Env.LoopData: the resolved
//     sources and the warehouse's data generation). The first execution
//     under a key records its selections and iteration count; later
//     executions under an equal key, in any session, replay the selections
//     in order through Env.SelectInstance and add the recorded statistics,
//     so views, Stats and error texts match a run of the loop. The memo is
//     stored only after a run without error, and the key is read before
//     the run: data that changes mid-run leaves a key no later execution
//     reads. Example 5.3's TrainAirportCity loop is pure.

// CompileOptions configures Compile.
type CompileOptions struct {
	// Native, when non-nil, is offered every Foreach statement at compile
	// time. A non-nil NativeForeach it returns is tried before the loop
	// runs; ref names the expression the native plan needs, evaluated in
	// the enclosing scope (nil when it needs none).
	Native func(f *ForeachStmt) (run NativeForeach, ref Expr)
}

// NativeForeach executes one recognized Foreach statement natively (e.g. a
// radius query through a spatial index). ref evaluates the expression the
// planner named. It must be semantics-preserving: it reports
// handled=false whenever unsure (the compiled loop then runs), and n, the
// number of instances selected, feeds the evaluator's statistics.
type NativeForeach func(env Env, ref func() (Value, error)) (handled bool, n int, err error)

// Plan is a compiled rule.
type Plan struct {
	// Rule is the source rule.
	Rule *Rule
	// Kind is the rule's classification (see Classify).
	Kind RuleKind

	cond  *ExprPlan // SpatialSelection event condition, nil otherwise
	body  []cstmt
	frame frameShape
}

// ExprPlan is a compiled standalone expression.
type ExprPlan struct {
	eval  cexpr
	frame frameShape
}

// Compile compiles a rule into its plan.
func Compile(r *Rule, opts CompileOptions) *Plan {
	p := &Plan{Rule: r, Kind: Classify(r)}
	if r.Event.Kind == EvSpatialSelection {
		p.cond = CompileExpr(r.Event.Cond)
	}
	c := &compiler{opts: opts, slots: 1}
	p.body = c.stmts(r.Body)
	p.frame = c.shape()
	return p
}

// CompileExpr compiles a standalone expression; vars (at most one is
// bound by the Evaluator's entry points) name its free variables.
func CompileExpr(e Expr, vars ...string) *ExprPlan {
	c := &compiler{slots: 1}
	for _, v := range vars {
		c.push(v)
	}
	c.cur = 0 // evaluated once per binding: nothing to hoist
	x := c.rootExpr(e)
	return &ExprPlan{eval: x, frame: c.shape()}
}

// frameShape sizes the per-execution frame.
type frameShape struct {
	slots int // variable slots, slot 0 being the execution itself
	memos int // hoisted-value cells
	tmps  int // computed nodes' result cells
}

// frame is the state of one plan execution.
type frame struct {
	env   Env
	st    *Stats
	vars  []Value
	stamp []uint64 // stamp[slot] changes whenever the slot is re-bound
	memo  []memoCell
	tmp   []Value
	clock uint64
	// rec, while a pure Foreach runs to be memoized, records its
	// selections (see foreachPlan.record).
	rec *loopMemo
}

// memoCell caches one hoisted value; it is current while stamp equals the
// stamp of the slot the value depends on.
type memoCell struct {
	stamp uint64
	v     Value
}

func newFrame(env Env, sh frameShape, st *Stats) *frame {
	fr := &frame{env: env, st: st,
		vars: make([]Value, sh.slots), stamp: make([]uint64, sh.slots)}
	if sh.memos > 0 {
		fr.memo = make([]memoCell, sh.memos)
	}
	if sh.tmps > 0 {
		fr.tmp = make([]Value, sh.tmps)
	}
	fr.stamp[0] = fr.tick()
	return fr
}

func (fr *frame) tick() uint64 {
	fr.clock++
	return fr.clock
}

func (fr *frame) bind(slot int, inst Instance) {
	fr.vars[slot] = InstVal(inst)
	fr.stamp[slot] = fr.tick()
}

// A compiled expression returns a pointer to its result: a constant, a
// variable slot, a hoisted cell or the node's own frame cell. Callers read
// it and never write through it; it stays valid until the same node is
// evaluated again (results are not copied up the tree).
type (
	cexpr func(fr *frame) (*Value, error)
	cstmt func(fr *frame) error
)

// compiler carries the lexical state of one compilation.
type compiler struct {
	opts CompileOptions
	// scope maps names to slots, innermost last; cur is the innermost
	// bound slot (0 outside every loop).
	scope []binding
	cur   int
	// mut is the slot of the deepest enclosing loop whose body performs a
	// state-changing action: model paths may not hoist above it.
	mut   int
	slots int
	memos int
	tmps  int
}

type binding struct {
	name string
	slot int
}

func (c *compiler) shape() frameShape {
	return frameShape{slots: c.slots, memos: c.memos, tmps: c.tmps}
}

func (c *compiler) push(name string) int {
	slot := c.slots
	c.slots++
	c.scope = append(c.scope, binding{name, slot})
	c.cur = slot
	return slot
}

func (c *compiler) lookup(name string) (int, bool) {
	for i := len(c.scope) - 1; i >= 0; i-- {
		if c.scope[i].name == name {
			return c.scope[i].slot, true
		}
	}
	return 0, false
}

func (c *compiler) stmts(body []Stmt) []cstmt {
	out := make([]cstmt, len(body))
	for i, s := range body {
		out[i] = c.stmt(s)
	}
	return out
}

func (c *compiler) stmt(s Stmt) cstmt {
	switch st := s.(type) {
	case *IfStmt:
		cond, then, els := c.rootExpr(st.Cond), c.stmts(st.Then), c.stmts(st.Else)
		return func(fr *frame) error {
			v, err := cond(fr)
			if err != nil {
				return err
			}
			if v.Kind != KindBool {
				return fmt.Errorf("prml: %s: If condition is %s, want bool", st.Pos, v.Kind)
			}
			if v.Bool {
				return execStmts(then, fr)
			}
			return execStmts(els, fr)
		}

	case *ForeachStmt:
		return c.foreach(st)

	case *SetContentStmt:
		val := c.rootExpr(st.Value)
		return func(fr *frame) error {
			v, err := val(fr)
			if err != nil {
				return err
			}
			if err := fr.env.SetContent(st.Target, *v); err != nil {
				return fmt.Errorf("prml: %s: %w", st.Pos, err)
			}
			fr.st.ActionsRun++
			fr.st.ContentUpdates++
			return nil
		}

	case *SelectInstanceStmt:
		target := c.rootExpr(st.Target)
		return func(fr *frame) error {
			v, err := target(fr)
			if err != nil {
				return err
			}
			if err := fr.env.SelectInstance(*v); err != nil {
				return fmt.Errorf("prml: %s: %w", st.Pos, err)
			}
			fr.st.ActionsRun++
			fr.st.InstancesSel++
			if fr.rec != nil {
				fr.rec.sels = append(fr.rec.sels, selection{inst: v.Inst, pos: st.Pos, iters: fr.st.LoopIterations})
			}
			return nil
		}

	case *BecomeSpatialStmt:
		return func(fr *frame) error {
			if err := fr.env.BecomeSpatial(st.Target, st.Geom); err != nil {
				return fmt.Errorf("prml: %s: %w", st.Pos, err)
			}
			fr.st.ActionsRun++
			fr.st.SchemaActions++
			return nil
		}

	case *AddLayerStmt:
		return func(fr *frame) error {
			if err := fr.env.AddLayer(st.Layer, st.Geom); err != nil {
				return fmt.Errorf("prml: %s: %w", st.Pos, err)
			}
			fr.st.ActionsRun++
			fr.st.SchemaActions++
			return nil
		}
	}
	return func(*frame) error { return fmt.Errorf("prml: unknown statement %T", s) }
}

// foreachPlan is a compiled Foreach statement.
type foreachPlan struct {
	slots   []int // one per variable, outermost first
	sources []*PathExpr
	body    []cstmt
	// mutates: the body performs SetContent/BecomeSpatial/AddLayer, so
	// inner domains are re-resolved on every entry.
	mutates bool
	native  NativeForeach
	ref     cexpr
	// pure: the outcome depends only on the data the sources denote, and
	// memo holds the last one recorded (shared by every session running
	// the plan).
	pure bool
	memo atomic.Pointer[loopMemo]
}

// loopMemo is the recorded outcome of one pure Foreach execution.
type loopMemo struct {
	key   LoopKey
	sels  []selection
	iters int // body executions
}

// selection is one SelectInstance a pure Foreach performed.
type selection struct {
	inst  Instance
	pos   Pos // the statement's, for error text
	iters int // body executions up to and including this one's
}

func (c *compiler) foreach(f *ForeachStmt) cstmt {
	fp := &foreachPlan{sources: f.Sources, mutates: mutates(f.Body), pure: pure(f)}
	if c.opts.Native != nil {
		if run, ref := c.opts.Native(f); run != nil {
			fp.native = run
			if ref != nil {
				fp.ref = c.rootExpr(ref)
			}
		}
	}
	scope, cur, mut := c.scope, c.cur, c.mut
	for _, v := range f.Vars {
		fp.slots = append(fp.slots, c.push(v))
	}
	if fp.mutates && len(fp.slots) > 0 {
		c.mut = c.cur
	}
	fp.body = c.stmts(f.Body)
	c.scope, c.cur, c.mut = scope, cur, mut
	return fp.exec
}

func (fp *foreachPlan) exec(fr *frame) error {
	if fp.native != nil {
		handled, n, err := fp.native(fr.env, func() (Value, error) {
			if fp.ref == nil {
				return Value{}, nil
			}
			v, err := fp.ref(fr)
			if err != nil {
				return Value{}, err
			}
			return *v, nil
		})
		if err != nil {
			return err
		}
		if handled {
			fr.st.LoopIterations += n
			fr.st.ActionsRun += n
			fr.st.InstancesSel += n
			return nil
		}
	}
	if fp.pure {
		if key, ok := fr.env.LoopData(fp.sources); ok {
			if m := fp.memo.Load(); m != nil && m.key.equal(&key) {
				return m.replay(fr)
			}
			return fp.record(fr, key)
		}
	}
	run := foreachRun{fp: fp, fr: fr}
	return run.level(0)
}

// record runs a pure Foreach and, if it succeeds, publishes its outcome
// as the memo for key.
func (fp *foreachPlan) record(fr *frame, key LoopKey) error {
	base := fr.st.LoopIterations
	m := &loopMemo{key: key}
	fr.rec = m
	run := foreachRun{fp: fp, fr: fr}
	err := run.level(0)
	fr.rec = nil
	if err != nil {
		return err
	}
	m.iters = fr.st.LoopIterations - base
	for i := range m.sels {
		m.sels[i].iters -= base
	}
	fp.memo.Store(m)
	return nil
}

// replay performs a memoized execution's selections, in order, and adds
// the statistics the run would have: up to a failing selection, the ones
// the run would have counted before failing there.
func (m *loopMemo) replay(fr *frame) error {
	for i, sel := range m.sels {
		if err := fr.env.SelectInstance(InstVal(sel.inst)); err != nil {
			fr.st.LoopIterations += sel.iters
			fr.st.ActionsRun += i
			fr.st.InstancesSel += i
			return fmt.Errorf("prml: %s: %w", sel.pos, err)
		}
	}
	fr.st.LoopIterations += m.iters
	fr.st.ActionsRun += len(m.sels)
	fr.st.InstancesSel += len(m.sels)
	return nil
}

// foreachRun is one execution of a Foreach: the cartesian product of its
// sources, one variable bound per source (Example 5.3's three-variable
// loop).
type foreachRun struct {
	fp *foreachPlan
	fr *frame
	// domains caches the inner sources' instances for this execution.
	domains [][]Instance
}

func (r *foreachRun) level(d int) error {
	fp, fr := r.fp, r.fr
	if d == len(fp.slots) {
		fr.st.LoopIterations++
		return execStmts(fp.body, fr)
	}
	slot := fp.slots[d]
	// The outermost domain is entered once per execution: stream it.
	if d == 0 || fp.mutates {
		return fr.env.Iterate(fp.sources[d], func(inst Instance) error {
			fr.bind(slot, inst)
			return r.level(d + 1)
		})
	}
	dom, err := r.domain(d)
	for _, inst := range dom {
		fr.bind(slot, inst)
		if err := r.level(d + 1); err != nil {
			return err
		}
	}
	return err
}

// domain returns the instances of inner source d, resolving them on first
// entry. A failed resolution returns what it yielded before failing (the
// caller binds those, then reports the error: a streamed iteration that
// failed midway) and is retried on the next entry.
func (r *foreachRun) domain(d int) ([]Instance, error) {
	if r.domains == nil {
		r.domains = make([][]Instance, len(r.fp.sources))
	}
	if dom := r.domains[d]; dom != nil {
		return dom, nil
	}
	dom := []Instance{}
	err := r.fr.env.Iterate(r.fp.sources[d], func(inst Instance) error {
		dom = append(dom, inst)
		return nil
	})
	if err == nil {
		r.domains[d] = dom
	}
	return dom, err
}

// mutates reports whether a body performs an action that changes what
// model paths or iteration domains resolve to.
func mutates(body []Stmt) bool {
	found := false
	walkStmts(body, func(s Stmt) {
		switch s.(type) {
		case *SetContentStmt, *BecomeSpatialStmt, *AddLayerStmt:
			found = true
		}
	})
	return found
}

// pure reports whether a Foreach's outcome depends only on the data its
// sources denote: its body holds only If and SelectInstance statements,
// every expression reads only literals and fields of the statement's own
// variables (no model path, parameter or enclosing variable), and every
// SelectInstance selects a bare loop variable.
func pure(f *ForeachStmt) bool {
	own := func(p *PathExpr) bool { return !p.IsModelPath() && slices.Contains(f.Vars, p.Root) }
	var expr func(e Expr) bool
	expr = func(e Expr) bool {
		switch ex := e.(type) {
		case *NumberLit, *StringLit, *BoolLit:
			return true
		case *PathExpr:
			return own(ex)
		case *UnaryExpr:
			return expr(ex.X)
		case *BinaryExpr:
			return expr(ex.L) && expr(ex.R)
		case *CallExpr:
			for _, a := range ex.Args {
				if !expr(a) {
					return false
				}
			}
			return true
		}
		return false
	}
	var body func(stmts []Stmt) bool
	body = func(stmts []Stmt) bool {
		for _, s := range stmts {
			switch st := s.(type) {
			case *IfStmt:
				if !expr(st.Cond) || !body(st.Then) || !body(st.Else) {
					return false
				}
			case *SelectInstanceStmt:
				if p, ok := st.Target.(*PathExpr); !ok || !own(p) || len(p.Segs) != 0 {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
	return body(f.Body)
}

// depSlot is the slot an expression's value depends on: the deepest
// variable it reads, or — for model paths — the deepest loop whose body
// changes session state. 0 means loop-invariant.
func (c *compiler) depSlot(e Expr) int {
	switch ex := e.(type) {
	case *PathExpr:
		if ex.IsModelPath() {
			return c.mut
		}
		slot, _ := c.lookup(ex.Root)
		return slot
	case *UnaryExpr:
		return c.depSlot(ex.X)
	case *BinaryExpr:
		return max(c.depSlot(ex.L), c.depSlot(ex.R))
	case *CallExpr:
		d := 0
		for _, a := range ex.Args {
			d = max(d, c.depSlot(a))
		}
		return d
	}
	return 0
}

// rootExpr compiles an expression evaluated at the current depth.
func (c *compiler) rootExpr(e Expr) cexpr { return c.expr(e, c.cur) }

// expr compiles e inside a context that is re-evaluated whenever slot at
// changes: when e depends on a shallower slot it is hoisted there.
func (c *compiler) expr(e Expr, at int) cexpr {
	dep := c.depSlot(e)
	x := c.node(e, dep)
	if dep < at && c.hoistable(e) {
		x = c.memo(x, dep)
	}
	return x
}

// hoistable reports whether caching e saves work: literals and bare
// variable reads cost less than the cache check.
func (c *compiler) hoistable(e Expr) bool {
	switch ex := e.(type) {
	case *NumberLit, *StringLit, *BoolLit:
		return false
	case *PathExpr:
		if _, bound := c.lookup(ex.Root); bound && !ex.IsModelPath() && len(ex.Segs) == 0 {
			return false
		}
	}
	return true
}

func (c *compiler) memo(x cexpr, dep int) cexpr {
	i := c.memos
	c.memos++
	return func(fr *frame) (*Value, error) {
		m := &fr.memo[i]
		if m.stamp == fr.stamp[dep] {
			return &m.v, nil
		}
		v, err := x(fr)
		if err != nil {
			return nil, err
		}
		m.v, m.stamp = *v, fr.stamp[dep]
		return &m.v, nil
	}
}

// tmp reserves the frame cell a computed node writes its result to.
func (c *compiler) tmp() int {
	c.tmps++
	return c.tmps - 1
}

// Boolean results point at shared constants.
var (
	trueVal  = BoolVal(true)
	falseVal = BoolVal(false)
)

func boolPtr(b bool) *Value {
	if b {
		return &trueVal
	}
	return &falseVal
}

// node compiles e's own operation; its operands hoist relative to at.
func (c *compiler) node(e Expr, at int) cexpr {
	switch ex := e.(type) {
	case *NumberLit:
		return constant(NumberVal(ex.Value))
	case *StringLit:
		return constant(StringVal(ex.Value))
	case *BoolLit:
		return constant(BoolVal(ex.Value))
	case *PathExpr:
		return c.path(ex)
	case *UnaryExpr:
		x, t := c.expr(ex.X, at), c.tmp()
		return func(fr *frame) (*Value, error) {
			v, err := x(fr)
			if err != nil {
				return nil, err
			}
			switch ex.Op {
			case OpNot:
				if v.Kind != KindBool {
					return nil, fmt.Errorf("prml: %s: not applied to %s", ex.Pos, v.Kind)
				}
				return boolPtr(!v.Bool), nil
			case OpNeg:
				if v.Kind != KindNumber {
					return nil, fmt.Errorf("prml: %s: unary minus applied to %s", ex.Pos, v.Kind)
				}
				out := &fr.tmp[t]
				*out = NumberVal(-v.Num)
				return out, nil
			}
			return nil, fmt.Errorf("prml: %s: unknown unary operator", ex.Pos)
		}
	case *BinaryExpr:
		return c.binary(ex, at)
	case *CallExpr:
		args := make([]cexpr, len(ex.Args))
		for i, a := range ex.Args {
			args[i] = c.expr(a, at)
		}
		t := c.tmp()
		return func(fr *frame) (*Value, error) {
			var vals [2]*Value
			for i, a := range args {
				v, err := a(fr)
				if err != nil {
					return nil, err
				}
				if i < len(vals) {
					vals[i] = v
				}
			}
			return callOp(fr.env, ex, &vals, len(args), &fr.tmp[t])
		}
	}
	return func(*frame) (*Value, error) { return nil, fmt.Errorf("prml: unknown expression %T", e) }
}

func constant(v Value) cexpr {
	return func(*frame) (*Value, error) { return &v, nil }
}

func (c *compiler) path(p *PathExpr) cexpr {
	t := c.tmp()
	if p.IsModelPath() {
		return func(fr *frame) (*Value, error) {
			out := &fr.tmp[t]
			var err error
			*out, err = fr.env.ResolvePath(p)
			return out, err
		}
	}
	if slot, ok := c.lookup(p.Root); ok {
		if len(p.Segs) == 0 {
			return func(fr *frame) (*Value, error) { return &fr.vars[slot], nil }
		}
		return func(fr *frame) (*Value, error) {
			v := &fr.vars[slot]
			if v.Kind != KindInstance {
				return nil, fmt.Errorf("prml: %s: cannot navigate %s from %s value",
					p.Pos, p.Segs[0], v.Kind)
			}
			out := &fr.tmp[t]
			var err error
			*out, err = fr.env.Field(v.Inst, p.Segs)
			return out, err
		}
	}
	return func(fr *frame) (*Value, error) {
		if v, ok := fr.env.Param(p.Root); ok && len(p.Segs) == 0 {
			out := &fr.tmp[t]
			*out = v
			return out, nil
		}
		return nil, fmt.Errorf("prml: %s: unknown identifier %q", p.Pos, p.Root)
	}
}

func (c *compiler) binary(b *BinaryExpr, at int) cexpr {
	l, r := c.expr(b.L, at), c.expr(b.R, at)
	// Short-circuit logical operators.
	if b.Op == OpAnd || b.Op == OpOr {
		return func(fr *frame) (*Value, error) {
			lv, err := l(fr)
			if err != nil {
				return nil, err
			}
			if lv.Kind != KindBool {
				return nil, fmt.Errorf("prml: %s: %s applied to %s", b.Pos, b.Op, lv.Kind)
			}
			if b.Op == OpAnd && !lv.Bool {
				return &falseVal, nil
			}
			if b.Op == OpOr && lv.Bool {
				return &trueVal, nil
			}
			rv, err := r(fr)
			if err != nil {
				return nil, err
			}
			if rv.Kind != KindBool {
				return nil, fmt.Errorf("prml: %s: %s applied to %s", b.Pos, b.Op, rv.Kind)
			}
			return boolPtr(rv.Bool), nil
		}
	}
	t := c.tmp()
	return func(fr *frame) (*Value, error) {
		lv, err := l(fr)
		if err != nil {
			return nil, err
		}
		rv, err := r(fr)
		if err != nil {
			return nil, err
		}
		return binaryOp(b, lv, rv, &fr.tmp[t])
	}
}

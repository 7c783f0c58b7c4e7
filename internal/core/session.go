package core

import (
	"context"
	"fmt"
	"sync"

	"sdwp/internal/cube"
	"sdwp/internal/geom"
	"sdwp/internal/geomd"
	"sdwp/internal/prml"
	"sdwp/internal/usermodel"
)

// Session is one decision maker's personalized analysis session: the
// outcome of the Fig. 1 process — a personalized GeoMD schema plus a
// personalized cube view — together with the event surface the BI front end
// drives (queries and spatial selections).
type Session struct {
	ID     string
	UserID string

	engine   *Engine
	user     *usermodel.Entity
	rulesMu  *sync.Mutex // the user's rule-run lock (Engine.userRules)
	location geom.Geometry

	mu     sync.Mutex
	schema *geomd.Schema
	view   *cube.View
}

// Schema returns the session's personalized GeoMD schema.
func (s *Session) Schema() *geomd.Schema {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.schema
}

// View returns the session's personalized cube view. A view never
// changes: a later selection gives the session a new one.
func (s *Session) View() *cube.View {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view
}

// User returns the decision maker's profile root entity.
func (s *Session) User() *usermodel.Entity { return s.user }

// Engine returns the engine this session belongs to.
func (s *Session) Engine() *Engine { return s.engine }

// Location returns the session's location context geometry (nil if
// unknown).
func (s *Session) Location() geom.Geometry { return s.location }

// Query runs an OLAP query through the personalized view — what the
// paper's "succeeding analysis in any BI tool" sees. The query routes
// through the engine's scheduler (internal/qsched): it may be answered
// from the content-keyed result cache (with another session's answer when
// both views hold equal selections), coalesce into a shared scan with
// other sessions' concurrent queries, or execute alone — always with a
// result identical to the direct serial path.
func (s *Session) Query(q cube.Query) (*cube.Result, error) {
	return s.QueryCtx(context.Background(), q)
}

// QueryCtx is Query with a per-request context: cancellation unblocks the
// caller, and a context deadline (or core.Options.QueryTimeout) drops the
// query from the admission queue instead of executing it late.
func (s *Session) QueryCtx(ctx context.Context, q cube.Query) (*cube.Result, error) {
	return s.engine.sched.SubmitCtx(ctx, q, s.View(), s.UserID)
}

// QueryBaseline runs the same query against the whole warehouse (the
// non-personalized baseline of experiment C1), also scheduler-routed.
func (s *Session) QueryBaseline(q cube.Query) (*cube.Result, error) {
	return s.QueryBaselineCtx(context.Background(), q)
}

// QueryBaselineCtx is QueryBaseline with a per-request context (see
// QueryCtx).
func (s *Session) QueryBaselineCtx(ctx context.Context, q cube.Query) (*cube.Result, error) {
	return s.engine.sched.SubmitCtx(ctx, q, nil, s.UserID)
}

// QueryBatch answers a batch of queries through the scheduler: each entry
// hits the result cache individually, and misses coalesce into shared
// scans together with every other session's concurrent traffic (see
// cube.ExecuteBatch for the underlying scan). baseline optionally marks
// queries that bypass the personalized view (nil = all personalized;
// otherwise one entry per query).
func (s *Session) QueryBatch(qs []cube.Query, baseline []bool) ([]*cube.Result, error) {
	return s.QueryBatchCtx(context.Background(), qs, baseline)
}

// QueryBatchCtx is QueryBatch with a per-request context scoping the
// whole batch (see QueryCtx).
func (s *Session) QueryBatchCtx(ctx context.Context, qs []cube.Query, baseline []bool) ([]*cube.Result, error) {
	if baseline != nil && len(baseline) != len(qs) {
		return nil, fmt.Errorf("core: batch has %d queries but %d baseline flags", len(qs), len(baseline))
	}
	vs := make([]*cube.View, len(qs))
	v := s.View()
	for i := range qs {
		if baseline == nil || !baseline[i] {
			vs[i] = v
		}
	}
	return s.engine.sched.SubmitBatchCtx(ctx, qs, vs, s.UserID)
}

// exec runs one compiled rule body in this session's environment and
// publishes its selections, also those made before an error.
func (s *Session) exec(p *prml.Plan) (prml.Stats, error) {
	env := &sessionEnv{s: s}
	defer env.publish()
	return env.exec(p)
}

// SelectionResult reports what a SpatialSelect did.
type SelectionResult struct {
	// Selected lists the instances the predicate matched (and that were
	// added to the personalized view).
	Selected []prml.Instance
	// RulesFired lists the tracking rules triggered by the selection.
	RulesFired []string
}

// SpatialSelect performs an interactive spatial selection — the user picks
// the instances of target (a GeoMD path such as GeoMD.Store.City) that
// satisfy predicate (a PRML boolean expression over that element, e.g.
// Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km).
//
// The selection (i) restricts the personalized view to the matched
// instances, and (ii) fires every registered SpatialSelection tracking rule
// whose event target is the same element and whose event expression is
// satisfied by at least one matched instance (the operational semantics
// chosen in DESIGN.md §2).
func (s *Session) SpatialSelect(target string, predicate string) (*SelectionResult, error) {
	targetPath, err := parseTargetPath(target)
	if err != nil {
		return nil, err
	}
	predExpr, err := prml.ParseExpr(predicate)
	if err != nil {
		return nil, err
	}
	pred := prml.CompileExpr(predExpr)

	// The matches and the tracking rules' selections publish as one phase.
	env := &sessionEnv{s: s}
	defer env.publish()
	ev := prml.NewEvaluator(env)
	res := &SelectionResult{}

	// Evaluate the predicate once per instance of the target element, with
	// the instance bound as the "current" value of the target path.
	err = env.Iterate(targetPath, func(inst prml.Instance) error {
		env.bind(targetPath, inst)
		v, err := ev.EvalPlan(pred)
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
	if err != nil {
		return nil, err
	}
	if len(res.Selected) == 0 {
		return res, nil
	}

	// Fire matching tracking rules.
	for _, p := range s.engine.rules().tracking {
		r := p.Rule
		if r.Event.Target == nil || r.Event.Target.String() != targetPath.String() {
			continue
		}
		fired := false
		for _, inst := range res.Selected {
			env.bind(r.Event.Target, inst)
			ok, err := ev.EventCond(p)
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
		if _, err := env.exec(p); err != nil {
			return nil, err
		}
		res.RulesFired = append(res.RulesFired, r.Name)
	}
	return res, nil
}

// parseTargetPath parses and validates a GeoMD element path.
func parseTargetPath(target string) (*prml.PathExpr, error) {
	e, err := prml.ParseExpr(target)
	if err != nil {
		return nil, err
	}
	p, ok := e.(*prml.PathExpr)
	if !ok || p.Root != prml.RootGeoMD {
		return nil, fmt.Errorf("core: selection target must be a GeoMD path, got %q", target)
	}
	return p, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"

	"sdwp"
	"sdwp/internal/core"
	"sdwp/internal/cube"
)

// world is the benchmark's in-process copy of the dataset solapd generates
// from the same flags.
type world struct {
	ds        *sdwp.Dataset
	geo       geo
	generateS float64
}

func buildWorld(sc scale) (*world, error) {
	cfg := sdwp.DefaultDataConfig()
	cfg.Seed, cfg.Stores, cfg.Sales = dataSeed, sc.stores, sc.sales
	start := time.Now()
	ds, err := sdwp.GenerateData(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate data: %w", err)
	}
	return &world{ds: ds, geo: geo{cities: ds.CityLocs, stores: ds.StoreLocs},
		generateS: time.Since(start).Seconds()}, nil
}

// solapdOptions are the engine options cmd/solapd derives from its flag
// defaults. They are repeated here because the traced run and the smoke
// test build the engine in process; a change to solapd's defaults must be
// repeated too.
func solapdOptions() core.Options {
	return core.Options{CoalesceWindow: 500 * time.Microsecond, ResultCacheBytes: 32 << 20}
}

// newEngine builds an engine over the world's cube the way cmd/solapd does:
// the benchmark's users, threshold 2, the paper's rules. Engines share the
// cube (queries only read it) and own their user store.
func (w *world) newEngine(opts core.Options) (*core.Engine, error) {
	roles := map[string]string{}
	for i := 0; i < benchUsers; i++ {
		roles[userName(i)] = "RegionalSalesManager"
	}
	users, err := sdwp.NewSalesUserStore(roles)
	if err != nil {
		return nil, err
	}
	e := sdwp.NewEngine(w.ds.Cube, users, opts)
	e.SetParam("threshold", sdwp.Number(2))
	if _, err := e.AddRules(sdwp.PaperRules); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// wireResult is a query result as the HTTP API encodes it, cost vector
// left out: the oracle compares what a client sees.
type wireResult struct {
	GroupCols []string `json:"groupCols"`
	AggCols   []string `json:"aggCols"`
	Rows      []struct {
		Groups []string  `json:"groups"`
		Values []float64 `json:"values"`
	} `json:"rows"`
	ScannedFacts int `json:"scannedFacts"`
	MatchedFacts int `json:"matchedFacts"`
}

func (a wireResult) diff(b wireResult) error {
	if !slices.Equal(a.GroupCols, b.GroupCols) || !slices.Equal(a.AggCols, b.AggCols) {
		return fmt.Errorf("columns %v %v, want %v %v", a.GroupCols, a.AggCols, b.GroupCols, b.AggCols)
	}
	if a.ScannedFacts != b.ScannedFacts || a.MatchedFacts != b.MatchedFacts {
		return fmt.Errorf("scanned/matched %d/%d, want %d/%d", a.ScannedFacts, a.MatchedFacts, b.ScannedFacts, b.MatchedFacts)
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("%d rows, want %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if !slices.Equal(ra.Groups, rb.Groups) || len(ra.Values) != len(rb.Values) {
			return fmt.Errorf("row %d is %v, want %v", i, ra, rb)
		}
		for j := range ra.Values {
			x, y := ra.Values[j], rb.Values[j]
			if x != y && math.Abs(x-y) > 1e-9*math.Max(math.Abs(x), math.Abs(y)) {
				return fmt.Errorf("row %d %v value %d is %v, want %v", i, ra.Groups, j, x, y)
			}
		}
	}
	return nil
}

// sample is one operation kept for the oracle: the bodies of its query and
// batch responses, by step.
type sample struct {
	o      op
	bodies [][]byte
}

// oracle answers queries by serial Cube.Execute through replicas of the
// sessions the server holds.
type oracle struct {
	w        *world
	engine   *core.Engine
	t        engineTarget
	sessions []*sess
	memo     map[string]wireResult
}

// newOracle builds the replica engine and brings it to the plan's starting
// state, exactly as prepare does for the server.
func newOracle(w *world, p plan) (*oracle, error) {
	e, err := w.newEngine(solapdOptions())
	if err != nil {
		return nil, err
	}
	o := &oracle{w: w, engine: e, t: engineTarget{engine: e}, memo: map[string]wireResult{}}
	if o.sessions, err = prepare(&o.t, p); err != nil {
		e.Close()
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return o, nil
}

func (o *oracle) close() { o.engine.Close() }

// check compares a sampled operation's responses with the oracle's answers.
// A self-contained operation (a session script) is replayed on the replica
// engine to obtain the view its queries ran through.
func (o *oracle) check(s sample) error {
	cs := sessionFor(o.sessions, s.o)
	for i, st := range s.o.steps {
		switch st.kind {
		case stepQuery, stepBatch:
			var got []wireResult
			if st.kind == stepQuery {
				got = make([]wireResult, 1)
				if err := json.Unmarshal(s.bodies[i], &got[0]); err != nil {
					return fmt.Errorf("decode response: %w", err)
				}
			} else {
				var br struct {
					Results []wireResult `json:"results"`
				}
				if err := json.Unmarshal(s.bodies[i], &br); err != nil {
					return fmt.Errorf("decode response: %w", err)
				}
				got = br.Results
			}
			if len(got) != len(st.queries) {
				return fmt.Errorf("%d results for %d queries", len(got), len(st.queries))
			}
			for j, spec := range st.queries {
				want, err := o.answer(s.o.session, cs, spec)
				if err != nil {
					return err
				}
				if err := got[j].diff(want); err != nil {
					return fmt.Errorf("query %d: %w", j, err)
				}
			}
		case stepLogin, stepSelect, stepLogout: // the steps that shape the view
			if s.o.session < 0 {
				if _, err := o.t.step(cs, st); err != nil {
					return fmt.Errorf("replay %s: %w", stepNames[st.kind], err)
				}
			}
		}
	}
	return nil
}

// answer executes one query serially through the session's view. Standing
// sessions never change their view under load, so their answers are kept.
func (o *oracle) answer(session int, cs *sess, spec querySpec) (wireResult, error) {
	q := spec.cubeQuery()
	key := ""
	if session >= 0 {
		key = fmt.Sprintf("%d|%t|%s", session, spec.Baseline, q.Fingerprint())
		if r, ok := o.memo[key]; ok {
			return r, nil
		}
	}
	var v *cube.View
	if !spec.Baseline {
		v = cs.cs.View()
	}
	res, err := o.w.ds.Cube.Execute(q, v)
	if err != nil {
		return wireResult{}, fmt.Errorf("oracle execute: %w", err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return wireResult{}, err
	}
	var want wireResult
	if err := json.Unmarshal(raw, &want); err != nil {
		return wireResult{}, err
	}
	if key != "" {
		o.memo[key] = want
	}
	return want, nil
}

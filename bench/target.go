package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"sdwp/internal/core"
	"sdwp/internal/cube"
	"sdwp/internal/export"
	"sdwp/internal/qsched"
)

// sess is one logical session as a target sees it: a token over HTTP, a
// *core.Session in process.
type sess struct {
	token string
	cs    *core.Session
}

// reply is what a step returned over HTTP; in-process targets return none.
// body is valid until the target's next step.
type reply struct {
	status int
	body   []byte
}

// target performs steps at one depth of the stack. A target is used by one
// goroutine at a time.
type target interface {
	step(s *sess, st step) (reply, error)
}

// httpTarget sends steps as HTTP requests: through a client to a listening
// server (the load generator, and depth 0 of the traced run), or straight
// into a handler on a recorder (depth 1).
type httpTarget struct {
	base    string
	client  *http.Client // nil: serve on handler
	handler http.Handler
	buf     bytes.Buffer
}

func (t *httpTarget) step(s *sess, st step) (reply, error) {
	method, path, body := st.wire(s.token)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var rep reply
	if t.client != nil {
		resp, err := t.client.Do(req)
		if err != nil {
			return reply{}, err
		}
		t.buf.Reset()
		_, err = t.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			return reply{}, err
		}
		rep = reply{status: resp.StatusCode, body: t.buf.Bytes()}
	} else {
		rec := httptest.NewRecorder()
		t.handler.ServeHTTP(rec, req)
		rep = reply{status: rec.Code, body: rec.Body.Bytes()}
	}
	if rep.status/100 != 2 {
		return rep, fmt.Errorf("%s %s: status %d: %.200s", method, path, rep.status, rep.body)
	}
	if st.kind == stepLogin {
		var lr struct {
			Session string `json:"session"`
		}
		if err := json.Unmarshal(rep.body, &lr); err != nil || lr.Session == "" {
			return rep, fmt.Errorf("login: no session token in %.200s", rep.body)
		}
		s.token = lr.Session
	}
	return rep, nil
}

// engineTarget calls the functions webapi's handlers call (depth 2 of the
// traced run, and the oracle's replica sessions). With sched set, queries
// go to that scheduler instead of the engine's own (depth 3).
type engineTarget struct {
	engine *core.Engine
	sched  *qsched.Scheduler
}

func (t *engineTarget) step(s *sess, st step) (reply, error) {
	ctx := context.Background()
	switch st.kind {
	case stepLogin:
		cs, err := t.engine.StartSession(st.user, st.loc)
		s.cs = cs
		return reply{}, err
	case stepSchema:
		s.cs.Schema()
		return reply{}, nil
	case stepSelect:
		_, err := s.cs.SpatialSelect(airportTarget, st.predicate)
		return reply{}, err
	case stepQuery, stepBatch:
		qs := make([]cube.Query, len(st.queries))
		vs := make([]*cube.View, len(st.queries))
		baseline := make([]bool, len(st.queries))
		for i, spec := range st.queries {
			qs[i], baseline[i] = spec.cubeQuery(), spec.Baseline
			if !spec.Baseline {
				vs[i] = s.cs.View()
			}
		}
		var err error
		switch {
		case t.sched != nil && st.kind == stepBatch:
			_, err = t.sched.SubmitBatchCtx(ctx, qs, vs, s.cs.UserID)
		case t.sched != nil:
			_, err = t.sched.SubmitCtx(ctx, qs[0], vs[0], s.cs.UserID)
		case st.kind == stepBatch:
			_, err = s.cs.QueryBatchCtx(ctx, qs, baseline)
		case baseline[0]:
			_, err = s.cs.QueryBaselineCtx(ctx, qs[0])
		default:
			_, err = s.cs.QueryCtx(ctx, qs[0])
		}
		return reply{}, err
	case stepGeoJSON:
		_, err := export.Session(s.cs, export.Options{})
		return reply{}, err
	case stepMapSVG:
		_, err := export.SessionSVG(s.cs, export.SVGOptions{})
		return reply{}, err
	case stepLogout:
		return reply{}, t.engine.EndSession(s.cs)
	}
	panic("bench: unknown step kind")
}

// sessionFor is the session o runs on: a standing one, or a fresh one for a
// script that logs in itself.
func sessionFor(standing []*sess, o op) *sess {
	if o.session >= 0 {
		return standing[o.session]
	}
	return &sess{}
}

// runSteps runs steps in order on one session, stopping at the first error.
func runSteps(t target, s *sess, steps []step) error {
	for _, st := range steps {
		if _, err := t.step(s, st); err != nil {
			return fmt.Errorf("%s: %w", stepNames[st.kind], err)
		}
	}
	return nil
}

// prepare brings a server to the plan's starting state through t: the
// prime operations, then the standing sessions, which it returns. Prefill
// is the caller's: it wants every connection.
func prepare(t target, p plan) ([]*sess, error) {
	for i, o := range p.prime {
		if err := runSteps(t, &sess{}, o.steps); err != nil {
			return nil, fmt.Errorf("prime op %d: %w", i, err)
		}
	}
	out := make([]*sess, len(p.sessions))
	for i, steps := range p.sessions {
		out[i] = &sess{}
		if err := runSteps(t, out[i], steps); err != nil {
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
	}
	return out, nil
}

// newHTTPClient is the load generator's client: at most conns keep-alive
// connections to the one host it talks to.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
}

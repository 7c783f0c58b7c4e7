package core_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"sdwp/internal/core"
	"sdwp/internal/cube"
	"sdwp/internal/datagen"
	"sdwp/internal/qsched"
	"sdwp/internal/webapi"
)

// panicExec panics in every scan while armed.
type panicExec struct {
	qsched.Executor
	armed atomic.Bool
}

func (p *panicExec) ExecuteBatchCompiledOpt(cqs []*cube.CompiledQuery, vs []*cube.View, opts cube.BatchOptions) ([]*cube.Result, cube.SharingStats, error) {
	if p.armed.Load() {
		panic("injected scan fault")
	}
	return p.Executor.ExecuteBatchCompiledOpt(cqs, vs, opts)
}

// TestScanPanicIsAnHTTP500 drives a panicking scan end to end: the daemon
// answers the query with a 500 carrying X-Request-Id (and the same ID in
// the body), stays up, and answers the next query once the fault clears.
func TestScanPanicIsAnHTTP500(t *testing.T) {
	cfg := datagen.Default()
	cfg.Cities, cfg.Stores, cfg.Customers, cfg.Sales = 20, 80, 50, 1500
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	users, err := datagen.NewUserStore(map[string]string{"bob": "Accountant"})
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(ds.Cube, users, core.Options{})
	t.Cleanup(e.Close)
	pe := &panicExec{}
	core.WrapExecutor(e, func(x qsched.Executor) qsched.Executor { pe.Executor = x; return pe })
	srv := httptest.NewServer(webapi.NewServer(e))
	t.Cleanup(srv.Close)

	post := func(path, id string, body any) (*http.Response, []byte) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}
	resp, body := post("/api/login", "", map[string]string{"user": "bob", "locationWKT": "POINT (-3.7 40.4)"})
	var lr struct{ Session string }
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &lr) != nil {
		t.Fatalf("login: %s %s", resp.Status, body)
	}
	q := map[string]any{"session": lr.Session, "fact": "Sales",
		"aggregates": []map[string]string{{"agg": "COUNT"}}}

	pe.armed.Store(true)
	resp, body = post("/api/query", "fault-1", q)
	var eb struct{ RequestID string }
	if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("X-Request-Id") != "fault-1" ||
		json.Unmarshal(body, &eb) != nil || eb.RequestID != "fault-1" {
		t.Fatalf("panicking scan: %s, X-Request-Id %q, body %s; want a 500 echoing fault-1",
			resp.Status, resp.Header.Get("X-Request-Id"), body)
	}
	resp, body = post("/api/query/batch", "fault-2", map[string]any{"session": lr.Session,
		"queries": []map[string]any{{"fact": "Sales", "aggregates": []map[string]string{{"agg": "COUNT"}}, "limit": 1}}})
	if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("X-Request-Id") != "fault-2" {
		t.Fatalf("panicking batch scan: %s, X-Request-Id %q, body %s; want a 500 echoing fault-2",
			resp.Status, resp.Header.Get("X-Request-Id"), body)
	}

	pe.armed.Store(false)
	resp, body = post("/api/query", "", q)
	var res struct{ MatchedFacts int }
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &res) != nil ||
		res.MatchedFacts != ds.Cube.FactData("Sales").Len() {
		t.Fatalf("query after the fault: %s %s", resp.Status, body)
	}
}

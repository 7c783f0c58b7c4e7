// Package webapi exposes the personalization engine over HTTP+JSON — the
// web deployment shape the paper inherits from Web engineering: logging in
// starts a personalized analysis session (firing the user's rules), and the
// session token then scopes schema inspection, OLAP queries and spatial
// selections.
//
// Endpoints (all JSON):
//
//	POST /api/login    {user, locationWKT?}            → {session}
//	POST /api/logout   {session}                       → {ok}
//	GET  /api/schema?session=...                       → personalized GeoMD
//	POST /api/query    {session, fact, groupBy, aggregates, baseline?}
//	POST /api/query/batch {session, queries: [{fact, ...}, ...]}
//	                                                   → {results} (one shared scan)
//	POST /api/select   {session, target, predicate}    → selection result
//	GET  /api/profile?user=...                         → SUS profile instance
//	GET  /api/rules                                    → registered rules (canonical PRML)
//	POST /api/rules    {source}                        → register rules
//	GET  /api/layers                                   → geographic catalog
//	GET  /api/geojson?session=...[&selected=1][&simplify=0.01]
//	                                                   → personalized map (GeoJSON)
//	GET  /api/stats                                    → query-scheduler counters
//	                                                     (coalesce ratio, cache hit rate, queue depth,
//	                                                     filter-mask / group-key sharing ratios,
//	                                                     admission-timeout and doorkeeper
//	                                                     counters; shed counters and per-tenant
//	                                                     fair shares, snapshotted under one scheduler lock;
//	                                                     the fact tables' artifact-cache hit rates; on a
//	                                                     sharded engine also shard count, per-shard fact
//	                                                     balance and shard-scan fan-out)
//	GET  /api/trace/{id}                               → one retained query-lifecycle trace (span tree)
//	GET  /api/traces/recent[?n=20][&user=...][&min_ms=...]
//	                                                   → recently retained traces, newest first,
//	                                                     optionally filtered by tenant and latency floor
//	GET  /api/tenants                                  → per-tenant cost accounts, heaviest first
//	                                                     (queries, cache hits, facts scanned, CPU,
//	                                                     artifact bytes, sharing/caching credits)
//	GET  /api/queries/top[?n=20]                       → heavy-query profiles by decay-weighted cost
//	                                                     (count, mean/p99 latency, mean cost vector,
//	                                                     last trace ID)
//	GET  /metrics                                      → Prometheus text exposition (latency histograms
//	                                                     + scheduler, tenant-cost and Go runtime
//	                                                     telemetry)
//	GET  /api/healthz                                  → liveness
//
// Query endpoints correlate with traces via the X-Request-Id header: a
// client-supplied value is adopted as the trace ID, otherwise one is
// generated, and either way it is echoed on the response — success and
// error alike (admission timeouts included), so a 504 can still be looked
// up under /api/trace/{id}. Error bodies carry the same ID as requestId.
// The map exports (/api/geojson, /api/map.svg) echo an ID too, so a failed
// render's 500 names the request.
//
// Query-path status contract: 400 invalid query, 404 unknown session,
// 429 shed by the overload controller (over-share tenant under
// MaxQueueDepth/TargetQueueWait breach; the response carries a
// Retry-After header in whole seconds derived from the observed queue
// drain rate), 503 engine shutting down, 504 dropped at the admission
// deadline (QueryTimeout). See docs/OPERATIONS.md.
package webapi

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sdwp/internal/core"
	"sdwp/internal/cube"
	"sdwp/internal/export"
	"sdwp/internal/geom"
	"sdwp/internal/obs"
	"sdwp/internal/prml"
	"sdwp/internal/qsched"
)

// Server serves the personalization API for one engine.
type Server struct {
	engine *core.Engine
	mux    *http.ServeMux

	mu       sync.Mutex
	sessions map[string]*core.Session // token → session
}

// NewServer builds a Server and its routes.
func NewServer(e *core.Engine) *Server {
	s := &Server{
		engine:   e,
		mux:      http.NewServeMux(),
		sessions: map[string]*core.Session{},
	}
	s.mux.HandleFunc("/api/login", s.handleLogin)
	s.mux.HandleFunc("/api/logout", s.handleLogout)
	s.mux.HandleFunc("/api/schema", s.handleSchema)
	s.mux.HandleFunc("/api/query", s.handleQuery)
	s.mux.HandleFunc("/api/query/batch", s.handleQueryBatch)
	s.mux.HandleFunc("/api/select", s.handleSelect)
	s.mux.HandleFunc("/api/profile", s.handleProfile)
	s.mux.HandleFunc("/api/rules", s.handleRules)
	s.mux.HandleFunc("/api/layers", s.handleLayers)
	s.mux.HandleFunc("/api/geojson", s.handleGeoJSON)
	s.mux.HandleFunc("/api/map.svg", s.handleMapSVG)
	s.mux.HandleFunc("/api/stats", s.handleStats)
	s.mux.HandleFunc("GET /api/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /api/traces/recent", s.handleTracesRecent)
	s.mux.HandleFunc("GET /api/tenants", s.handleTenants)
	s.mux.HandleFunc("GET /api/queries/top", s.handleQueriesTop)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("/api/healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// --- helpers ---

type apiError struct {
	Error string `json:"error"`
	// RequestID is the request's correlation ID (the X-Request-Id response
	// header), present on the query endpoints so a failed query — a 504
	// admission timeout in particular — can be looked up at /api/trace/{id}.
	RequestID string `json:"requestId,omitempty"`
}

// jsonBufPool recycles writeBody's response buffers. A buffer that grew
// past maxPooledJSONBuf (room for a 10 000-row drilldown body after
// doubling growth, not for a dump of the whole cube) is dropped rather
// than pinned by the pool.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledJSONBuf = 4 << 20

// writeJSON encodes v into a pooled buffer and sends it in one Write with
// Content-Length set — the bytes are exactly json.Encoder's (trailing
// newline included), but a 500 KB result costs one write to the
// connection instead of one per encoder flush, and a value that cannot be
// encoded becomes a clean 500 instead of a truncated 200. Query answers
// (a *cube.Result, a batch of them) are appended by AppendResult and
// AppendBatch, everything else by json.Encoder.
func writeJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, "application/json", func(buf *bytes.Buffer) error {
		var body []byte
		var err error
		switch v := v.(type) {
		case *cube.Result:
			body, err = AppendResult(buf.AvailableBuffer(), v)
		case batchQueryResponse:
			body, err = AppendBatch(buf.AvailableBuffer(), v.Results)
		default:
			err = json.NewEncoder(buf).Encode(v)
		}
		if err != nil {
			return fmt.Errorf("encode response: %w", err)
		}
		if body != nil {
			buf.Write(append(body, '\n'))
		}
		return nil
	})
}

// writeBody renders a response body into a pooled buffer and sends it in
// one Write with Content-Type and Content-Length set. A render error
// becomes a JSON 500 carrying the error text (and the request ID) instead
// of a truncated 200.
func writeBody(w http.ResponseWriter, status int, contentType string, render func(*bytes.Buffer) error) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := render(buf); err != nil {
		buf.Reset()
		status, contentType = http.StatusInternalServerError, "application/json"
		_ = json.NewEncoder(buf).Encode(apiError{
			Error:     err.Error(),
			RequestID: w.Header().Get("X-Request-Id"),
		})
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // a failed write means the client went away
	if buf.Cap() <= maxPooledJSONBuf {
		jsonBufPool.Put(buf)
	}
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	// The request ID was stamped on the response header by startTrace
	// before any handler work; echo it in the body too ("" elsewhere).
	writeJSON(w, status, apiError{
		Error:     fmt.Sprintf(format, args...),
		RequestID: w.Header().Get("X-Request-Id"),
	})
}

// startTrace gives the request its correlation ID — adopting the client's
// X-Request-Id when present, generating one otherwise — stamps it on the
// response header before any body is written (so success, validation 400
// and timeout 504 responses all carry it), and, when tracing is enabled,
// starts a lifecycle trace that rides the returned context into the
// scheduler. The returned trace is nil when tracing is off; every use
// below is nil-safe.
func (s *Server) startTrace(w http.ResponseWriter, r *http.Request) (context.Context, *obs.Trace) {
	tr := s.engine.Tracer().Start(r.Header.Get("X-Request-Id"))
	id := tr.ID()
	if id == "" {
		id = obs.RequestID(r.Header.Get("X-Request-Id"))
	}
	w.Header().Set("X-Request-Id", id)
	return obs.NewContext(r.Context(), tr), tr
}

// stampRequestID gives a request that starts no trace its correlation ID
// (the client's X-Request-Id, or a generated one) on the response header,
// where writeBody's error body picks it up.
func stampRequestID(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("X-Request-Id", obs.RequestID(r.Header.Get("X-Request-Id")))
}

// maxBodyBytes bounds every request body, well above the largest one the
// CLI, the load generator and the tests send.
const maxBodyBytes = 8 << 20

// decodeBody decodes exactly one JSON value of at most maxBodyBytes into v:
// an oversized body is a 413, a malformed one or trailing data a 400.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		var extra json.RawMessage
		switch err = dec.Decode(&extra); err {
		case io.EOF:
			return true
		case nil:
			err = errors.New("trailing data after the JSON value")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBodyBytes)
		return false
	}
	writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
	return false
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		writeErr(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return false
	}
	return true
}

func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is not recoverable
	}
	return hex.EncodeToString(b[:])
}

func (s *Server) session(token string) *core.Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[token]
}

// --- handlers ---

type loginRequest struct {
	User        string `json:"user"`
	LocationWKT string `json:"locationWKT,omitempty"`
}

type loginResponse struct {
	Session    string   `json:"session"`
	SchemaDiff []string `json:"schemaDiff,omitempty"`
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req loginRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.User == "" {
		writeErr(w, http.StatusBadRequest, "user is required")
		return
	}
	var loc geom.Geometry
	if req.LocationWKT != "" {
		g, err := geom.ParseWKT(req.LocationWKT)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad locationWKT: %v", err)
			return
		}
		loc = g
	}
	sess, err := s.engine.StartSession(req.User, loc)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "session start failed: %v", err)
		return
	}
	token := newToken()
	s.mu.Lock()
	s.sessions[token] = sess
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, loginResponse{
		Session:    token,
		SchemaDiff: sess.Schema().Diff(s.engine.Cube().Schema()),
	})
}

type logoutRequest struct {
	Session string `json:"session"`
}

func (s *Server) handleLogout(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req logoutRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sess := s.session(req.Session)
	if sess == nil {
		writeErr(w, http.StatusNotFound, "unknown session")
		return
	}
	if err := s.engine.EndSession(sess); err != nil {
		writeErr(w, http.StatusInternalServerError, "session end failed: %v", err)
		return
	}
	s.mu.Lock()
	delete(s.sessions, req.Session)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	sess := s.session(r.URL.Query().Get("session"))
	if sess == nil {
		writeErr(w, http.StatusNotFound, "unknown session")
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, sess.Schema().Render())
		return
	}
	writeJSON(w, http.StatusOK, sess.Schema())
}

type queryRequest struct {
	Session string `json:"session"`
	querySpec
}

// querySpec is the wire form of one OLAP query (shared by /api/query and
// the entries of /api/query/batch).
type querySpec struct {
	Fact       string        `json:"fact"`
	GroupBy    []levelRef    `json:"groupBy,omitempty"`
	Aggregates []measureAgg  `json:"aggregates"`
	Filters    []attrFilter  `json:"filters,omitempty"`
	OrderBy    *cube.OrderBy `json:"orderBy,omitempty"`
	Limit      int           `json:"limit,omitempty"`
	Baseline   bool          `json:"baseline,omitempty"` // bypass personalization
}

type levelRef struct {
	Dimension string `json:"dimension"`
	Level     string `json:"level"`
}

type measureAgg struct {
	Measure string `json:"measure,omitempty"`
	Agg     string `json:"agg"`
}

type attrFilter struct {
	Dimension string `json:"dimension"`
	Level     string `json:"level"`
	Attr      string `json:"attr"`
	Op        string `json:"op"` // =, <>, <, <=, >, >=
	Value     any    `json:"value"`
}

// filterOps maps the wire operators to cube filter operators.
var filterOps = map[string]cube.FilterOp{
	"=": cube.OpEq, "<>": cube.OpNe, "<": cube.OpLt,
	"<=": cube.OpLe, ">": cube.OpGt, ">=": cube.OpGe,
}

// toCubeQuery translates a wire query into a cube query.
func (qs querySpec) toCubeQuery() (cube.Query, error) {
	q := cube.Query{Fact: qs.Fact, OrderBy: qs.OrderBy, Limit: qs.Limit}
	for _, g := range qs.GroupBy {
		q.GroupBy = append(q.GroupBy, cube.LevelRef{Dimension: g.Dimension, Level: g.Level})
	}
	for _, a := range qs.Aggregates {
		agg, err := cube.ParseAgg(a.Agg)
		if err != nil {
			return cube.Query{}, err
		}
		q.Aggregates = append(q.Aggregates, cube.MeasureAgg{Measure: a.Measure, Agg: agg})
	}
	for _, f := range qs.Filters {
		op, ok := filterOps[f.Op]
		if !ok {
			return cube.Query{}, fmt.Errorf("unknown filter operator %q", f.Op)
		}
		q.Filters = append(q.Filters, cube.AttrFilter{
			LevelRef: cube.LevelRef{Dimension: f.Dimension, Level: f.Level},
			Attr:     f.Attr, Op: op, Value: f.Value,
		})
	}
	return q, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	ctx, tr := s.startTrace(w, r)
	var req queryRequest
	if !decodeBody(w, r, &req) {
		tr.Finish(errBadRequest)
		return
	}
	sess := s.session(req.Session)
	if sess == nil {
		tr.Finish(errUnknownSession)
		writeErr(w, http.StatusNotFound, "unknown session")
		return
	}
	q, err := req.toCubeQuery()
	if err != nil {
		tr.Finish(err)
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The request context rides into the scheduler — carrying the trace —
	// so a client that hangs up unblocks the handler, and
	// core.Options.QueryTimeout (or an upstream context deadline) drops
	// the query from the admission queue instead of executing it late.
	var res *cube.Result
	if req.Baseline {
		res, err = sess.QueryBaselineCtx(ctx, q)
	} else {
		res, err = sess.QueryCtx(ctx, q)
	}
	if err != nil {
		tr.Finish(err) // idempotent: queries that reached the scheduler are already finished
		setRetryAfter(w, err)
		writeErr(w, queryErrStatus(err), "query failed: %v", err)
		return
	}
	tr.Finish(nil)
	writeJSON(w, http.StatusOK, res)
}

// Sentinel errors for trace retention on requests rejected before they
// reach the scheduler (the response body carries the detailed message).
var (
	errBadRequest     = errors.New("bad request body")
	errUnknownSession = errors.New("unknown session")
)

// queryErrStatus maps a query-path error to its HTTP status: a closed
// scheduler is a server lifecycle condition (shutdown in progress), an
// admission timeout is the scheduler dropping stale queued work at the
// deadline, and an overload shed is the scheduler refusing an over-share
// tenant up front — none of these is a client mistake; nor is a scan that
// failed inside the server (qsched.ErrInternal).
func queryErrStatus(err error) int {
	switch {
	case errors.Is(err, qsched.ErrInternal):
		return http.StatusInternalServerError
	case errors.Is(err, qsched.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, qsched.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, qsched.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	}
	return http.StatusBadRequest
}

// setRetryAfter stamps the Retry-After header (whole seconds, rounded up,
// never 0) when the error carries the scheduler's drain-rate-derived
// retry hint. Must run before the status line is written.
func setRetryAfter(w http.ResponseWriter, err error) {
	var oe *qsched.OverloadError
	if !errors.As(err, &oe) {
		return
	}
	secs := int((oe.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

type batchQueryRequest struct {
	Session string      `json:"session"`
	Queries []querySpec `json:"queries"`
}

type batchQueryResponse struct {
	Results []*cube.Result `json:"results"`
}

// handleQueryBatch answers many queries of one session through the
// scheduler in one admission (qsched.SubmitBatchCtx), which scans them
// together with whatever else is queued — one shared scan per fact table:
// the wire shape of a dashboard refreshing all of its tiles at once.
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	ctx, tr := s.startTrace(w, r)
	var req batchQueryRequest
	if !decodeBody(w, r, &req) {
		tr.Finish(errBadRequest)
		return
	}
	sess := s.session(req.Session)
	if sess == nil {
		tr.Finish(errUnknownSession)
		writeErr(w, http.StatusNotFound, "unknown session")
		return
	}
	if len(req.Queries) == 0 {
		tr.Finish(errBadRequest)
		writeErr(w, http.StatusBadRequest, "batch needs at least one query")
		return
	}
	// The cap bounds the per-request scan memory (each query holds its own
	// partial aggregation tables) and is the same limit the scheduler uses
	// for one coalesced shared scan: qsched.DefaultMaxBatch.
	if len(req.Queries) > qsched.DefaultMaxBatch {
		tr.Finish(errBadRequest)
		writeErr(w, http.StatusBadRequest, "batch has %d queries, max %d",
			len(req.Queries), qsched.DefaultMaxBatch)
		return
	}
	qs := make([]cube.Query, len(req.Queries))
	baseline := make([]bool, len(req.Queries))
	for i, spec := range req.Queries {
		q, err := spec.toCubeQuery()
		if err != nil {
			tr.Finish(err)
			writeErr(w, http.StatusBadRequest, "query %d: %v", i, err)
			return
		}
		qs[i] = q
		baseline[i] = spec.Baseline
	}
	// All queries of the HTTP batch share one trace (one request, one
	// span tree); the first of them to complete freezes its duration.
	results, err := sess.QueryBatchCtx(ctx, qs, baseline)
	if err != nil {
		tr.Finish(err)
		setRetryAfter(w, err)
		writeErr(w, queryErrStatus(err), "batch query failed: %v", err)
		return
	}
	tr.Finish(nil)
	writeJSON(w, http.StatusOK, batchQueryResponse{Results: results})
}

type selectRequest struct {
	Session   string `json:"session"`
	Target    string `json:"target"`
	Predicate string `json:"predicate"`
}

type selectResponse struct {
	Selected   []string `json:"selected"`
	RulesFired []string `json:"rulesFired,omitempty"`
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req selectRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sess := s.session(req.Session)
	if sess == nil {
		writeErr(w, http.StatusNotFound, "unknown session")
		return
	}
	res, err := sess.SpatialSelect(req.Target, req.Predicate)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "selection failed: %v", err)
		return
	}
	resp := selectResponse{RulesFired: res.RulesFired}
	for _, inst := range res.Selected {
		resp.Selected = append(resp.Selected, s.instanceName(inst))
	}
	writeJSON(w, http.StatusOK, resp)
}

// instanceName renders a selected instance as its display name.
func (s *Server) instanceName(inst prml.Instance) string {
	c := s.engine.Cube()
	switch inst.Kind {
	case prml.InstMember:
		if dd := c.Dimension(inst.Dimension); dd != nil {
			if ld := dd.Level(inst.Level); ld != nil && int(inst.Index) < ld.Len() {
				return ld.Name(inst.Index)
			}
		}
	case prml.InstLayerObject:
		if ld := c.Layer(inst.Layer); ld != nil && int(inst.Index) < ld.Len() {
			return ld.Name(inst.Index)
		}
	}
	return inst.String()
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	user := r.URL.Query().Get("user")
	if s.engine.Users().Get(user) == nil {
		writeErr(w, http.StatusNotFound, "unknown user %q", user)
		return
	}
	// Serialize just this user through the store's JSON form.
	data, err := json.Marshal(s.engine.Users())
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "profile marshal: %v", err)
		return
	}
	var all map[string]json.RawMessage
	if err := json.Unmarshal(data, &all); err != nil {
		writeErr(w, http.StatusInternalServerError, "profile unmarshal: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(all[user])
}

type rulesRequest struct {
	Source string `json:"source,omitempty"` // POST: PRML source to register
	Name   string `json:"name,omitempty"`   // DELETE: rule to remove
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, prml.Format(s.engine.Rules()...))
	case http.MethodPost:
		var req rulesRequest
		if !decodeBody(w, r, &req) {
			return
		}
		rules, err := s.engine.AddRules(req.Source)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "rules rejected: %v", err)
			return
		}
		names := make([]string, len(rules))
		for i, rl := range rules {
			names[i] = rl.Name
		}
		writeJSON(w, http.StatusOK, map[string]any{"added": names})
	case http.MethodDelete:
		var req rulesRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if req.Name == "" {
			writeErr(w, http.StatusBadRequest, "name is required")
			return
		}
		if !s.engine.RemoveRule(req.Name) {
			writeErr(w, http.StatusNotFound, "no rule named %q", req.Name)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"removed": req.Name})
	default:
		writeErr(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

type layerInfo struct {
	Name    string `json:"name"`
	Type    string `json:"type"`
	Objects int    `json:"objects"`
}

func (s *Server) handleLayers(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	c := s.engine.Cube()
	var out []layerInfo
	for _, name := range c.Layers() {
		ld := c.Layer(name)
		out = append(out, layerInfo{Name: name, Type: ld.Type().String(), Objects: ld.Len()})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleGeoJSON renders the session's personalized map: the layers and
// spatial levels of their schema plus selection states (see package
// export).
func (s *Server) handleGeoJSON(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	sess := s.session(r.URL.Query().Get("session"))
	if sess == nil {
		writeErr(w, http.StatusNotFound, "unknown session")
		return
	}
	opts := export.Options{SelectedOnly: r.URL.Query().Get("selected") == "1"}
	if tol := r.URL.Query().Get("simplify"); tol != "" {
		v, err := strconv.ParseFloat(tol, 64)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, "bad simplify tolerance %q", tol)
			return
		}
		opts.SimplifyTolerance = v
	}
	stampRequestID(w, r)
	writeBody(w, http.StatusOK, "application/geo+json", func(buf *bytes.Buffer) error {
		body, err := export.AppendSession(buf.AvailableBuffer(), sess, opts)
		if err != nil {
			return fmt.Errorf("export failed: %w", err)
		}
		buf.Write(body)
		return nil
	})
}

// handleMapSVG renders the session's personalized map as an SVG image.
func (s *Server) handleMapSVG(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	sess := s.session(r.URL.Query().Get("session"))
	if sess == nil {
		writeErr(w, http.StatusNotFound, "unknown session")
		return
	}
	opts := export.SVGOptions{}
	if ws := r.URL.Query().Get("width"); ws != "" {
		v, err := strconv.Atoi(ws)
		if err != nil || v <= 0 || v > 8192 {
			writeErr(w, http.StatusBadRequest, "bad width %q", ws)
			return
		}
		opts.Width = v
	}
	stampRequestID(w, r)
	writeBody(w, http.StatusOK, "image/svg+xml", func(buf *bytes.Buffer) error {
		svg, err := export.AppendSessionSVG(buf.AvailableBuffer(), sess, opts)
		if err != nil {
			return fmt.Errorf("render failed: %w", err)
		}
		buf.Write(svg)
		return nil
	})
}

// handleStats serves the query scheduler's counters: how many queries
// coalesced into how few shared scans, result-cache effectiveness
// (including doorkeeper admissions), how much
// cross-query stage work batch scans shared (filterMaskSharing,
// predicateSharing — per-filter bitmaps AND-composed into set masks,
// composedMasks — and groupKeySharing ratios), admission timeouts, the
// live queue depth, the overload-control state (shedTotal, shedByTenant,
// shedRatePerSec, queueWaitEwmaMs, drainRatePerSec — snapshotted under one
// lock with the queue depth, so the breakdown always sums to the total),
// the per-tenant fair-share ledgers (fairShares), the fact tables'
// cross-batch artifact-cache counters (artifactCache, its admission
// doorkeeper under artifactCache.doorkept), and — on a sharded engine —
// the shard fan-out: the observability surface of internal/qsched +
// internal/shard.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, s.engine.SchedulerStats())
}

// handleTrace serves one retained query-lifecycle trace: the span tree
// (admission wait, compile, shared scan with per-shard stage timings,
// finalize) of a query that was sampled or ended in an error. Look-ups
// use the X-Request-Id echoed on the query response.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	t := s.engine.Tracer()
	if t == nil {
		writeErr(w, http.StatusNotFound, "tracing is disabled (set core.Options.TraceSampleRate > 0)")
		return
	}
	id := r.PathValue("id")
	snap, ok := t.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no trace %q (not sampled, evicted, or never seen)", id)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleTracesRecent lists recently retained traces, newest first.
// ?user= keeps one tenant's traces, ?min_ms= keeps traces at least that
// slow, and ?n= / ?limit= cap the count (default 20).
func (s *Server) handleTracesRecent(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n := 20
	for _, key := range []string{"n", "limit"} {
		if ns := q.Get(key); ns != "" {
			v, err := strconv.Atoi(ns)
			if err != nil || v <= 0 {
				writeErr(w, http.StatusBadRequest, "bad %s %q", key, ns)
				return
			}
			n = v
		}
	}
	var minMs float64
	if ms := q.Get("min_ms"); ms != "" {
		v, err := strconv.ParseFloat(ms, 64)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, "bad min_ms %q", ms)
			return
		}
		minMs = v
	}
	user, filterUser := q.Get("user"), q.Has("user")
	var keep func(obs.TraceSnapshot) bool
	if filterUser || minMs > 0 {
		keep = func(ts obs.TraceSnapshot) bool {
			if filterUser && ts.User != user {
				return false
			}
			return float64(ts.DurNs)/1e6 >= minMs
		}
	}
	out := s.engine.Tracer().RecentFiltered(n, keep) // nil-safe: nil tracer → no traces
	if out == nil {
		out = []obs.TraceSnapshot{}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTenants serves the per-tenant cost accounts, heaviest first:
// query and cache-hit counts, hit rate, and the accumulated cost vector
// (facts scanned, artifact bytes, CPU, sharing and caching credits).
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	out := s.engine.Accountant().Tenants()
	if out == nil {
		out = []obs.TenantStat{}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleQueriesTop serves the heavy-query profile registry: the top-n
// query fingerprints by decay-weighted cumulative cost, with call counts,
// mean/p99 latency, mean cost vector and the last retained trace ID.
func (s *Server) handleQueriesTop(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	n := 20
	if ns := r.URL.Query().Get("n"); ns != "" {
		v, err := strconv.Atoi(ns)
		if err != nil || v <= 0 {
			writeErr(w, http.StatusBadRequest, "bad n %q", ns)
			return
		}
		n = v
	}
	out := s.engine.Accountant().TopQueries(n)
	if out == nil {
		out = []obs.QueryProfile{}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics renders the engine's telemetry registry — per-stage
// latency histograms plus the scheduler counters — in the Prometheus
// text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.engine.MetricsRegistry().WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

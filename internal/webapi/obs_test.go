package webapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdwp/internal/core"
	"sdwp/internal/datagen"
	"sdwp/internal/obs"
	"sdwp/internal/prml"
)

// newObsServer is newTestServerOpts plus the engine handle, which the
// telemetry tests need for AddFact ingest during scrapes.
func newObsServer(t *testing.T, opts core.Options) (*httptest.Server, *core.Engine) {
	t.Helper()
	cfg := datagen.Default()
	cfg.Cities = 20
	cfg.Stores = 80
	cfg.Customers = 50
	cfg.Sales = 1500
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	users, err := datagen.NewUserStore(map[string]string{
		"alice": "RegionalSalesManager",
		"bob":   "Accountant",
	})
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(ds.Cube, users, opts)
	e.SetParam("threshold", prml.NumberVal(2))
	if _, err := e.AddRules(testRules); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	srv := httptest.NewServer(NewServer(e))
	t.Cleanup(srv.Close)
	return srv, e
}

func countBody(session string) map[string]any {
	return map[string]any{
		"session":    session,
		"fact":       "Sales",
		"aggregates": []map[string]any{{"agg": "COUNT"}},
	}
}

// postWithHeader is postJSON with request headers.
func postWithHeader(t *testing.T, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
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

// TestTraceRoundTrip drives the tentpole end to end: a client-supplied
// X-Request-Id is adopted as the trace ID, echoed on the response, and
// the retained trace is served by GET /api/trace/{id} with the full
// lifecycle span tree.
func TestTraceRoundTrip(t *testing.T) {
	srv, _ := newObsServer(t, core.Options{TraceSampleRate: 1})
	sess := login(t, srv, "alice", "POINT(-3.7 40.4)")

	resp, body := postWithHeader(t, srv.URL+"/api/query", countBody(sess),
		map[string]string{"X-Request-Id": "round-trip-1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %s (%s)", resp.Status, body)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "round-trip-1" {
		t.Fatalf("X-Request-Id = %q, want the client's ID echoed", got)
	}

	resp, body = getBody(t, srv.URL+"/api/trace/round-trip-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace lookup: %s (%s)", resp.Status, body)
	}
	var snap obs.TraceSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != "round-trip-1" || snap.DurNs <= 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	have := map[string]bool{}
	for _, sp := range snap.Spans {
		have[sp.Name] = true
	}
	for _, want := range []string{"compile", "admissionWait", "scan", "finalize"} {
		if !have[want] {
			t.Errorf("trace missing span %q: %+v", want, snap.Spans)
		}
	}

	resp, body = getBody(t, srv.URL+"/api/traces/recent")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "round-trip-1") {
		t.Fatalf("traces/recent: %s (%s)", resp.Status, body)
	}

	// Unknown trace ID: a 404 that still carries a request ID.
	resp, body = getBody(t, srv.URL+"/api/trace/never-seen")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: %s (%s)", resp.Status, body)
	}
}

// TestBatchTraceAdmissionSpans checks that a batch's trace carries the
// same admission spans a lone query's does: one resultCache span per
// entry answered from the cache and one compile span per entry that
// missed it.
func TestBatchTraceAdmissionSpans(t *testing.T) {
	srv, _ := newObsServer(t, core.Options{TraceSampleRate: 1, ResultCacheBytes: 1 << 20})
	sess := login(t, srv, "alice", "POINT(-3.7 40.4)")
	hot := map[string]any{"fact": "Sales", "aggregates": []map[string]any{{"agg": "COUNT"}}}
	batch := func(id string, queries ...map[string]any) {
		t.Helper()
		resp, body := postWithHeader(t, srv.URL+"/api/query/batch",
			map[string]any{"session": sess, "queries": queries},
			map[string]string{"X-Request-Id": id})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %s: %s (%s)", id, resp.Status, body)
		}
	}
	// The doorkeeper caches a fingerprint's result on its second request.
	batch("warm-1", hot)
	batch("warm-2", hot)
	batch("mixed", hot,
		map[string]any{"fact": "Sales", "aggregates": []map[string]any{{"agg": "COUNT"}}, "limit": 7},
		map[string]any{"fact": "Sales", "aggregates": []map[string]any{{"measure": "UnitSales", "agg": "SUM"}}})

	resp, body := getBody(t, srv.URL+"/api/trace/mixed")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace lookup: %s (%s)", resp.Status, body)
	}
	var snap obs.TraceSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, sp := range snap.Spans {
		count[sp.Name]++
		if sp.Name == "resultCache" {
			if hit, _ := sp.Attrs["hit"].(bool); !hit {
				t.Errorf("resultCache span without hit=true: %v", sp.Attrs)
			}
		}
	}
	if count["resultCache"] != 1 || count["compile"] != 2 {
		t.Errorf("spans = %v, want 1 resultCache (the hit) and 2 compile (the misses)", count)
	}
}

// TestShardedTraceFanout checks the sharded scatter-gather path records
// one shardScan child per fact shard inside the shared scan span.
func TestShardedTraceFanout(t *testing.T) {
	srv, _ := newObsServer(t, core.Options{FactShards: 3, TraceSampleRate: 1})
	sess := login(t, srv, "alice", "POINT(-3.7 40.4)")
	resp, body := postWithHeader(t, srv.URL+"/api/query", countBody(sess),
		map[string]string{"X-Request-Id": "sharded-1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %s (%s)", resp.Status, body)
	}
	_, body = getBody(t, srv.URL+"/api/trace/sharded-1")
	var snap obs.TraceSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	shardScans := 0
	for _, sp := range snap.Spans {
		if sp.Name != "scan" {
			continue
		}
		for _, c := range sp.Children {
			if c.Name == "shardScan" {
				shardScans++
			}
		}
	}
	if shardScans != 3 {
		t.Fatalf("scan span has %d shardScan children, want 3\n%s", shardScans, body)
	}
}

// TestErrorResponsesCarryRequestID checks satellite (b): validation 400s
// and admission-timeout 504s echo the request ID on header and body.
func TestErrorResponsesCarryRequestID(t *testing.T) {
	// Tracing disabled (the default): IDs are still generated and echoed.
	srv, _ := newObsServer(t, core.Options{})
	sess := login(t, srv, "bob", "POINT(-3.7 40.4)")

	bad := countBody(sess)
	bad["aggregates"] = []map[string]any{{"agg": "BOGUS"}}
	resp, body := postWithHeader(t, srv.URL+"/api/query", bad, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad agg: %s (%s)", resp.Status, body)
	}
	hdrID := resp.Header.Get("X-Request-Id")
	if hdrID == "" {
		t.Fatal("400 without X-Request-Id header")
	}
	var apiErr struct {
		Error     string `json:"error"`
		RequestID string `json:"requestId"`
	}
	if err := json.Unmarshal(body, &apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.RequestID != hdrID {
		t.Fatalf("400 body requestId %q != header %q", apiErr.RequestID, hdrID)
	}

	resp, body = postWithHeader(t, srv.URL+"/api/query", countBody("no-such-session"),
		map[string]string{"X-Request-Id": "sess-miss-1"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: %s (%s)", resp.Status, body)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "sess-miss-1" {
		t.Fatalf("404 X-Request-Id = %q", got)
	}
	if !strings.Contains(string(body), `"requestId":"sess-miss-1"`) {
		t.Fatalf("404 body missing requestId: %s", body)
	}
}

// TestTimeout504CarriesTraceID checks the flagship correlation path: a
// query dropped past its admission deadline answers 504 with its trace
// ID echoed, and the trace — retained because it erred — shows the
// timed-out admission wait. A 1ns deadline has always passed when the
// query is assembled: admission and assembly read the clock separately,
// around the queue insert. The scheduler's own tests pin the timeout of a
// query queued behind a stalled scan.
func TestTimeout504CarriesTraceID(t *testing.T) {
	srv, _ := newObsServer(t, core.Options{
		QueryTimeout:    time.Nanosecond,
		TraceSampleRate: 1,
	})
	sess := login(t, srv, "alice", "POINT(-3.7 40.4)")
	resp, body := postWithHeader(t, srv.URL+"/api/query", countBody(sess),
		map[string]string{"X-Request-Id": "timeout-1"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %s, want 504 (%s)", resp.Status, body)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "timeout-1" {
		t.Fatalf("504 X-Request-Id = %q", got)
	}
	if !strings.Contains(string(body), `"requestId":"timeout-1"`) {
		t.Fatalf("504 body missing requestId: %s", body)
	}
	resp, body = getBody(t, srv.URL+"/api/trace/timeout-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace of timed-out query: %s (%s)", resp.Status, body)
	}
	var snap obs.TraceSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Error == "" {
		t.Fatalf("timed-out trace has no error: %s", body)
	}
}

// TestMetricsExposition checks GET /metrics: correct content type, the
// standard histograms and re-exported scheduler counters, every sample
// line well-formed.
func TestMetricsExposition(t *testing.T) {
	srv, _ := newObsServer(t, core.Options{})
	sess := login(t, srv, "alice", "POINT(-3.7 40.4)")
	for i := 0; i < 3; i++ {
		if resp, body := postJSON(t, srv.URL+"/api/query", countBody(sess)); resp.StatusCode != http.StatusOK {
			t.Fatalf("query: %s (%s)", resp.Status, body)
		}
	}
	resp, body := getBody(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE sdwp_query_duration_seconds histogram",
		`sdwp_query_duration_seconds_bucket{user="alice",le="+Inf"} 3`,
		"sdwp_query_queue_wait_seconds_count",
		"sdwp_batch_scan_seconds_count",
		"sdwp_batch_merge_seconds_count",
		"# TYPE sdwp_queries_submitted_total counter",
		"sdwp_queries_submitted_total 3",
		"sdwp_uptime_seconds",
		"sdwp_queue_depth",
		// Compressed-column storage gauges: present, and non-zero for a
		// loaded warehouse.
		"# TYPE sdwp_packed_kernel_scans_total counter",
		"sdwp_packed_predicate_kernels_total",
		"sdwp_packed_columns 4",
		"sdwp_packed_bytes",
		"sdwp_packed_unpacked_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, " ") {
			t.Errorf("malformed metrics line %q", line)
		}
	}
}

// TestMetricsScrapeUnderShardedLoad is the stress.sh race target: scrape
// /metrics and /api/stats continuously while sharded batches execute,
// AddFact ingest routes to shards, and the overload controller sheds part
// of the traffic — the lock-free histograms, the scheduler-counter
// collector, the shed/fair-share snapshot, and the trace ring all under
// fire. Every /api/stats snapshot must be internally consistent: the
// per-tenant shed breakdown sums to the shed total even while both move.
func TestMetricsScrapeUnderShardedLoad(t *testing.T) {
	srv, e := newObsServer(t, core.Options{
		FactShards:      3,
		TraceSampleRate: 0.5,
		MaxQueueDepth:   1, // any backlog is a breach: sheds are routine here
	})
	aliceSess := login(t, srv, "alice", "POINT(-3.7 40.4)")
	bobSess := login(t, srv, "bob", "POINT(-3.7 40.4)")

	deadline := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	var sheds atomic.Int64
	fail := make(chan string, 32)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}

	for _, sess := range []string{aliceSess, bobSess} {
		wg.Add(1)
		go func(sess string) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				resp, body := postJSON(t, srv.URL+"/api/query", countBody(sess))
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusTooManyRequests:
					sheds.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						report("429 without Retry-After header")
						return
					}
				default:
					report("query: %s (%s)", resp.Status, body)
					return
				}
			}
		}(sess)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			if err := e.AddFact("Sales",
				map[string]int32{"Store": int32(i % 80), "Customer": int32(i % 50),
					"Product": 0, "Time": 0},
				map[string]float64{"UnitSales": 1}); err != nil {
				report("AddFact: %v", err)
				return
			}
		}
	}()
	for _, path := range []string{"/metrics", "/api/traces/recent"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				resp, body := getBody(t, srv.URL+path)
				if resp.StatusCode != http.StatusOK {
					report("%s: %s (%s)", path, resp.Status, body)
					return
				}
			}
		}(path)
	}
	// The torn-read scraper: every stats snapshot's shed breakdown must sum
	// to its shed total, even with sheds landing between scrapes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last int64
		for time.Now().Before(deadline) {
			resp, body := getBody(t, srv.URL+"/api/stats")
			if resp.StatusCode != http.StatusOK {
				report("/api/stats: %s (%s)", resp.Status, body)
				return
			}
			var st struct {
				ShedTotal    int64                       `json:"shedTotal"`
				ShedByTenant map[string]map[string]int64 `json:"shedByTenant"`
			}
			if err := json.Unmarshal(body, &st); err != nil {
				report("/api/stats decode: %v", err)
				return
			}
			var sum int64
			for _, byReason := range st.ShedByTenant {
				for _, n := range byReason {
					sum += n
				}
			}
			if sum != st.ShedTotal {
				report("torn snapshot: shedByTenant sums to %d, shedTotal %d", sum, st.ShedTotal)
				return
			}
			if st.ShedTotal < last {
				report("shedTotal went backwards: %d after %d", st.ShedTotal, last)
				return
			}
			last = st.ShedTotal
		}
	}()
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if sheds.Load() == 0 {
		t.Log("no sheds this run; the snapshot invariant still held throughout")
		return
	}
	// The shed counters made it to the exposition surface too.
	_, body := getBody(t, srv.URL+"/metrics")
	for _, want := range []string{"sdwp_shed_total{", "sdwp_shed_rate", "sdwp_tenant_fair_share{"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q after shed traffic", want)
		}
	}
}

// TestOverload429RetryAfter pins the overload HTTP contract: a query shed
// by the scheduler answers 429 with a Retry-After header of at least one
// whole second, on both the single and the batch endpoint. A 1ns
// TargetQueueWait is breached by the first query's own admission wait,
// and a lone tenant is always at its fair share, so every later query is
// shed. The scheduler's TestShedStorm pins the queue-depth shed behind a
// stalled scan, and that the queries shed behind still complete.
func TestOverload429RetryAfter(t *testing.T) {
	srv, _ := newObsServer(t, core.Options{TargetQueueWait: time.Nanosecond})
	sess := login(t, srv, "alice", "POINT(-3.7 40.4)")

	if resp, body := postJSON(t, srv.URL+"/api/query", countBody(sess)); resp.StatusCode != http.StatusOK {
		t.Fatalf("first query: %s, want 200 (%s)", resp.Status, body)
	}

	resp, body := postJSON(t, srv.URL+"/api/query", countBody(sess))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second query: %s, want 429 (%s)", resp.Status, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Errorf("Retry-After = %q, want integer seconds in [1, 60]", resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Errorf("429 body does not say why: %s", body)
	}

	// The batch endpoint sheds with the same contract.
	batch := map[string]any{"session": sess, "queries": []map[string]any{
		{"fact": "Sales", "aggregates": []map[string]any{{"agg": "COUNT"}}},
	}}
	resp, body = postJSON(t, srv.URL+"/api/query/batch", batch)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch: %s, want 429 (%s)", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("batch 429 without Retry-After header")
	}
}

// TestTenantCostEndpoints drives mixed-tenant traffic and checks the
// cost-accounting surface end to end: per-tenant accounts on
// GET /api/tenants, heavy-query profiles on GET /api/queries/top, and
// the sdwp_tenant_* / sdwp_query_profile_* series on /metrics.
func TestTenantCostEndpoints(t *testing.T) {
	srv, _ := newObsServer(t, core.Options{})
	alice := login(t, srv, "alice", "POINT(-3.7 40.4)")
	bob := login(t, srv, "bob", "POINT(-3.7 40.4)")

	groupBody := func(sess string) map[string]any {
		return map[string]any{
			"session":    sess,
			"fact":       "Sales",
			"groupBy":    []map[string]string{{"dimension": "Store", "level": "City"}},
			"aggregates": []map[string]any{{"measure": "UnitSales", "agg": "SUM"}},
		}
	}
	for i := 0; i < 3; i++ {
		if resp, body := postJSON(t, srv.URL+"/api/query", groupBody(alice)); resp.StatusCode != http.StatusOK {
			t.Fatalf("alice query: %s (%s)", resp.Status, body)
		}
	}
	if resp, body := postJSON(t, srv.URL+"/api/query", countBody(bob)); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob query: %s (%s)", resp.Status, body)
	}

	resp, body := getBody(t, srv.URL+"/api/tenants")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/tenants: %s (%s)", resp.Status, body)
	}
	var tenants []obs.TenantStat
	if err := json.Unmarshal(body, &tenants); err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 2 {
		t.Fatalf("tenants = %d (%s), want alice and bob", len(tenants), body)
	}
	byName := map[string]obs.TenantStat{}
	for _, ts := range tenants {
		byName[ts.Tenant] = ts
	}
	if a := byName["alice"]; a.Queries != 3 || a.Cost.FactsScanned <= 0 {
		t.Errorf("alice account %+v", a)
	}
	if b := byName["bob"]; b.Queries != 1 {
		t.Errorf("bob account %+v", b)
	}

	resp, body = getBody(t, srv.URL+"/api/queries/top?n=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/queries/top: %s (%s)", resp.Status, body)
	}
	var top []obs.QueryProfile
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 { // two distinct fingerprints
		t.Fatalf("profiles = %d (%s), want 2", len(top), body)
	}
	if top[0].Count <= 0 || top[0].Fingerprint == "" || top[0].MeanCost.FactsScanned <= 0 {
		t.Errorf("top profile %+v", top[0])
	}

	resp, body = getBody(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	out := string(body)
	for _, want := range []string{
		`sdwp_tenant_queries_total{tenant="alice"} 3`,
		`sdwp_tenant_queries_total{tenant="bob"} 1`,
		`sdwp_tenant_facts_scanned_total{tenant="alice"}`,
		`sdwp_tenant_cpu_seconds_total{tenant="alice"}`,
		`sdwp_tenant_artifact_bytes_total{tenant=`,
		`sdwp_tenant_cache_credit_seconds_total{tenant=`,
		"sdwp_query_profile_count 2",
		"sdwp_query_profile_records_total 4",
		"sdwp_query_profile_evictions_total 0",
		`sdwp_query_queue_wait_seconds_count{user="alice"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestGoRuntimeMetrics checks the runtime telemetry satellite: goroutine
// and heap gauges, the GC pause histogram, and the build-info series.
func TestGoRuntimeMetrics(t *testing.T) {
	srv, _ := newObsServer(t, core.Options{})
	_, body := getBody(t, srv.URL+"/metrics")
	out := string(body)
	for _, want := range []string{
		"# TYPE sdwp_go_goroutines gauge",
		"sdwp_go_goroutines ",
		"# TYPE sdwp_go_heap_bytes gauge",
		"sdwp_go_heap_bytes ",
		"# TYPE sdwp_go_gc_pause_seconds histogram",
		`sdwp_go_gc_pause_seconds_bucket{le="+Inf"}`,
		"sdwp_go_gc_pause_seconds_count",
		"# TYPE sdwp_build_info gauge",
		`sdwp_build_info{`,
		`goversion="go`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTracesRecentFilters checks the ?user=, ?min_ms= and ?limit= query
// parameters on GET /api/traces/recent.
func TestTracesRecentFilters(t *testing.T) {
	srv, _ := newObsServer(t, core.Options{TraceSampleRate: 1})
	alice := login(t, srv, "alice", "POINT(-3.7 40.4)")
	bob := login(t, srv, "bob", "POINT(-3.7 40.4)")
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, srv.URL+"/api/query", countBody(alice)); resp.StatusCode != http.StatusOK {
			t.Fatalf("alice query: %s (%s)", resp.Status, body)
		}
	}
	if resp, body := postJSON(t, srv.URL+"/api/query", countBody(bob)); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob query: %s (%s)", resp.Status, body)
	}

	fetch := func(query string) []obs.TraceSnapshot {
		t.Helper()
		resp, body := getBody(t, srv.URL+"/api/traces/recent"+query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("traces/recent%s: %s (%s)", query, resp.Status, body)
		}
		var out []obs.TraceSnapshot
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	if all := fetch(""); len(all) != 3 {
		t.Fatalf("unfiltered traces = %d, want 3", len(all))
	}
	aliceOnly := fetch("?user=alice")
	if len(aliceOnly) != 2 {
		t.Fatalf("user=alice traces = %d, want 2", len(aliceOnly))
	}
	for _, ts := range aliceOnly {
		if ts.User != "alice" {
			t.Errorf("user filter leaked trace for %q", ts.User)
		}
	}
	if got := fetch("?user=alice&limit=1"); len(got) != 1 {
		t.Errorf("limit=1 returned %d traces", len(got))
	}
	if got := fetch("?min_ms=999999"); len(got) != 0 {
		t.Errorf("min_ms filter kept %d traces, want 0", len(got))
	}
	if got := fetch("?user=nobody"); len(got) != 0 {
		t.Errorf("unknown user returned %d traces", len(got))
	}
	// Bad parameters are 400s.
	for _, q := range []string{"?limit=0", "?n=x", "?min_ms=-1"} {
		if resp, _ := getBody(t, srv.URL+"/api/traces/recent"+q); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("traces/recent%s: %s, want 400", q, resp.Status)
		}
	}
}

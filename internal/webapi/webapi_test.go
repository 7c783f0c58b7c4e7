package webapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sdwp/internal/core"
	"sdwp/internal/cube"
	"sdwp/internal/datagen"
	"sdwp/internal/export"
	"sdwp/internal/geom"
	"sdwp/internal/prml"
	"sdwp/internal/qsched"
)

const testRules = `
Rule:addSpatiality When SessionStart do
  If (SUS.DecisionMaker.dm2role.name = 'RegionalSalesManager') then
    AddLayer('Airport', POINT)
    BecomeSpatial(MD.Sales.Store.geometry, POINT)
  endIf
endWhen

Rule:5kmStores When SessionStart do
  Foreach s in (GeoMD.Store)
    If (Distance(s.geometry, SUS.DecisionMaker.dm2session.s2location.geometry) < 5km) then
      SelectInstance(s)
    endIf
  endForeach
endWhen

Rule:IntAirportCity When SpatialSelection(GeoMD.Store.City,
    Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km) do
  SetContent(SUS.DecisionMaker.dm2airportcity.degree,
    SUS.DecisionMaker.dm2airportcity.degree + 1)
endWhen
`

func newTestServer(t *testing.T) (*httptest.Server, *datagen.Dataset) {
	t.Helper()
	return newTestServerOpts(t, core.Options{})
}

func newTestServerOpts(t *testing.T, opts core.Options) (*httptest.Server, *datagen.Dataset) {
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
	return srv, ds
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
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

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

func login(t *testing.T, srv *httptest.Server, user, locWKT string) string {
	t.Helper()
	resp, body := postJSON(t, srv.URL+"/api/login", map[string]string{
		"user": user, "locationWKT": locWKT,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("login %s: %s (%s)", user, resp.Status, body)
	}
	var lr struct {
		Session    string   `json:"session"`
		SchemaDiff []string `json:"schemaDiff"`
	}
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Session == "" {
		t.Fatal("empty session token")
	}
	return lr.Session
}

func TestHealthz(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, body := getBody(t, srv.URL+"/api/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %s %s", resp.Status, body)
	}
}

func TestLoginPersonalizesSchema(t *testing.T) {
	srv, ds := newTestServer(t)
	loc := ds.CityLocs[0]
	wkt := fmt.Sprintf("POINT (%f %f)", loc.X, loc.Y)

	resp, body := postJSON(t, srv.URL+"/api/login", map[string]string{"user": "alice", "locationWKT": wkt})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("login: %s %s", resp.Status, body)
	}
	var lr struct {
		Session    string   `json:"session"`
		SchemaDiff []string `json:"schemaDiff"`
	}
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	// The manager's login reports the Fig. 6 delta.
	joined := strings.Join(lr.SchemaDiff, "|")
	if !strings.Contains(joined, "+Layer Airport POINT") ||
		!strings.Contains(joined, "+SpatialLevel Store.Store POINT") {
		t.Fatalf("schemaDiff = %v", lr.SchemaDiff)
	}

	// Schema endpoint returns the personalized model.
	resp, body = getBody(t, srv.URL+"/api/schema?session="+lr.Session)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schema: %s", resp.Status)
	}
	if !strings.Contains(string(body), "Airport") {
		t.Errorf("schema JSON missing Airport layer: %s", body)
	}
	// Text rendering too.
	resp, body = getBody(t, srv.URL+"/api/schema?format=text&session="+lr.Session)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "Layer Airport: POINT") {
		t.Errorf("schema text: %s %s", resp.Status, body)
	}

	// The accountant's diff is empty.
	bobTok := login(t, srv, "bob", wkt)
	_ = bobTok
}

func TestQueryPersonalizedVsBaseline(t *testing.T) {
	srv, ds := newTestServer(t)
	loc := ds.CityLocs[1]
	tok := login(t, srv, "alice", fmt.Sprintf("POINT (%f %f)", loc.X, loc.Y))

	q := map[string]any{
		"session":    tok,
		"fact":       "Sales",
		"groupBy":    []map[string]string{{"dimension": "Store", "level": "City"}},
		"aggregates": []map[string]string{{"measure": "UnitSales", "agg": "SUM"}},
	}
	resp, body := postJSON(t, srv.URL+"/api/query", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %s %s", resp.Status, body)
	}
	var personalized struct {
		Rows         []struct{ Groups []string } `json:"rows"`
		MatchedFacts int                         `json:"matchedFacts"`
	}
	if err := json.Unmarshal(body, &personalized); err != nil {
		t.Fatal(err)
	}

	q["baseline"] = true
	resp, body = postJSON(t, srv.URL+"/api/query", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline query: %s %s", resp.Status, body)
	}
	var baseline struct {
		MatchedFacts int `json:"matchedFacts"`
	}
	if err := json.Unmarshal(body, &baseline); err != nil {
		t.Fatal(err)
	}
	if personalized.MatchedFacts >= baseline.MatchedFacts {
		t.Errorf("personalized %d !< baseline %d", personalized.MatchedFacts, baseline.MatchedFacts)
	}
}

// TestQueryBatchEndpoint drives /api/query/batch: a personalized and a
// baseline variant of the same query answered in one shared scan must
// match the results of the one-at-a-time /api/query endpoint exactly.
func TestQueryBatchEndpoint(t *testing.T) {
	srv, ds := newTestServer(t)
	loc := ds.CityLocs[1]
	tok := login(t, srv, "alice", fmt.Sprintf("POINT (%f %f)", loc.X, loc.Y))

	spec := map[string]any{
		"fact":       "Sales",
		"groupBy":    []map[string]string{{"dimension": "Store", "level": "City"}},
		"aggregates": []map[string]string{{"measure": "UnitSales", "agg": "SUM"}},
	}
	baseSpec := map[string]any{
		"fact":       "Sales",
		"groupBy":    []map[string]string{{"dimension": "Store", "level": "City"}},
		"aggregates": []map[string]string{{"measure": "UnitSales", "agg": "SUM"}},
		"baseline":   true,
	}
	resp, body := postJSON(t, srv.URL+"/api/query/batch", map[string]any{
		"session": tok,
		"queries": []map[string]any{spec, baseSpec},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %s %s", resp.Status, body)
	}
	var batch struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 {
		t.Fatalf("batch returned %d results, want 2", len(batch.Results))
	}

	// Each batch entry must match the single-query answer. The cost vector
	// is excluded: it reflects how the query executed (the batch charges
	// shared-artifact shares), not what it answered.
	for i, single := range []map[string]any{spec, baseSpec} {
		q := map[string]any{"session": tok}
		for k, v := range single {
			q[k] = v
		}
		resp, one := postJSON(t, srv.URL+"/api/query", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single %d: %s %s", i, resp.Status, one)
		}
		if stripCost(t, one) != stripCost(t, batch.Results[i]) {
			t.Errorf("batch result %d differs from single query:\nbatch:  %s\nsingle: %s",
				i, batch.Results[i], one)
		}
	}

	// Error paths: unknown session, empty batch, invalid query.
	resp, _ = postJSON(t, srv.URL+"/api/query/batch", map[string]any{
		"session": "nope", "queries": []map[string]any{spec}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: %s", resp.Status)
	}
	resp, _ = postJSON(t, srv.URL+"/api/query/batch", map[string]any{
		"session": tok, "queries": []map[string]any{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: %s", resp.Status)
	}
	resp, _ = postJSON(t, srv.URL+"/api/query/batch", map[string]any{
		"session": tok,
		"queries": []map[string]any{{
			"fact":       "Sales",
			"aggregates": []map[string]string{{"agg": "BOGUS"}},
		}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad aggregation: %s", resp.Status)
	}
	oversized := make([]map[string]any, qsched.DefaultMaxBatch+1)
	for i := range oversized {
		oversized[i] = spec
	}
	resp, _ = postJSON(t, srv.URL+"/api/query/batch", map[string]any{
		"session": tok, "queries": oversized})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: %s", resp.Status)
	}
}

func TestSelectFiresTrackingRule(t *testing.T) {
	srv, ds := newTestServer(t)
	loc := ds.CityLocs[0]
	tok := login(t, srv, "alice", fmt.Sprintf("POINT (%f %f)", loc.X, loc.Y))

	resp, body := postJSON(t, srv.URL+"/api/select", map[string]string{
		"session":   tok,
		"target":    "GeoMD.Store.City",
		"predicate": "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select: %s %s", resp.Status, body)
	}
	var sr struct {
		Selected   []string `json:"selected"`
		RulesFired []string `json:"rulesFired"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Selected) == 0 {
		t.Fatal("nothing selected")
	}
	if len(sr.RulesFired) != 1 || sr.RulesFired[0] != "IntAirportCity" {
		t.Fatalf("rulesFired = %v", sr.RulesFired)
	}
	// Selected entries are city display names.
	for _, name := range sr.Selected {
		if !strings.HasPrefix(name, "City") {
			t.Errorf("selected name %q is not a city descriptor", name)
		}
	}

	// Profile shows the acquired degree.
	resp, body = getBody(t, srv.URL+"/api/profile?user=alice")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile: %s", resp.Status)
	}
	if !strings.Contains(string(body), `"degree":1`) {
		t.Errorf("profile missing degree: %s", body)
	}
}

func TestRulesEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, body := getBody(t, srv.URL+"/api/rules")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rules get: %s", resp.Status)
	}
	if !strings.Contains(string(body), "Rule:addSpatiality") {
		t.Errorf("rules text missing: %s", body)
	}
	// Register a new rule.
	resp, body = postJSON(t, srv.URL+"/api/rules", map[string]string{
		"source": "Rule:extra When SessionEnd do SetContent(SUS.DecisionMaker.name, 'bye') endWhen",
	})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "extra") {
		t.Fatalf("rules post: %s %s", resp.Status, body)
	}
	// Broken rules rejected with 422.
	resp, _ = postJSON(t, srv.URL+"/api/rules", map[string]string{"source": "Rule:x When"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("broken rules: %s", resp.Status)
	}
}

func TestLayersEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, body := getBody(t, srv.URL+"/api/layers")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("layers: %s", resp.Status)
	}
	var layers []struct {
		Name    string `json:"name"`
		Type    string `json:"type"`
		Objects int    `json:"objects"`
	}
	if err := json.Unmarshal(body, &layers); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, l := range layers {
		found[l.Name] = l.Objects > 0
	}
	for _, want := range []string{"Airport", "Train", "Hospital", "Highway"} {
		if !found[want] {
			t.Errorf("layer %s missing or empty (got %v)", want, layers)
		}
	}
}

func TestLogout(t *testing.T) {
	srv, ds := newTestServer(t)
	loc := ds.CityLocs[0]
	tok := login(t, srv, "alice", fmt.Sprintf("POINT (%f %f)", loc.X, loc.Y))
	resp, _ := postJSON(t, srv.URL+"/api/logout", map[string]string{"session": tok})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("logout: %s", resp.Status)
	}
	// The token is gone.
	resp, _ = getBody(t, srv.URL+"/api/schema?session="+tok)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stale session: %s", resp.Status)
	}
	resp, _ = postJSON(t, srv.URL+"/api/logout", map[string]string{"session": tok})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double logout: %s", resp.Status)
	}
}

func TestErrorPaths(t *testing.T) {
	srv, ds := newTestServer(t)
	loc := ds.CityLocs[0]
	wkt := fmt.Sprintf("POINT (%f %f)", loc.X, loc.Y)

	// Wrong methods.
	resp, _ := getBody(t, srv.URL+"/api/login")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET login: %s", resp.Status)
	}
	// Missing user.
	resp, _ = postJSON(t, srv.URL+"/api/login", map[string]string{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty login: %s", resp.Status)
	}
	// Bad WKT.
	resp, _ = postJSON(t, srv.URL+"/api/login", map[string]string{"user": "alice", "locationWKT": "POINT(oops"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad wkt: %s", resp.Status)
	}
	// Login without location fails the location rule (422).
	resp, _ = postJSON(t, srv.URL+"/api/login", map[string]string{"user": "alice"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("no-location login: %s", resp.Status)
	}
	// Unknown fields rejected.
	resp, _ = postJSON(t, srv.URL+"/api/login", map[string]string{"user": "alice", "bogus": "x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %s", resp.Status)
	}
	// Unknown session on query/select.
	resp, _ = postJSON(t, srv.URL+"/api/query", map[string]any{"session": "nope", "fact": "Sales",
		"aggregates": []map[string]string{{"agg": "COUNT"}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session query: %s", resp.Status)
	}
	// Bad aggregation name.
	tok := login(t, srv, "alice", wkt)
	resp, _ = postJSON(t, srv.URL+"/api/query", map[string]any{"session": tok, "fact": "Sales",
		"aggregates": []map[string]string{{"agg": "MEDIAN"}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad agg: %s", resp.Status)
	}
	// Bad query (unknown fact).
	resp, _ = postJSON(t, srv.URL+"/api/query", map[string]any{"session": tok, "fact": "Ghost",
		"aggregates": []map[string]string{{"agg": "COUNT"}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown fact: %s", resp.Status)
	}
	// Bad selection.
	resp, _ = postJSON(t, srv.URL+"/api/select", map[string]string{"session": tok,
		"target": "SUS.DecisionMaker", "predicate": "true"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad select target: %s", resp.Status)
	}
	// Unknown profile.
	resp, _ = getBody(t, srv.URL+"/api/profile?user=ghost")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown profile: %s", resp.Status)
	}
}

func TestGeoJSONEndpoint(t *testing.T) {
	srv, ds := newTestServer(t)
	loc := ds.CityLocs[0]
	tok := login(t, srv, "alice", fmt.Sprintf("POINT (%f %f)", loc.X, loc.Y))

	resp, body := getBody(t, srv.URL+"/api/geojson?session="+tok)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("geojson: %s %s", resp.Status, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/geo+json" {
		t.Errorf("content type = %q", ct)
	}
	var fc struct {
		Type     string `json:"type"`
		Features []struct {
			Properties map[string]any `json:"properties"`
		} `json:"features"`
	}
	if err := json.Unmarshal(body, &fc); err != nil {
		t.Fatal(err)
	}
	if fc.Type != "FeatureCollection" || len(fc.Features) == 0 {
		t.Fatalf("geojson shape: %s", body)
	}
	kinds := map[string]int{}
	for _, f := range fc.Features {
		k, _ := f.Properties["kind"].(string)
		kinds[k]++
	}
	if kinds["layer"] == 0 || kinds["member"] == 0 || kinds["userLocation"] != 1 {
		t.Fatalf("feature kinds = %v", kinds)
	}

	// Selected-only and simplified variants.
	resp, selBody := getBody(t, srv.URL+"/api/geojson?selected=1&session="+tok)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("selected geojson: %s", resp.Status)
	}
	if len(selBody) >= len(body) {
		t.Error("selected-only export should be smaller")
	}
	resp, _ = getBody(t, srv.URL+"/api/geojson?simplify=0.01&session="+tok)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simplified geojson: %s", resp.Status)
	}
	// Errors.
	resp, _ = getBody(t, srv.URL+"/api/geojson?session=nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: %s", resp.Status)
	}
	resp, _ = getBody(t, srv.URL+"/api/geojson?simplify=-1&session="+tok)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad simplify: %s", resp.Status)
	}
}

// A member at a non-finite coordinate fails /api/geojson as it fails
// /api/map.svg — a JSON 500 carrying the request ID — instead of a 200
// serving a geometry without coordinates.
func TestGeoJSONNonFiniteCoordinate(t *testing.T) {
	srv, ds := newTestServer(t)
	loc := ds.CityLocs[0]
	tok := login(t, srv, "alice", fmt.Sprintf("POINT (%f %f)", loc.X, loc.Y))
	if err := ds.Cube.SetMemberGeometry("Store", "Store", 3, geom.Pt(math.NaN(), 1)); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/api/geojson", "/api/map.svg"} {
		req, err := http.NewRequest(http.MethodGet, srv.URL+path+"?session="+tok, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", "req-nan")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var apiErr apiError
		err = json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusInternalServerError ||
			resp.Header.Get("Content-Type") != "application/json" || apiErr.RequestID != "req-nan" ||
			!strings.Contains(apiErr.Error, `member feature "Store0003" has a non-finite coordinate`) {
			t.Errorf("%s: %s %q %+v (%v)", path, resp.Status, resp.Header.Get("Content-Type"), apiErr, err)
		}
	}
}

func TestQueryFiltersOrderLimitOverHTTP(t *testing.T) {
	srv, ds := newTestServer(t)
	loc := ds.CityLocs[0]
	tok := login(t, srv, "bob", fmt.Sprintf("POINT (%f %f)", loc.X, loc.Y))

	// Top-3 product families by units, cities over 1M population only.
	resp, body := postJSON(t, srv.URL+"/api/query", map[string]any{
		"session":    tok,
		"fact":       "Sales",
		"baseline":   true,
		"groupBy":    []map[string]string{{"dimension": "Product", "level": "Family"}},
		"aggregates": []map[string]string{{"measure": "UnitSales", "agg": "SUM"}},
		"filters": []map[string]any{{
			"dimension": "Store", "level": "City", "attr": "population",
			"op": ">", "value": 1000000,
		}},
		"orderBy": map[string]any{"agg": 0, "desc": true},
		"limit":   3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %s %s", resp.Status, body)
	}
	var res struct {
		Rows []struct {
			Groups []string  `json:"groups"`
			Values []float64 `json:"values"`
		} `json:"rows"`
		MatchedFacts int `json:"matchedFacts"`
		ScannedFacts int `json:"scannedFacts"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("limit ignored: %d rows", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Values[0] > res.Rows[i-1].Values[0] {
			t.Fatalf("not descending: %+v", res.Rows)
		}
	}
	if res.MatchedFacts >= res.ScannedFacts {
		t.Fatalf("population filter had no effect: %d of %d", res.MatchedFacts, res.ScannedFacts)
	}
	// Unknown filter operator rejected.
	resp, _ = postJSON(t, srv.URL+"/api/query", map[string]any{
		"session":    tok,
		"fact":       "Sales",
		"aggregates": []map[string]string{{"agg": "COUNT"}},
		"filters": []map[string]any{{
			"dimension": "Store", "level": "City", "attr": "population",
			"op": "~", "value": 1,
		}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad op: %s", resp.Status)
	}
}

func TestRuleRemovalOverHTTP(t *testing.T) {
	srv, ds := newTestServer(t)
	loc := ds.CityLocs[0]
	wkt := fmt.Sprintf("POINT (%f %f)", loc.X, loc.Y)

	// Remove the schema rule; new manager sessions lose the Airport layer.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/api/rules",
		strings.NewReader(`{"name":"addSpatiality"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete rule: %s", resp.Status)
	}
	resp2, body := postJSON(t, srv.URL+"/api/login", map[string]string{"user": "alice", "locationWKT": wkt})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("login: %s %s", resp2.Status, body)
	}
	if strings.Contains(string(body), "Airport") {
		t.Errorf("removed rule still fired: %s", body)
	}
	// Unknown rule → 404; missing name → 400.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/api/rules", strings.NewReader(`{"name":"ghost"}`))
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown rule: %s", resp.Status)
	}
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/api/rules", strings.NewReader(`{}`))
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing name: %s", resp.Status)
	}
}

func TestMapSVGEndpoint(t *testing.T) {
	srv, ds := newTestServer(t)
	loc := ds.CityLocs[0]
	tok := login(t, srv, "alice", fmt.Sprintf("POINT (%f %f)", loc.X, loc.Y))

	resp, body := getBody(t, srv.URL+"/api/map.svg?session="+tok)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("map.svg: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("content type = %q", ct)
	}
	if !strings.HasPrefix(string(body), "<svg") || !strings.Contains(string(body), "</svg>") {
		t.Errorf("not an SVG: %.80s", body)
	}
	resp, body2 := getBody(t, srv.URL+"/api/map.svg?width=200&session="+tok)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body2), `width="200"`) {
		t.Errorf("custom width: %s %.80s", resp.Status, body2)
	}
	resp, _ = getBody(t, srv.URL+"/api/map.svg?width=-3&session="+tok)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad width: %s", resp.Status)
	}
	resp, _ = getBody(t, srv.URL+"/api/map.svg?session=nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: %s", resp.Status)
	}
}

// TestStatsEndpoint checks the scheduler observability surface: after a
// mix of fresh and repeated queries plus a sharing-heavy batch, /api/stats
// reports the submissions, cache traffic (under the doorkeeper admission
// policy: the first request of a fingerprint is never cached), a coalesce
// ratio, and the cross-query sharing ratios.
// stripCost re-renders a Result JSON body without its "cost" field: cost
// is attribution (it varies with batching, caching, and CPU timing), not
// part of the logical answer these equality checks pin.
func stripCost(t *testing.T, raw []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "cost")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestStatsEndpoint(t *testing.T) {
	srv, ds := newTestServerOpts(t, core.Options{ResultCacheBytes: 1 << 20})
	loc := ds.CityLocs[0]
	tok := login(t, srv, "alice", fmt.Sprintf("POINT (%f %f)", loc.X, loc.Y))

	spec := map[string]any{
		"session":    tok,
		"fact":       "Sales",
		"aggregates": []map[string]string{{"agg": "COUNT"}},
	}
	var answers []string
	for i := 0; i < 3; i++ { // 1st doorkept, 2nd cached, 3rd a hit
		resp, body := postJSON(t, srv.URL+"/api/query", spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %s %s", i, resp.Status, body)
		}
		answers = append(answers, stripCost(t, body))
	}
	for i := 1; i < len(answers); i++ {
		if answers[i] != answers[0] {
			t.Fatalf("cached answer %d differs:\n%s\nvs\n%s", i, answers[i], answers[0])
		}
	}

	// A batch of queries sharing one grouping: one shared scan whose
	// group-key column is decoded once for all three.
	tile := func(limit int) map[string]any {
		return map[string]any{
			"fact":       "Sales",
			"groupBy":    []map[string]string{{"dimension": "Store", "level": "City"}},
			"aggregates": []map[string]string{{"agg": "SUM", "measure": "UnitSales"}},
			"limit":      limit,
		}
	}
	resp, body := postJSON(t, srv.URL+"/api/query/batch", map[string]any{
		"session": tok,
		"queries": []map[string]any{tile(1), tile(2), tile(3)},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %s %s", resp.Status, body)
	}

	resp, body = getBody(t, srv.URL+"/api/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %s %s", resp.Status, body)
	}
	var st struct {
		Submitted       int64   `json:"submitted"`
		CacheHits       int64   `json:"cacheHits"`
		CacheDoorkept   int64   `json:"cacheDoorkept"`
		Executed        int64   `json:"executed"`
		FactScans       int64   `json:"factScans"`
		CoalesceRatio   float64 `json:"coalesceRatio"`
		QueueDepth      int     `json:"queueDepth"`
		GroupKeySets    int64   `json:"groupKeySets"`
		GroupKeyCols    int64   `json:"groupKeyCols"`
		GroupKeySharing float64 `json:"groupKeySharing"`
		Packed          struct {
			Columns       int            `json:"columns"`
			PackedBytes   int64          `json:"packedBytes"`
			UnpackedBytes int64          `json:"unpackedBytes"`
			BitsPerColumn map[string]int `json:"bitsPerColumn"`
		} `json:"packed"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats JSON: %v (%s)", err, body)
	}
	if st.Submitted != 6 {
		t.Errorf("submitted = %d, want 6", st.Submitted)
	}
	if st.CacheHits != 1 {
		t.Errorf("cacheHits = %d, want 1", st.CacheHits)
	}
	if st.CacheDoorkept == 0 {
		t.Error("cacheDoorkept = 0, want the first-seen fingerprints doorkept")
	}
	if st.Executed != 5 || st.FactScans != 3 {
		t.Errorf("executed/factScans = %d/%d, want 5/3", st.Executed, st.FactScans)
	}
	if st.GroupKeySets != 3 || st.GroupKeyCols != 1 {
		t.Errorf("groupKeySets/groupKeyCols = %d/%d, want 3/1", st.GroupKeySets, st.GroupKeyCols)
	}
	if st.GroupKeySharing <= 1 {
		t.Errorf("groupKeySharing = %.1f, want > 1", st.GroupKeySharing)
	}
	if st.QueueDepth != 0 {
		t.Errorf("queueDepth = %d, want 0 at rest", st.QueueDepth)
	}
	// Compressed-column storage stats (maintained regardless of the
	// execution toggle): the Sales fact packs its four dim-key columns at
	// a fraction of the int32 footprint.
	if st.Packed.Columns != 4 {
		t.Errorf("packed.columns = %d, want 4", st.Packed.Columns)
	}
	if st.Packed.PackedBytes <= 0 || st.Packed.PackedBytes >= st.Packed.UnpackedBytes {
		t.Errorf("packed.packedBytes = %d, want in (0, %d)",
			st.Packed.PackedBytes, st.Packed.UnpackedBytes)
	}
	for _, col := range []string{"Sales/Store", "Sales/Customer", "Sales/Product", "Sales/Time"} {
		if w := st.Packed.BitsPerColumn[col]; w < 1 || w > 32 {
			t.Errorf("packed.bitsPerColumn[%s] = %d, want 1..32", col, w)
		}
	}

	resp, _ = postJSON(t, srv.URL+"/api/stats", map[string]any{})
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST stats: %s, want 405", resp.Status)
	}
}

// TestBatchCapFixed checks the /api/query/batch limit: a batch of
// qsched.DefaultMaxBatch queries runs, and one more query gets a 400 that
// names the cap.
func TestBatchCapFixed(t *testing.T) {
	srv, ds := newTestServer(t)
	loc := ds.CityLocs[0]
	tok := login(t, srv, "bob", fmt.Sprintf("POINT (%f %f)", loc.X, loc.Y))

	spec := map[string]any{
		"fact":       "Sales",
		"aggregates": []map[string]string{{"agg": "COUNT"}},
	}
	batch := func(n int) []map[string]any {
		qs := make([]map[string]any, n)
		for i := range qs {
			qs[i] = spec
		}
		return qs
	}
	resp, body := postJSON(t, srv.URL+"/api/query/batch", map[string]any{
		"session": tok, "queries": batch(qsched.DefaultMaxBatch)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("at-limit batch: %s %s", resp.Status, body)
	}
	resp, body = postJSON(t, srv.URL+"/api/query/batch", map[string]any{
		"session": tok, "queries": batch(qsched.DefaultMaxBatch + 1)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-limit batch: %s, want 400", resp.Status)
	}
	msg := string(body)
	for _, want := range []string{"65 queries", "max 64"} {
		if !strings.Contains(msg, want) {
			t.Errorf("over-limit error %q missing %q", msg, want)
		}
	}
}

// TestWriteJSONMatchesEncodingJSON pins the buffered response writer's
// wire contract on randomized query and batch results: the body is
// byte-for-byte what json.Encoder produces (trailing newline included),
// Content-Length announces exactly that body, and buffers coming back
// from the pool never leak a previous, longer response.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	words := []string{"Store 7", "(none)", "Ünïcode <&> \"q\"", "", "Dairy", "a\nb"}
	randResult := func() *cube.Result {
		res := &cube.Result{ScannedFacts: rng.Intn(1 << 20), MatchedFacts: rng.Intn(1 << 20)}
		nl, na := rng.Intn(4), 1+rng.Intn(3)
		for g := 0; g < nl; g++ {
			res.GroupCols = append(res.GroupCols, fmt.Sprintf("Dim%d.Level", g))
		}
		for a := 0; a < na; a++ {
			res.AggCols = append(res.AggCols, fmt.Sprintf("SUM(m%d)", a))
		}
		for r := rng.Intn(300); r > 0; r-- {
			row := cube.Row{Values: make([]float64, na)}
			for g := 0; g < nl; g++ {
				row.Groups = append(row.Groups, words[rng.Intn(len(words))])
			}
			for a := range row.Values {
				row.Values[a] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-3))
			}
			res.Rows = append(res.Rows, row)
		}
		res.Cost.FactsScanned = int64(res.ScannedFacts)
		return res
	}
	check := func(v any) {
		t.Helper()
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("body differs from encoding/json:\ngot  %.200q\nwant %.200q", rec.Body.Bytes(), want.Bytes())
		}
		if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(want.Len()) {
			t.Fatalf("Content-Length = %q, want %d", cl, want.Len())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" || rec.Code != http.StatusOK {
			t.Fatalf("status/content-type = %d/%q", rec.Code, ct)
		}
	}
	for i := 0; i < 50; i++ {
		check(randResult())
		batch := batchQueryResponse{}
		for n := rng.Intn(5); n > 0; n-- {
			batch.Results = append(batch.Results, randResult())
		}
		check(batch)
	}

	// The nil and empty slice shapes: encoding/json writes null for a nil
	// slice (a group-by-less answer's groupCols and groups, an empty
	// answer's rows, an empty batch) and [] for an empty one.
	shapes := []*cube.Result{
		{},
		{GroupCols: []string{}, AggCols: []string{}, Rows: []cube.Row{}},
		{AggCols: []string{"COUNT(*)"}, Rows: []cube.Row{{Values: []float64{3}}}},
		{Rows: []cube.Row{{}, {Groups: []string{}, Values: []float64{}}}},
		{GroupCols: []string{"Store.City"}, Rows: []cube.Row{{Groups: []string{"(none)"}, Values: []float64{math.Copysign(0, -1), 1e15, 1e21, 5e-324}}}},
	}
	for _, res := range shapes {
		check(res)
		check(batchQueryResponse{Results: []*cube.Result{res, nil}})
	}
	check(batchQueryResponse{})
	check(batchQueryResponse{Results: []*cube.Result{}})
	check(batchQueryResponse{Results: []*cube.Result{nil}})

	// A value encoding/json refuses is a well-formed 500, not a 200 cut
	// short, alone or in a batch, and carries encoding/json's error.
	for _, v := range []any{
		&cube.Result{Rows: []cube.Row{{Values: []float64{math.NaN()}}}},
		batchQueryResponse{Results: []*cube.Result{randResult(), {Rows: []cube.Row{{Values: []float64{1, math.Inf(-1)}}}}}},
	} {
		rec := httptest.NewRecorder()
		rec.Header().Set("X-Request-Id", "req-1")
		writeJSON(rec, http.StatusOK, v)
		var apiErr apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil || rec.Code != http.StatusInternalServerError ||
			apiErr.RequestID != "req-1" {
			t.Fatalf("unencodable value: status %d body %q (%v)", rec.Code, rec.Body.Bytes(), err)
		}
		_, jerr := json.Marshal(v)
		if want := "encode response: " + jerr.Error(); apiErr.Error != want {
			t.Fatalf("unencodable value: error %q, want %q", apiErr.Error, want)
		}
	}
}

// TestExportBodiesPinned pins /api/geojson and /api/map.svg, written
// through the pooled buffer in one Write, byte for byte against the
// renderers' own output — export.Session's collection (trailing newline
// included; internal/export pins it against the json.Encoder encoder it
// replaced) and export.SessionSVG's document — with a Content-Length
// announcing exactly that body.
func TestExportBodiesPinned(t *testing.T) {
	cfg := datagen.Default()
	cfg.Cities = 20
	cfg.Stores = 80
	cfg.Sales = 500
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	users, err := datagen.NewUserStore(map[string]string{"alice": "RegionalSalesManager"})
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(ds.Cube, users, core.Options{})
	t.Cleanup(e.Close)
	if _, err := e.AddRules(testRules + `
Rule:trains When SessionStart do
  AddLayer('Train', LINE)
endWhen`); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(e)
	serve := func(method, url string, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
		return rec
	}
	loc := ds.CityLocs[2]
	rec := serve(http.MethodPost, "/api/login",
		fmt.Sprintf(`{"user":"alice","locationWKT":"POINT (%f %f)"}`, loc.X, loc.Y))
	var lr loginResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &lr); err != nil || lr.Session == "" {
		t.Fatalf("login: %d %s", rec.Code, rec.Body.Bytes())
	}
	sess := srv.session(lr.Session)
	check := func(url, contentType string, want []byte) {
		t.Helper()
		rec := serve(http.MethodGet, url+"&session="+lr.Session, "")
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != contentType {
			t.Fatalf("%s: %d %q", url, rec.Code, rec.Header().Get("Content-Type"))
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: body differs\ngot  %.200q\nwant %.200q", url, rec.Body.Bytes(), want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) {
			t.Fatalf("%s: Content-Length %q, body %d bytes", url, cl, len(want))
		}
	}
	for _, tc := range []struct {
		query string
		opts  export.Options
	}{
		{"?x=1", export.Options{}},
		{"?selected=1", export.Options{SelectedOnly: true}},
		{"?simplify=0.05", export.Options{SimplifyTolerance: 0.05}},
	} {
		want, err := export.Session(sess, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		check("/api/geojson"+tc.query, "application/geo+json", want)
	}
	for _, tc := range []struct {
		query string
		opts  export.SVGOptions
	}{
		{"?x=1", export.SVGOptions{}},
		{"?width=321", export.SVGOptions{Width: 321}},
	} {
		svg, err := export.SessionSVG(sess, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		check("/api/map.svg"+tc.query, "image/svg+xml", []byte(svg))
	}
}

// TestStatsArtifactCacheDefault checks the artifact cache end to end on a
// default-configured server: the same sharing batch POSTed three times
// (varying limit so the result cache cannot absorb the repeats) takes
// its shared artifacts from the fact table's cache, and GET /api/stats
// reports the hits under artifactCache.
func TestStatsArtifactCacheDefault(t *testing.T) {
	srv, ds := newTestServer(t)
	loc := ds.CityLocs[0]
	tok := login(t, srv, "bob", fmt.Sprintf("POINT (%f %f)", loc.X, loc.Y))
	tile := func(level string, limit int) map[string]any {
		return map[string]any{
			"fact":       "Sales",
			"groupBy":    []map[string]string{{"dimension": "Store", "level": level}},
			"aggregates": []map[string]string{{"agg": "SUM", "measure": "UnitSales"}},
			"filters": []map[string]any{{"dimension": "Customer", "level": "Customer",
				"attr": "age", "op": "<", "value": 60}},
			"limit":    limit,
			"baseline": true,
		}
	}
	for run := 1; run <= 3; run++ {
		resp, body := postJSON(t, srv.URL+"/api/query/batch", map[string]any{
			"session": tok,
			"queries": []map[string]any{tile("City", run), tile("City", run+10), tile("State", run)},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: %s %s", run, resp.Status, body)
		}
	}
	resp, body := getBody(t, srv.URL+"/api/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %s %s", resp.Status, body)
	}
	var st struct {
		ArtifactCache struct {
			Hits     int64 `json:"hits"`
			Doorkept int64 `json:"doorkept"`
			Entries  int   `json:"entries"`
		} `json:"artifactCache"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats JSON: %v (%s)", err, body)
	}
	if st.ArtifactCache.Hits == 0 || st.ArtifactCache.Doorkept == 0 || st.ArtifactCache.Entries == 0 {
		t.Errorf("artifactCache = %+v, want doorkept first offers, admitted repeats and hits (%s)",
			st.ArtifactCache, body)
	}
	if bytes.Contains(body, []byte(`"artifactDoorkept"`)) {
		t.Error("/api/stats still carries the top-level artifactDoorkept copy")
	}
}

// TestRequestBodyBound pins decodeBody's limits: a body of exactly
// maxBodyBytes is served, one byte more is a 413 with the usual JSON
// error, and data after the JSON value is a 400.
func TestRequestBodyBound(t *testing.T) {
	srv, ds := newTestServer(t)
	loc := ds.CityLocs[0]
	tok := login(t, srv, "bob", fmt.Sprintf("POINT (%f %f)", loc.X, loc.Y))
	query := fmt.Sprintf(`{"session":%q,"fact":"Sales","aggregates":[{"agg":"COUNT"}]}`, tok)
	post := func(path, body string) (int, apiError) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", "req-body")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var apiErr apiError
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
				t.Fatalf("%s: %s with a non-JSON error body: %v", path, resp.Status, err)
			}
		}
		return resp.StatusCode, apiErr
	}
	// padded left-pads a body with JSON whitespace to exactly n bytes.
	padded := func(body string, n int) string { return strings.Repeat(" ", n-len(body)) + body }

	if code, apiErr := post("/api/query", padded(query, maxBodyBytes)); code != http.StatusOK {
		t.Errorf("body of exactly the limit: %d %+v", code, apiErr)
	}
	for _, path := range []string{"/api/query", "/api/query/batch", "/api/login"} {
		code, apiErr := post(path, padded(query, maxBodyBytes+1))
		if code != http.StatusRequestEntityTooLarge || !strings.Contains(apiErr.Error, "exceeds") {
			t.Errorf("%s, limit+1 bytes: %d %+v", path, code, apiErr)
		}
		if path != "/api/login" && apiErr.RequestID != "req-body" {
			t.Errorf("%s, limit+1 bytes: requestId %q", path, apiErr.RequestID)
		}
	}
	if code, apiErr := post("/api/query", query+"\n"); code != http.StatusOK {
		t.Errorf("trailing newline: %d %+v", code, apiErr)
	}
	for _, trailing := range []string{"{}", `"x"`, "x"} {
		code, apiErr := post("/api/query", query+trailing)
		if code != http.StatusBadRequest || apiErr.RequestID != "req-body" {
			t.Errorf("trailing %q: %d %+v", trailing, code, apiErr)
		}
	}
}

package export

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sdwp/internal/core"
	"sdwp/internal/cube"
	"sdwp/internal/datagen"
	"sdwp/internal/geom"
	"sdwp/internal/jsonenc"
	"sdwp/internal/prml"
)

// decodedFeature is a served feature as a GeoJSON client reads it.
type decodedFeature struct {
	Type       string          `json:"type"`
	Geometry   json.RawMessage `json:"geometry"`
	Properties map[string]any  `json:"properties"`
}

// decodeFeatures parses an export: one FeatureCollection and a newline.
func decodeFeatures(t *testing.T, body []byte) []decodedFeature {
	t.Helper()
	var fc struct {
		Type     string           `json:"type"`
		Features []decodedFeature `json:"features"`
	}
	if err := json.Unmarshal(body, &fc); err != nil || fc.Type != "FeatureCollection" || !bytes.HasSuffix(body, []byte("]}\n")) {
		t.Fatalf("not a FeatureCollection (%v): %.200q", err, body)
	}
	return fc.Features
}

// fakeGeom is a geometry type the encoder does not know.
type fakeGeom struct{ geom.Point }

func TestGeometryRoundTrip(t *testing.T) {
	geoms := []geom.Geometry{
		geom.Pt(1.5, -2.25),
		geom.Ln(geom.Pt(0, 0), geom.Pt(3, 4), geom.Pt(5, 0)),
		geom.Poly(geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, 2), geom.Pt(0, 2)),
		geom.Polygon{
			Shell: geom.Ring{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4)},
			Holes: []geom.Ring{{geom.Pt(1, 1), geom.Pt(2, 1), geom.Pt(2, 2), geom.Pt(1, 2)}},
		},
		geom.Coll(geom.Pt(1, 1), geom.Ln(geom.Pt(0, 0), geom.Pt(1, 1))),
	}
	for _, g := range geoms {
		raw, err := appendGeometry(nil, g)
		if err != nil {
			t.Fatalf("append %s: %v", g.WKT(), err)
		}
		if want, _ := refMarshalGeometry(g); !bytes.Equal(raw, want) {
			t.Errorf("%s encodes as %s, json.Marshal as %s", g.WKT(), raw, want)
		}
		back, err := refUnmarshalGeometry(raw)
		if err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		if !geom.Equals(g, back) {
			t.Errorf("round trip changed %s → %s", g.WKT(), back.WKT())
		}
	}
}

func TestGeometryEncodingShapes(t *testing.T) {
	for _, tc := range []struct {
		g    geom.Geometry
		want string
	}{
		{geom.Pt(1, 2), `{"type":"Point","coordinates":[1,2]}`},
		// Polygon rings are closed on output.
		{geom.Poly(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)), `{"type":"Polygon","coordinates":[[[0,0],[1,0],[0,1],[0,0]]]}`},
		{geom.Line{}, `{"type":"LineString","coordinates":[]}`},
		{geom.Polygon{}, `{"type":"Polygon","coordinates":[[]]}`},
		// encoding/json omitted an empty "geometries".
		{geom.Coll(), `{"type":"GeometryCollection"}`},
		{geom.Coll(geom.Coll(), geom.Pt(-0.5, 1e-7)),
			`{"type":"GeometryCollection","geometries":[{"type":"GeometryCollection"},{"type":"Point","coordinates":[-0.5,1e-7]}]}`},
	} {
		raw, err := appendGeometry(nil, tc.g)
		if err != nil || string(raw) != tc.want {
			t.Errorf("%s encodes as %s (%v), want %s", tc.g.WKT(), raw, err, tc.want)
		}
		if want, _ := refMarshalGeometry(tc.g); string(want) != tc.want {
			t.Errorf("reference encodes %s as %s", tc.g.WKT(), want)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	for _, raw := range []string{
		`not json`,
		`{"type":"Volcano","coordinates":[1,2]}`,
		`{"type":"Point","coordinates":"x"}`,
		`{"type":"LineString","coordinates":[[1,2]]}`,
		`{"type":"Polygon","coordinates":[]}`,
		`{"type":"Polygon","coordinates":[[[0,0],[1,1]]]}`,
		`{"type":"GeometryCollection","geometries":[{"type":"Volcano"}]}`,
	} {
		if _, err := refUnmarshalGeometry(json.RawMessage(raw)); err == nil {
			t.Errorf("accepted %s", raw)
		}
	}
	for _, g := range []geom.Geometry{nil, fakeGeom{}, geom.Coll(geom.Pt(1, 1), nil)} {
		if _, err := appendGeometry(nil, g); err == nil {
			t.Errorf("encoded %#v", g)
		}
	}
}

// FuzzGeoJSONScalars checks the GeoJSON scalars (jsonenc.AppendFloat and
// jsonenc.AppendString) against encoding/json for arbitrary float64 bits
// and strings.
func FuzzGeoJSONScalars(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -2.25, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, -1e21,
		123456789012345678, math.MaxFloat64, math.SmallestNonzeroFloat64, -3.7, 40.4} {
		f.Add(math.Float64bits(x), "")
	}
	for _, s := range []string{"plain", `<&>"\`, "café", "\u2028\u2029", "\xff\xfe", "a\x00\b\f\n\r\t\x1f\x7f", "\xe2\x80"} {
		f.Add(uint64(0), s)
	}
	f.Fuzz(func(t *testing.T, bits uint64, s string) {
		x := math.Float64frombits(bits)
		if want, err := json.Marshal(x); err == nil {
			if got := jsonenc.AppendFloat([]byte("["), x); string(got[1:]) != string(want) {
				t.Errorf("AppendFloat(%v) = %s, encoding/json %s", x, got[1:], want)
			}
		} else if !math.IsNaN(x) && !math.IsInf(x, 0) {
			t.Errorf("encoding/json refused finite %v: %v", x, err)
		}
		want, _ := json.Marshal(s)
		if got := jsonenc.AppendString([]byte("x"), s); string(got[1:]) != string(want) {
			t.Errorf("AppendString(%q) = %s, encoding/json %s", s, got[1:], want)
		}
	})
}

func sessionForExport(t *testing.T) (*core.Session, *datagen.Dataset) {
	t.Helper()
	cfg := datagen.Default()
	cfg.Cities = 15
	cfg.Stores = 60
	cfg.Customers = 30
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
	e.SetParam("threshold", prml.NumberVal(2))
	if _, err := e.AddRules(`
Rule:addSpatiality When SessionStart do
  AddLayer('Airport', POINT)
  AddLayer('Train', LINE)
  BecomeSpatial(MD.Sales.Store.geometry, POINT)
endWhen
Rule:near When SessionStart do
  Foreach s in (GeoMD.Store)
    If (Distance(s.geometry, SUS.DecisionMaker.dm2session.s2location.geometry) < 10km) then
      SelectInstance(s)
    endIf
  endForeach
endWhen`); err != nil {
		t.Fatal(err)
	}
	s, err := e.StartSession("alice", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	return s, ds
}

func TestSessionExport(t *testing.T) {
	s, ds := sessionForExport(t)
	body, err := Session(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	selected := 0
	features := decodeFeatures(t, body)
	if n := CountFeatures(body); n != len(features) {
		t.Errorf("CountFeatures = %d, decoded %d", n, len(features))
	}
	for _, f := range features {
		kind, _ := f.Properties["kind"].(string)
		counts[kind]++
		if sel, _ := f.Properties["selected"].(bool); sel {
			selected++
		}
	}
	airports := ds.Cube.Layer(datagen.LayerAirport).Len()
	trains := ds.Cube.Layer(datagen.LayerTrain).Len()
	if counts["layer"] != airports+trains {
		t.Errorf("layer features = %d, want %d", counts["layer"], airports+trains)
	}
	if counts["member"] != 60 {
		t.Errorf("member features = %d, want 60 stores", counts["member"])
	}
	if counts["userLocation"] != 1 {
		t.Errorf("userLocation features = %d", counts["userLocation"])
	}
	if selected == 0 {
		t.Error("no selected members exported")
	}
	// AppendSession appends after what dst holds.
	prefixed, err := AppendSession([]byte("prefix"), s, Options{})
	if err != nil || string(prefixed) != "prefix"+string(body) {
		t.Fatalf("AppendSession did not append the export (%v)", err)
	}
}

func TestSessionExportSelectedOnly(t *testing.T) {
	s, _ := sessionForExport(t)
	all, err := Session(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Session(s, Options{SelectedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	allFeatures, selFeatures := decodeFeatures(t, all), decodeFeatures(t, sel)
	if len(selFeatures) >= len(allFeatures) {
		t.Fatalf("selected-only (%d) should be smaller than all (%d)", len(selFeatures), len(allFeatures))
	}
	for _, f := range selFeatures {
		if f.Properties["kind"] == "member" {
			if selFlag, _ := f.Properties["selected"].(bool); !selFlag {
				t.Fatal("unselected member exported in SelectedOnly mode")
			}
		}
	}
}

func TestSessionExportSimplifies(t *testing.T) {
	s, _ := sessionForExport(t)
	plain, err := Session(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	simplified, err := Session(s, Options{SimplifyTolerance: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	plainFeatures, simplifiedFeatures := decodeFeatures(t, plain), decodeFeatures(t, simplified)
	if len(plainFeatures) != len(simplifiedFeatures) {
		t.Fatal("simplification must not drop features")
	}
	// Train lines have fewer coordinates after simplification.
	rawLen := func(fs []decodedFeature) int {
		total := 0
		for _, f := range fs {
			if f.Properties["layer"] == datagen.LayerTrain {
				total += len(f.Geometry)
			}
		}
		return total
	}
	if rawLen(simplifiedFeatures) >= rawLen(plainFeatures) {
		t.Errorf("train lines not simplified: %d vs %d", rawLen(simplifiedFeatures), rawLen(plainFeatures))
	}
}

const oddRule = `Rule:odd When SessionStart do
  AddLayer('Parcels', POLYGON)
  AddLayer('Mixed', COLLECTION)
  AddLayer('Odd', POINT)
endWhen
`

// oddNames are names encoding/json escapes: HTML and JSON specials,
// control characters, U+2028/U+2029 and invalid UTF-8 — beside non-ASCII
// text it copies.
var oddNames = []string{`<b>&"quoted"\</b>`, "Café Zürich 東京", "line\u2028para\u2029", "bad\xff\xfeutf8", "tab\there\x01"}

// addOddLayers registers the layers oddRule admits: polygons with holes,
// collections (nested and empty), and points at the encoder's number
// edges (1e-7, 1e21, -0), all under odd names.
func addOddLayers(t *testing.T, c *cube.Cube) {
	t.Helper()
	negZero := math.Copysign(0, -1)
	square := func(x, y, d float64) geom.Ring {
		return geom.Ring{geom.Pt(x, y), geom.Pt(x+d, y), geom.Pt(x+d, y+d), geom.Pt(x, y+d)}
	}
	objects := []struct {
		layer string
		t     geom.Type
		g     geom.Geometry
	}{
		{"Parcels", geom.TypePolygon, geom.Polygon{Shell: square(-4, 40, 1), Holes: []geom.Ring{square(-3.8, 40.2, 0.2), square(-3.4, 40.6, 0.1)}}},
		{"Parcels", geom.TypePolygon, geom.Polygon{Shell: square(-3.5, 39.5, 0.123456789)}},
		{"Mixed", geom.TypeCollection, geom.Coll(geom.Pt(-3.6, 40.3), geom.Ln(geom.Pt(-3.6, 40.3), geom.Pt(-3.5, 40.35), geom.Pt(-3.4, 40.3)),
			geom.Coll(geom.Polygon{Shell: square(-3.7, 40.1, 0.05)}))},
		{"Mixed", geom.TypeCollection, geom.Coll()},
		{"Odd", geom.TypePoint, geom.Pt(1e-7, negZero)},
		{"Odd", geom.TypePoint, geom.Pt(-1e-7, 9.999999e-7)},
		{"Odd", geom.TypePoint, geom.Pt(1e21, -1e21)},
		{"Odd", geom.TypePoint, geom.Pt(negZero, 123456789.125)},
	}
	for i, o := range objects {
		if c.Layer(o.layer) == nil {
			if _, err := c.RegisterLayer(o.layer, o.t); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.AddLayerObject(o.layer, oddNames[i%len(oddNames)], o.g); err != nil {
			t.Fatal(err)
		}
	}
}

// oddStores gives the first stores odd names and number-edge geometries.
func oddStores(t *testing.T, c *cube.Cube, near geom.Point) {
	t.Helper()
	for i, name := range oddNames {
		if err := c.SetMemberAttr("Store", "Store", int32(i), "name", name); err != nil {
			t.Fatal(err)
		}
	}
	for i, g := range []geom.Geometry{
		geom.Pt(near.X+1e-7, near.Y),
		geom.Pt(math.Copysign(0, -1), 1e21),
		geom.Pt(near.X, near.Y-1e-7),
	} {
		if err := c.SetMemberGeometry("Store", "Store", int32(len(oddNames)+i), g); err != nil {
			t.Fatal(err)
		}
	}
}

var referenceOptions = []Options{{}, {SelectedOnly: true}, {SimplifyTolerance: 0.2}, {SimplifyTolerance: 0.05, SelectedOnly: true}}

// checkReference fails unless Session serves exactly the old encoder's
// bytes for every option set.
func checkReference(t *testing.T, s *core.Session) {
	t.Helper()
	for _, opts := range referenceOptions {
		got, err := Session(s, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		want, err := refSession(s, opts)
		if err != nil {
			t.Fatalf("%+v: reference: %v", opts, err)
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			from := max(0, i-80)
			t.Fatalf("%+v: GeoJSON differs from the reference at byte %d\ngot  %.200q\nwant %.200q",
				opts, i, got[from:], want[from:])
		}
	}
}

// TestSessionGeoJSONMatchesReference pins AppendSession byte for byte
// against the FeatureCollection + json.Encoder encoder it replaced: with
// and without the Train layer, selected-only and simplified, without a
// location, with odd names, number edges, holes and collections, and with
// a member without geometry.
func TestSessionGeoJSONMatchesReference(t *testing.T) {
	// A store without geometry is skipped (the radius rule would refuse it).
	noGeometry := func(t *testing.T, c *cube.Cube, _ geom.Point) {
		if err := c.SetMemberGeometry("Store", "Store", 5, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name, rules string
		located     bool
		prep        func(*testing.T, *cube.Cube, geom.Point)
	}{
		{"airports and stores", airportRule, true, nil},
		{"selected stores", airportRule + nearRule, true, nil},
		{"trains", airportRule + trainRule + nearRule, true, nil},
		{"no location", airportRule + trainRule, false, nil},
		{"no spatial schema", trainRule, false, nil},
		{"one-vertex line", airportRule + brokenRule, true, nil},
		{"odd names numbers and shapes", airportRule + trainRule + oddRule + nearRule, true, oddStores},
		{"member without geometry", airportRule + trainRule, true, noGeometry},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, ds := exportEngine(t, tc.rules)
			loc := ds.CityLocs[3]
			if tc.prep != nil {
				tc.prep(t, ds.Cube, loc)
			}
			var where geom.Geometry
			if tc.located {
				where = loc
			}
			s, err := e.StartSession("alice", where)
			if err != nil {
				t.Fatal(err)
			}
			checkReference(t, s)
			if tc.prep == nil {
				return
			}
			// The edge cases are really in the export.
			body, _ := Session(s, Options{})
			want := []string{`"name":"Store0004"`, `"name":"Store0006"`}
			if tc.name != "member without geometry" {
				want = []string{`"type":"Polygon","coordinates":[[[-4,40]`, `{"type":"GeometryCollection"}`,
					`[1e+21,-1e+21]`, `[1e-7,-0]`, `[-0,1e+21]`, `"selected":true`}
				for _, name := range oddNames {
					quoted, _ := json.Marshal(name) // escapes every odd name
					want = append(want, string(quoted))
				}
			}
			for _, frag := range want {
				if !bytes.Contains(body, []byte(frag)) {
					t.Errorf("export lacks %s", frag)
				}
			}
			if tc.name == "member without geometry" && bytes.Contains(body, []byte(`"name":"Store0005"`)) {
				t.Error("a store without geometry was exported")
			}
		})
	}
}

// TestSessionGeoJSONCacheInvalidation exports (filling the per-table text
// caches), then applies each mutator that changes a cached feature and
// checks the next export against the reference — and that the point
// index behind the radius rule saw a moved store.
func TestSessionGeoJSONCacheInvalidation(t *testing.T) {
	e, ds := exportEngine(t, airportRule+trainRule+oddRule+nearRule)
	c := ds.Cube
	loc := ds.CityLocs[3]
	const moved = 7
	session := func() *core.Session {
		t.Helper()
		s, err := e.StartSession("alice", loc)
		if err != nil {
			t.Fatal(err)
		}
		checkReference(t, s)
		return s
	}
	session()
	city := c.Dimension("Store").Level("Store").Parent(0)
	for _, m := range []struct {
		name string
		do   func() error
	}{
		{"SetMemberGeometry away", func() error { return c.SetMemberGeometry("Store", "Store", moved, geom.Pt(10, 10)) }},
		{"SetMemberGeometry here", func() error { return c.SetMemberGeometry("Store", "Store", moved, loc) }},
		{"SetMemberAttr descriptor", func() error { return c.SetMemberAttr("Store", "Store", 8, "name", "renamed <store>") }},
		{"AddMember", func() error {
			// The radius rule refuses a store without geometry; the cube
			// tests pin that AddMember alone invalidates the caches.
			i, err := c.AddMember("Store", "Store", "newcomer", city)
			if err != nil {
				return err
			}
			return c.SetMemberGeometry("Store", "Store", i, geom.Pt(loc.X, loc.Y+0.01))
		}},
		{"AddLayerObject", func() error {
			_, err := c.AddLayerObject(datagen.LayerAirport, "new & improved", geom.Pt(loc.X+0.01, loc.Y))
			return err
		}},
	} {
		if err := m.do(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		s := session()
		// The store sits at the login location from the second move on.
		if got := s.View().LevelMask("Store", "Store").Test(int(moved)); got != (m.name != "SetMemberGeometry away") {
			t.Fatalf("after %s the moved store's selection is %v", m.name, got)
		}
	}
}

// TestNonFiniteGeoJSON: a non-finite coordinate fails the export the way
// it fails map.svg, instead of serving a geometry without coordinates —
// unless the feature is not exported at all.
func TestNonFiniteGeoJSON(t *testing.T) {
	e, ds := exportEngine(t, airportRule+nearRule)
	s, err := e.StartSession("alice", geom.Pt(math.NaN(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Session(s, Options{}); err == nil || !strings.Contains(err.Error(), "non-finite coordinate") {
		t.Fatalf("NaN location exported: %v", err)
	}

	loc := ds.CityLocs[3]
	s, err = e.StartSession("alice", loc)
	if err != nil {
		t.Fatal(err)
	}
	checkReference(t, s) // fills the caches
	far := int32(-1)
	for i := int32(0); i < 60; i++ {
		if !s.View().LevelMask("Store", "Store").Test(int(i)) {
			far = i
			break
		}
	}
	if err := ds.Cube.SetMemberGeometry("Store", "Store", far, geom.Pt(math.Inf(1), 40)); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {SimplifyTolerance: 0.1}} {
		_, err := Session(s, opts)
		if want := fmt.Sprintf("export: member feature %q has a non-finite coordinate", ds.Cube.Dimension("Store").Level("Store").Name(far)); err == nil || err.Error() != want {
			t.Fatalf("%+v: error %v, want %s", opts, err, want)
		}
	}
	// SelectedOnly skips the unselected store and still reads the cache.
	if _, err := Session(s, Options{SelectedOnly: true}); err != nil {
		t.Fatalf("selected-only export failed on an unexported store: %v", err)
	}
}

// TestConcurrentExport runs sessions exporting at once — the first
// exports race to build the text caches — under the race detector in
// scripts/stress.sh; every body must equal the reference.
func TestConcurrentExport(t *testing.T) {
	e, ds := exportEngine(t, airportRule+trainRule+oddRule+nearRule)
	var sessions []*core.Session
	var want [][]byte
	for i := 0; i < 4; i++ {
		s, err := e.StartSession("alice", ds.CityLocs[i])
		if err != nil {
			t.Fatal(err)
		}
		body, err := refSession(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sessions, want = append(sessions, s), append(want, body)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				i := (w + r) % len(sessions)
				got, err := AppendSession(nil, sessions[i], Options{})
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want[i]) {
					errs <- fmt.Errorf("worker %d: session %d's export differs from the reference", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentExportDuringSelect exports one session's map as SVG and
// GeoJSON while the same session runs a fixed sequence of selections,
// under the race detector in scripts/stress.sh. Every body must be the
// reference render of one of the sequence's selection states: an export
// reads one view of the session, so a selection landing mid-export
// cannot tear it.
func TestConcurrentExportDuringSelect(t *testing.T) {
	e, ds := exportEngine(t, airportRule+trainRule)
	loc := ds.CityLocs[3]
	stores := []int32{0, 7, 14, 21, 28, 35, 42, 49}
	geoOpts := []Options{{}, {SelectedOnly: true}}
	type state struct {
		svg string
		geo [][]byte // per geoOpts
	}
	render := func(s *core.Session) state {
		t.Helper()
		svg, err := refSessionSVG(s, SVGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st := state{svg: svg}
		for _, opts := range geoOpts {
			body, err := refSession(s, opts)
			if err != nil {
				t.Fatal(err)
			}
			st.geo = append(st.geo, body)
		}
		return st
	}
	// The reference states: after login and after each selection.
	ref, err := e.StartSession("alice", loc)
	if err != nil {
		t.Fatal(err)
	}
	// Each step selects one store by name.
	selectStore := func(s *core.Session, m int32) error {
		name := e.Cube().Dimension("Store").LevelAt(0).Name(m)
		_, err := s.SpatialSelect("GeoMD.Store", fmt.Sprintf("GeoMD.Store.name = '%s'", name))
		return err
	}
	states := []state{render(ref)}
	for _, m := range stores {
		if err := selectStore(ref, m); err != nil {
			t.Fatal(err)
		}
		states = append(states, render(ref))
		if prev := states[len(states)-2]; prev.svg == states[len(states)-1].svg {
			t.Fatalf("selecting store %d changed nothing; every step must change the map", m)
		}
	}

	for round := 0; round < 3; round++ {
		s, err := e.StartSession("alice", loc)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		errs := make(chan error, 8)
		var exports atomic.Int64 // checked exports, both exporters
		var wg sync.WaitGroup
		export := func(check func() error) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := check(); err != nil {
					errs <- err
					return
				}
				exports.Add(1)
			}
		}
		wg.Add(2)
		go export(func() error {
			got, err := SessionSVG(s, SVGOptions{})
			if err != nil {
				return err
			}
			for _, st := range states {
				if got == st.svg {
					return nil
				}
			}
			return fmt.Errorf("round %d: an SVG matches no selection state", round)
		})
		go export(func() error {
			for i, opts := range geoOpts {
				got, err := Session(s, opts)
				if err != nil {
					return err
				}
				found := false
				for _, st := range states {
					found = found || bytes.Equal(got, st.geo[i])
				}
				if !found {
					return fmt.Errorf("round %d: a %+v GeoJSON body matches no selection state", round, opts)
				}
			}
			return nil
		})
		// Each selection waits until two more exports have finished, so
		// exports run at every state and the next selection lands among
		// them.
		for _, m := range stores {
			for seen := exports.Load(); exports.Load() < seen+2 && len(errs) == 0; {
				runtime.Gosched()
			}
			if err := selectStore(s, m); err != nil {
				t.Error(err)
				break
			}
		}
		close(done)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		// Quiescent, the session is in the sequence's last state.
		last := states[len(states)-1]
		if got, err := SessionSVG(s, SVGOptions{}); err != nil || got != last.svg {
			t.Fatalf("round %d: final SVG differs from the last state (err %v)", round, err)
		}
	}
}

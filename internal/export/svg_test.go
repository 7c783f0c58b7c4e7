package export

import (
	"math"
	"strings"
	"testing"

	"sdwp/internal/core"
	"sdwp/internal/datagen"
	"sdwp/internal/geom"
)

func TestStyleAttrHelpers(t *testing.T) {
	style := `fill="none" stroke="#3f6fb5" stroke-width="1.5" r="4" pfill="#3f6fb5"`
	if got := extractAttr(style, "r", "x"); got != "4" {
		t.Errorf("r = %q", got)
	}
	if got := extractAttr(style, "stroke", "x"); got != "#3f6fb5" {
		t.Errorf("stroke = %q", got)
	}
	if got := extractAttr(style, "missing", "fb"); got != "fb" {
		t.Errorf("fallback = %q", got)
	}
	// "r" must not match inside "stroke" or any other attribute name.
	if got := extractAttr(`color="#fff"`, "r", "fb"); got != "fb" {
		t.Errorf("boundary violated: %q", got)
	}
	out := removeAttr(style, "r")
	if strings.Contains(out, ` r="`) || !strings.Contains(out, `stroke-width="1.5"`) {
		t.Errorf("removeAttr = %q", out)
	}
	if got := removeAttr(style, "missing"); got != style {
		t.Errorf("removeAttr missing changed string")
	}
}

func TestSessionSVG(t *testing.T) {
	s, _ := sessionForExport(t)
	svg, err := SessionSVG(s, SVGOptions{Width: 640})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		`<svg xmlns="http://www.w3.org/2000/svg" width="640"`,
		"<polyline",        // train lines
		"<circle",          // airports / stores
		`fill="#d03838"`,   // selected members emphasized
		`stroke="#1a7a1a"`, // user crosshair
		"</svg>",
	} {
		if !strings.Contains(svg, frag) {
			t.Errorf("SVG missing %q", frag)
		}
	}
	// All coordinates inside the viewBox (no negative positions).
	if strings.Contains(svg, `cx="-`) || strings.Contains(svg, `x1="-`) {
		// The crosshair may extend 10px past a point at the very edge; the
		// bounds padding makes this effectively impossible for the data,
		// so treat it as a bug.
		t.Error("negative coordinates in SVG")
	}
}

func TestSessionSVGDefaultsAndSimplify(t *testing.T) {
	s, _ := sessionForExport(t)
	svg, err := SessionSVG(s, SVGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, `width="800"`) {
		t.Error("default width not applied")
	}
	simplified, err := SessionSVG(s, SVGOptions{SimplifyTolerance: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(simplified) >= len(svg) {
		t.Errorf("simplified SVG (%d bytes) not smaller than full (%d)", len(simplified), len(svg))
	}
}

// exportEngine builds an engine over a small warehouse with the given
// rules; a catalog layer "Broken" holds a one-vertex line (a geometry the
// GeoJSON decoder rejects), and the layers of addOddLayers (admitted by
// oddRule) hold odd names, numbers and shapes.
func exportEngine(t *testing.T, rules string) (*core.Engine, *datagen.Dataset) {
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
	if _, err := ds.Cube.RegisterLayer("Broken", geom.TypeLine); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Cube.AddLayerObject("Broken", "stub", geom.Ln(geom.Pt(-3.7, 40.4))); err != nil {
		t.Fatal(err)
	}
	addOddLayers(t, ds.Cube)
	users, err := datagen.NewUserStore(map[string]string{"alice": "RegionalSalesManager"})
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(ds.Cube, users, core.Options{})
	t.Cleanup(e.Close)
	if _, err := e.AddRules(rules); err != nil {
		t.Fatal(err)
	}
	return e, ds
}

const (
	airportRule = `Rule:airports When SessionStart do
  AddLayer('Airport', POINT)
  BecomeSpatial(MD.Sales.Store.geometry, POINT)
endWhen
`
	trainRule = `Rule:trains When SessionStart do
  AddLayer('Train', LINE)
endWhen
`
	nearRule = `Rule:near When SessionStart do
  Foreach s in (GeoMD.Store)
    If (Distance(s.geometry, SUS.DecisionMaker.dm2session.s2location.geometry) < 40km) then
      SelectInstance(s)
    endIf
  endForeach
endWhen
`
	brokenRule = `Rule:broken When SessionStart do
  AddLayer('Broken', LINE)
endWhen
`
)

// TestSessionSVGMatchesRoundTrip pins SessionSVG, which draws straight from
// the geometries, byte for byte against the GeoJSON round-trip renderer it
// replaced — with and without the Train layer, with selected members, with
// a simplify tolerance, without a location, and at other widths.
func TestSessionSVGMatchesRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name, rules string
		located     bool
	}{
		{"airports and stores", airportRule, true},
		{"selected stores", airportRule + nearRule, true},
		{"trains", airportRule + trainRule + nearRule, true},
		{"no location", airportRule + trainRule, false},
		{"no spatial schema", trainRule, false},
		{"hospitals", "Rule:hospitals When SessionStart do AddLayer('Hospital', POINT) endWhen", true},
		{"odd shapes", airportRule + oddRule, true},
		{"nothing to draw", "Rule:idle When SessionStart do If (false) then AddLayer('Airport', POINT) endIf endWhen", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, ds := exportEngine(t, tc.rules)
			var loc geom.Geometry
			if tc.located {
				loc = ds.CityLocs[3]
			}
			s, err := e.StartSession("alice", loc)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []SVGOptions{{}, {Width: 333}, {SimplifyTolerance: 0.2}, {Width: 1200, SimplifyTolerance: 0.05}} {
				got, err := SessionSVG(s, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refSessionSVG(s, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%+v: SVG differs from the round-trip renderer\ngot  %.300q\nwant %.300q", opts, got, want)
				}
			}
		})
	}
}

// A geometry the GeoJSON decoder rejects used to fail only map.svg (the
// round trip decoded it back); drawing from the geometry renders what
// /api/geojson serves.
func TestSessionSVGDrawsWhatGeoJSONServes(t *testing.T) {
	e, ds := exportEngine(t, airportRule+brokenRule)
	s, err := e.StartSession("alice", ds.CityLocs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refSessionSVG(s, SVGOptions{}); err == nil {
		t.Fatal("the round-trip renderer accepted a one-vertex line; the regression case is gone")
	}
	body, err := Session(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var served int
	for _, f := range decodeFeatures(t, body) {
		if f.Properties["layer"] == "Broken" {
			served++
			if string(f.Geometry) != `{"type":"LineString","coordinates":[[-3.7,40.4]]}` {
				t.Errorf("geojson geometry = %s", f.Geometry)
			}
		}
	}
	svg, err := SessionSVG(s, SVGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if served != 1 || strings.Count(svg, "<polyline") != served {
		t.Fatalf("geojson serves %d broken lines, SVG draws %d polylines", served, strings.Count(svg, "<polyline"))
	}

	// A non-finite location cannot be carried by GeoJSON; the map refuses
	// it as the round trip did.
	s2, err := e.StartSession("alice", geom.Pt(math.NaN(), 40))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SessionSVG(s2, SVGOptions{}); err == nil {
		t.Error("non-finite location drawn")
	}
	if _, err := refSessionSVG(s2, SVGOptions{}); err == nil {
		t.Error("reference drew a non-finite location")
	}
	if _, err := Session(s2, Options{}); err == nil {
		t.Error("non-finite location served as GeoJSON")
	}
}

package geom

import (
	"strings"
	"testing"
)

func TestWKTWrite(t *testing.T) {
	for _, tc := range []struct {
		g    Geometry
		want string
	}{
		{Pt(1, 2), "POINT (1 2)"},
		{Pt(-0.5, 38.25), "POINT (-0.5 38.25)"},
		{Ln(Pt(0, 0), Pt(1, 1)), "LINESTRING (0 0, 1 1)"},
		{Line{}, "LINESTRING EMPTY"},
		{Poly(Pt(0, 0), Pt(1, 0), Pt(1, 1)), "POLYGON ((0 0, 1 0, 1 1, 0 0))"},
		{Polygon{}, "POLYGON EMPTY"},
		{Coll(Pt(1, 1)), "GEOMETRYCOLLECTION (POINT (1 1))"},
		{Collection{}, "GEOMETRYCOLLECTION EMPTY"},
	} {
		if got := tc.g.WKT(); got != tc.want {
			t.Errorf("WKT = %q, want %q", got, tc.want)
		}
	}
}

func TestWKTParseValid(t *testing.T) {
	for _, src := range []string{
		"POINT (1 2)",
		"POINT(1 2)",
		"point ( -1.5 2e3 )",
		"LINESTRING (0 0, 1 1, 2 0)",
		"LINE (0 0, 5 5)",
		"LINESTRING EMPTY",
		"POLYGON ((0 0, 1 0, 1 1, 0 0))",
		"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))",
		"POLYGON EMPTY",
		"GEOMETRYCOLLECTION (POINT (1 1), LINESTRING (0 0, 1 1))",
		"COLLECTION (POINT (0 0))",
		"GEOMETRYCOLLECTION EMPTY",
		"GEOMETRYCOLLECTION (GEOMETRYCOLLECTION (POINT (3 3)))",
	} {
		if _, err := ParseWKT(src); err != nil {
			t.Errorf("ParseWKT(%q): %v", src, err)
		}
	}
}

func TestWKTParseInvalid(t *testing.T) {
	for _, src := range []string{
		"",
		"CIRCLE (0 0)",
		"POINT",
		"POINT ()",
		"POINT (1)",
		"POINT (1 2",
		"POINT (1 2) extra",
		"LINESTRING (0 0)",
		"POLYGON ((0 0, 1 1))",
		"POINT EMPTY",
		"GEOMETRYCOLLECTION (POINT (1 1)",
		"POLYGON ((0 0, 1 0, 0 0, 0 0))", // two distinct vertices once un-closed
	} {
		if _, err := ParseWKT(src); err == nil {
			t.Errorf("ParseWKT(%q): expected error", src)
		}
	}
}

func TestWKTRoundTrip(t *testing.T) {
	geoms := []Geometry{
		Pt(1.5, -2.25),
		Ln(Pt(0, 0), Pt(3, 4), Pt(5, 0)),
		Poly(Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)),
		Polygon{
			Shell: Ring{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)},
			Holes: []Ring{{Pt(1, 1), Pt(2, 1), Pt(2, 2), Pt(1, 2)}},
		},
		Coll(Pt(1, 1), Ln(Pt(0, 0), Pt(1, 1))),
	}
	for _, g := range geoms {
		back, err := ParseWKT(g.WKT())
		if err != nil {
			t.Fatalf("parse %q: %v", g.WKT(), err)
		}
		if !Equals(g, back) {
			t.Errorf("round trip %q → %q not equal", g.WKT(), back.WKT())
		}
	}
}

func TestWKTPolygonRingClosedOnOutput(t *testing.T) {
	w := Poly(Pt(0, 0), Pt(1, 0), Pt(0, 1)).WKT()
	if !strings.HasSuffix(w, "0 0))") {
		t.Errorf("ring must be closed on output: %q", w)
	}
}

func BenchmarkParseWKTPolygon(b *testing.B) {
	src := "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseWKT(src); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWKTNestingCap pins the collection nesting bound: maxWKTNesting
// levels parse, one more is an error rather than unbounded recursion —
// also for a text far too deep to recurse through.
func TestWKTNestingCap(t *testing.T) {
	nested := func(levels int) string {
		return strings.Repeat("GEOMETRYCOLLECTION (", levels) + "POINT (1 2)" + strings.Repeat(")", levels)
	}
	if _, err := ParseWKT(nested(maxWKTNesting)); err != nil {
		t.Fatalf("%d nested collections: %v", maxWKTNesting, err)
	}
	for _, src := range []string{nested(maxWKTNesting + 1), strings.Repeat("COLLECTION(", 2_000_000)} {
		if _, err := ParseWKT(src); err == nil || !strings.Contains(err.Error(), "nested") {
			t.Errorf("%.40q...: err = %v, want the nesting error", src, err)
		}
	}
	// Open collections close again: siblings at the cap still parse.
	sibling := "GEOMETRYCOLLECTION (" + nested(maxWKTNesting-1) + ", " + nested(maxWKTNesting-1) + ")"
	if _, err := ParseWKT(sibling); err != nil {
		t.Errorf("sibling collections at the cap: %v", err)
	}
}

// FuzzParseWKT feeds arbitrary text to the WKT parser (web clients send
// it as a login location): it must never panic, and whatever it accepts
// must format to WKT that parses back to a geometry formatting the same.
func FuzzParseWKT(f *testing.F) {
	for _, s := range []string{
		"POINT (1 2)", "LINESTRING (0 0, 1 1, 2 0)", "LINE EMPTY",
		"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))",
		"POLYGON ((0 0, 1 0, 1 1, 0 0, 0 0))", "POLYGON ((0 0, 1 0, 0 0, 0 0))", "POLYGON EMPTY",
		"GEOMETRYCOLLECTION (POINT (1 1), COLLECTION (LINESTRING (0 0, 1e3 -2.5E-3)))",
		"GEOMETRYCOLLECTION EMPTY", "point(-0 +5)", "COLLECTION (COLLECTION (COLLECTION EMPTY))",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseWKT(src)
		if err != nil {
			return
		}
		w := g.WKT()
		back, err := ParseWKT(w)
		if err != nil {
			t.Fatalf("%q parsed, but its WKT %q does not: %v", src, w, err)
		}
		if w2 := back.WKT(); w2 != w {
			t.Fatalf("%q: WKT %q re-parses to %q", src, w, w2)
		}
	})
}

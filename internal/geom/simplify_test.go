package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestSimplifyLineRemovesCollinear(t *testing.T) {
	// Collinear middle vertices vanish at any positive tolerance.
	l := Ln(Pt(0, 0), Pt(1, 0), Pt(2, 0), Pt(3, 0))
	got := Simplify(l, 0.01).(Line)
	if len(got.Pts) != 2 {
		t.Fatalf("simplified to %d points: %v", len(got.Pts), got.Pts)
	}
	if !got.Pts[0].Eq(Pt(0, 0)) || !got.Pts[1].Eq(Pt(3, 0)) {
		t.Fatalf("endpoints moved: %v", got.Pts)
	}
}

func TestSimplifyKeepsSignificantVertices(t *testing.T) {
	l := Ln(Pt(0, 0), Pt(5, 4), Pt(10, 0))
	got := Simplify(l, 1).(Line)
	if len(got.Pts) != 3 {
		t.Fatalf("significant vertex dropped: %v", got.Pts)
	}
	// With a huge tolerance the spike goes.
	got = Simplify(l, 10).(Line)
	if len(got.Pts) != 2 {
		t.Fatalf("vertex not dropped at high tolerance: %v", got.Pts)
	}
}

func TestSimplifyToleranceBound(t *testing.T) {
	// Property: every original vertex stays within tolerance of the
	// simplified line.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		pts := make([]Point, 50)
		x := 0.0
		for i := range pts {
			x += rng.Float64()
			pts[i] = Pt(x, rng.Float64()*3)
		}
		orig := Line{Pts: pts}
		tol := 0.5
		simp := Simplify(orig, tol).(Line)
		if len(simp.Pts) > len(pts) {
			t.Fatal("simplification added points")
		}
		for _, p := range pts {
			if d := Distance(p, simp); d > tol+1e-9 {
				t.Fatalf("vertex %v is %.4f from simplified line (tol %.2f)", p, d, tol)
			}
		}
	}
}

// refDouglasPeucker is the keep-array Douglas-Peucker that
// appendDouglasPeucker's in-order span walk replaced.
func refDouglasPeucker(pts []Point, tolerance float64) []Point {
	if len(pts) <= 2 {
		return append([]Point(nil), pts...)
	}
	keep := make([]bool, len(pts))
	keep[0], keep[len(pts)-1] = true, true
	type span struct{ lo, hi int }
	stack := []span{{0, len(pts) - 1}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.hi-s.lo < 2 {
			continue
		}
		maxD, maxI := -1.0, -1
		for i := s.lo + 1; i < s.hi; i++ {
			if d := distPointSegment(pts[i], pts[s.lo], pts[s.hi]); d > maxD {
				maxD, maxI = d, i
			}
		}
		if maxD > tolerance {
			keep[maxI] = true
			stack = append(stack, span{s.lo, maxI}, span{maxI, s.hi})
		}
	}
	var out []Point
	for i, k := range keep {
		if k {
			out = append(out, pts[i])
		}
	}
	return out
}

// AppendSimplified keeps exactly the vertices the keep-array walk kept, in
// order, for lines deep enough to spill its span stack, and appends them
// after what dst holds.
func TestAppendSimplifiedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	prefix := []Point{Pt(-1, -1)}
	for trial := 0; trial < 300; trial++ {
		pts := make([]Point, rng.Intn(400))
		x := 0.0
		for i := range pts {
			x += rng.Float64()
			pts[i] = Pt(x, rng.Float64()*float64(1+trial%7))
		}
		tol := []float64{0.01, 0.3, 1, 5}[trial%4]
		if trial == 0 {
			// An exponential splits near each span's right end: every
			// vertex is kept and the pending right spans nest ~n deep.
			pts = make([]Point, 300)
			for i := range pts {
				pts[i] = Pt(float64(i), math.Exp(float64(i)/8))
			}
			tol = 1e-9
		}
		want := refDouglasPeucker(pts, tol)
		got := AppendSimplified(append([]Point(nil), prefix...), pts, tol)
		if len(got) != len(prefix)+len(want) || got[0] != prefix[0] {
			t.Fatalf("trial %d: %d vertices after the prefix, want %d", trial, len(got)-len(prefix), len(want))
		}
		for i, p := range want {
			if got[len(prefix)+i] != p {
				t.Fatalf("trial %d: vertex %d = %v, want %v", trial, i, got[len(prefix)+i], p)
			}
		}
		if simp := Simplify(Line{Pts: pts}, tol).(Line); len(simp.Pts) != len(want) {
			t.Fatalf("trial %d: Simplify kept %d vertices, want %d", trial, len(simp.Pts), len(want))
		}
	}
}

func TestSimplifyPassThroughs(t *testing.T) {
	p := Pt(1, 2)
	if got := Simplify(p, 1); !Equals(got, p) {
		t.Error("point must pass through")
	}
	if got := Simplify(nil, 1); got != nil {
		t.Error("nil must pass through")
	}
	l := Ln(Pt(0, 0), Pt(1, 1))
	if got := Simplify(l, 0); !Equals(got, l) {
		t.Error("zero tolerance must pass through")
	}
	// Collection simplifies member-wise.
	c := Coll(Ln(Pt(0, 0), Pt(1, 0), Pt(2, 0)))
	got := Simplify(c, 0.1).(Collection)
	if len(got.Geoms[0].(Line).Pts) != 2 {
		t.Error("collection member not simplified")
	}
}

func TestSimplifyPolygonKeepsRing(t *testing.T) {
	// A near-square with redundant vertices.
	p := Polygon{Shell: Ring{
		Pt(0, 0), Pt(1, 0.001), Pt(2, 0), Pt(2, 2), Pt(1, 2.001), Pt(0, 2),
	}}
	got := Simplify(p, 0.01).(Polygon)
	if len(got.Shell) != 4 {
		t.Fatalf("shell = %v", got.Shell)
	}
	// Absurd tolerance still yields a valid ring (≥3 vertices).
	got = Simplify(p, 100).(Polygon)
	if len(got.Shell) < 3 {
		t.Fatalf("over-simplified shell: %v", got.Shell)
	}
	// Tiny holes vanish.
	withHole := Polygon{
		Shell: Ring{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)},
		Holes: []Ring{{Pt(5, 5), Pt(5.001, 5), Pt(5, 5.001)}},
	}
	got = Simplify(withHole, 0.01).(Polygon)
	if len(got.Holes) != 0 {
		t.Fatalf("tiny hole survived: %v", got.Holes)
	}
}

func TestConvexHullSquare(t *testing.T) {
	pts := Coll(Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2), Pt(1, 1), Pt(0.5, 1.5))
	hull, ok := ConvexHull(pts).(Polygon)
	if !ok {
		t.Fatalf("hull type %T", ConvexHull(pts))
	}
	if len(hull.Shell) != 4 {
		t.Fatalf("hull = %v", hull.Shell)
	}
	if math.Abs(hull.Area()-4) > 1e-9 {
		t.Fatalf("hull area = %v", hull.Area())
	}
	// Every input point is inside or on the hull.
	for _, p := range pts.Geoms {
		if !Intersects(p, hull) {
			t.Fatalf("point %v outside hull", p)
		}
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if got := ConvexHull(Coll()); !got.IsEmpty() {
		t.Error("empty input should give empty hull")
	}
	if got, ok := ConvexHull(Pt(1, 1)).(Point); !ok || !got.Eq(Pt(1, 1)) {
		t.Error("single point hull")
	}
	if got, ok := ConvexHull(Coll(Pt(0, 0), Pt(1, 1), Pt(0, 0))).(Line); !ok || got.IsEmpty() {
		t.Error("two distinct points give a line")
	}
	// Collinear points give a line.
	if _, ok := ConvexHull(Coll(Pt(0, 0), Pt(1, 1), Pt(2, 2))).(Line); !ok {
		t.Error("collinear points should give a line")
	}
}

// Property: the hull contains all vertices and is convex.
func TestQuickConvexHullProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(60)
		gs := make([]Geometry, n)
		for i := range gs {
			gs[i] = Pt(rng.Float64()*10, rng.Float64()*10)
		}
		hull := ConvexHull(Collection{Geoms: gs})
		poly, ok := hull.(Polygon)
		if !ok {
			continue // degenerate random set
		}
		for _, g := range gs {
			if !Intersects(g, poly) {
				t.Fatalf("vertex %v outside hull", g)
			}
		}
		// Convexity: every consecutive triple turns the same way.
		sh := poly.Shell
		for i := range sh {
			a, b, c := sh[i], sh[(i+1)%len(sh)], sh[(i+2)%len(sh)]
			if cross(a, b, c) < -Epsilon {
				t.Fatalf("hull not convex at %v %v %v", a, b, c)
			}
		}
	}
}

func BenchmarkSimplify1000(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]Point, 1000)
	x := 0.0
	for i := range pts {
		x += rng.Float64()
		pts[i] = Pt(x, rng.Float64()*5)
	}
	l := Line{Pts: pts}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Simplify(l, 0.5)
	}
}

func BenchmarkConvexHull1000(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	gs := make([]Geometry, 1000)
	for i := range gs {
		gs[i] = Pt(rng.Float64()*10, rng.Float64()*10)
	}
	c := Collection{Geoms: gs}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ConvexHull(c)
	}
}

package geom

import (
	"math"
	"sort"
)

// This file implements the paper's order-sensitive Intersection operator
// (Section 4.2.3): "if we intersect LINE type with POINT the operator returns
// a COLLECTION type of sublines. However, if it is POINT intersecting LINE
// type the operator returns a COLLECTION type of points." The first operand
// determines what kind of pieces come back — the result is made of parts of
// the first operand located at the second operand.
//
// SnapTolerance governs how close a point must be to a line (in the planar
// coordinate units) to be treated as lying on it when splitting. It is wider
// than Epsilon because warehouse layers (train stops, city markers) are
// digitized independently of the lines they conceptually lie on.

// SnapTolerance is the point-on-line snapping distance used by Intersection,
// in the planar coordinate units of the stored geometries (degrees for
// lon/lat data, where the default corresponds to roughly one kilometre).
var SnapTolerance = 0.01

// Intersection returns the parts of a located at b, as defined by the paper's
// ordered operator. The result is always a Collection (possibly empty).
func Intersection(a, b Geometry) Collection {
	if a == nil || b == nil || a.IsEmpty() || b.IsEmpty() {
		return Collection{}
	}
	switch ga := a.(type) {
	case Point:
		if intersectsSnapped(ga, b) {
			return Coll(ga)
		}
		return Collection{}
	case Line:
		return lineIntersection(ga, b)
	case Polygon:
		return polygonIntersection(ga, b)
	case Collection:
		var out []Geometry
		for _, m := range ga.Flatten() {
			sub := Intersection(m, b)
			out = append(out, sub.Flatten()...)
		}
		return Collection{Geoms: out}
	}
	return Collection{}
}

// intersectsSnapped is Intersects with the wider SnapTolerance applied for
// point-versus-line and point-versus-point tests.
func intersectsSnapped(p Point, g Geometry) bool {
	switch gg := g.(type) {
	case Point:
		return math.Hypot(p.X-gg.X, p.Y-gg.Y) <= SnapTolerance
	case Line:
		return distPointGeom(p, gg) <= SnapTolerance
	case Polygon:
		return pointInPolygon(p, gg) >= 0 || distPointGeom(p, gg) <= SnapTolerance
	case Collection:
		for _, m := range gg.Flatten() {
			if intersectsSnapped(p, m) {
				return true
			}
		}
	}
	return false
}

func lineIntersection(l Line, b Geometry) Collection {
	switch gb := b.(type) {
	case Point:
		return splitLineAtPoint(l, gb)
	case Line:
		return lineLineIntersection(l, gb)
	case Polygon:
		return clipLineToPolygon(l, gb)
	case Collection:
		var out []Geometry
		for _, m := range gb.Flatten() {
			sub := lineIntersection(l, m)
			out = append(out, sub.Flatten()...)
		}
		return Collection{Geoms: out}
	}
	return Collection{}
}

// splitLineAtPoint returns the sublines of l obtained by splitting it at the
// point nearest to p, provided p lies on l within SnapTolerance. A point
// interior to the line yields two sublines; a point at a line end yields one.
func splitLineAtPoint(l Line, p Point) Collection {
	bestD := math.Inf(1)
	bestSeg := -1
	var bestPt Point
	for i := 0; i < l.NumSegments(); i++ {
		a, b := l.Segment(i)
		q, _ := projectOnSegment(p, a, b)
		d := math.Hypot(p.X-q.X, p.Y-q.Y)
		if d < bestD {
			bestD, bestSeg, bestPt = d, i, q
		}
	}
	if bestSeg < 0 || bestD > SnapTolerance {
		return Collection{}
	}
	// Both sublines share one backing array: at most bestSeg+2 vertices
	// for the first, len(l.Pts)-bestSeg for the second.
	buf := make([]Point, 0, len(l.Pts)+2)
	// First subline: vertices up to bestSeg, then the split point.
	first := append(buf, l.Pts[:bestSeg+1]...)
	if !first[len(first)-1].Eq(bestPt) {
		first = append(first, bestPt)
	}
	first = first[:len(first):len(first)]
	// Second subline: split point, then the remaining vertices.
	second := append(buf[len(first):len(first)], bestPt)
	for _, v := range l.Pts[bestSeg+1:] {
		if !v.Eq(bestPt) || len(second) > 1 {
			second = append(second, v)
		}
	}
	out := make([]Geometry, 0, 2)
	if len(first) >= 2 && Length(Line{Pts: first}) > Epsilon {
		out = append(out, Line{Pts: first})
	}
	if len(second) >= 2 && Length(Line{Pts: second}) > Epsilon {
		out = append(out, Line{Pts: second})
	}
	if len(out) == 0 {
		// The point coincides with a line terminal: the whole line is the
		// single "subline".
		out = append(out, l.Clone())
	}
	return Collection{Geoms: out}
}

// lineLineIntersection returns the crossing points plus any collinear shared
// segments of a with b.
func lineLineIntersection(a, b Line) Collection {
	var out []Geometry
	seen := func(p Point) bool {
		for _, g := range out {
			if q, ok := g.(Point); ok && q.Eq(p) {
				return true
			}
		}
		return false
	}
	for i := 0; i < a.NumSegments(); i++ {
		p1, p2 := a.Segment(i)
		for j := 0; j < b.NumSegments(); j++ {
			q1, q2 := b.Segment(j)
			switch k, p, q := segSegIntersection(p1, p2, q1, q2); k {
			case segPoint:
				if !seen(p) {
					out = append(out, p)
				}
			case segOverlap:
				out = append(out, Ln(p, q))
			}
		}
	}
	return Collection{Geoms: out}
}

// clipLineToPolygon returns the sublines of l that lie inside p.
func clipLineToPolygon(l Line, p Polygon) Collection {
	var out []Geometry
	var cur []Point
	flush := func() {
		if len(cur) >= 2 && Length(Line{Pts: cur}) > Epsilon {
			pts := make([]Point, len(cur))
			copy(pts, cur)
			out = append(out, Line{Pts: pts})
		}
		cur = nil
	}
	for i := 0; i < l.NumSegments(); i++ {
		a, b := l.Segment(i)
		// Split the segment at every boundary crossing, then keep pieces
		// whose midpoints are inside.
		ts := []float64{0, 1}
		polygonEdges(p, func(c, d Point) bool {
			if k, pt, _ := segSegIntersection(a, b, c, d); k == segPoint {
				dx, dy := b.X-a.X, b.Y-a.Y
				den := dx*dx + dy*dy
				if den > 0 {
					t := ((pt.X-a.X)*dx + (pt.Y-a.Y)*dy) / den
					ts = append(ts, math.Max(0, math.Min(1, t)))
				}
			}
			return true
		})
		sort.Float64s(ts)
		at := func(t float64) Point { return Point{a.X + t*(b.X-a.X), a.Y + t*(b.Y-a.Y)} }
		for k := 0; k+1 < len(ts); k++ {
			lo, hi := ts[k], ts[k+1]
			if hi-lo <= 1e-12 {
				continue
			}
			mid := at((lo + hi) / 2)
			if pointInPolygon(mid, p) >= 0 {
				s, e := at(lo), at(hi)
				if len(cur) == 0 {
					cur = append(cur, s)
				} else if !cur[len(cur)-1].Eq(s) {
					flush()
					cur = append(cur, s)
				}
				cur = append(cur, e)
			} else {
				flush()
			}
		}
	}
	flush()
	return Collection{Geoms: out}
}

func polygonIntersection(p Polygon, b Geometry) Collection {
	switch gb := b.(type) {
	case Point:
		if pointInPolygon(gb, p) >= 0 {
			return Coll(p.Clone())
		}
		return Collection{}
	case Line:
		if linePolygonIntersects(gb, p) {
			return Coll(p.Clone())
		}
		return Collection{}
	case Polygon:
		clipped := clipPolygon(p, gb)
		if clipped.IsEmpty() {
			return Collection{}
		}
		return Coll(clipped)
	case Collection:
		var out []Geometry
		for _, m := range gb.Flatten() {
			sub := polygonIntersection(p, m)
			out = append(out, sub.Flatten()...)
		}
		return Collection{Geoms: out}
	}
	return Collection{}
}

// clipPolygon clips subject against clip using Sutherland–Hodgman. The clip
// polygon is treated as convex (a documented limitation, see DESIGN.md);
// holes of both operands are ignored.
func clipPolygon(subject, clip Polygon) Polygon {
	outPts := append([]Point{}, subject.Shell...)
	cs := clip.Shell
	if len(cs) < 3 || len(outPts) < 3 {
		return Polygon{}
	}
	// Ensure counter-clockwise clip ring so "inside" is the left side.
	if ringArea(cs) < 0 {
		rev := make(Ring, len(cs))
		for i, p := range cs {
			rev[len(cs)-1-i] = p
		}
		cs = rev
	}
	for i := 0; i < len(cs); i++ {
		a, b := cs[i], cs[(i+1)%len(cs)]
		in := outPts
		outPts = nil
		if len(in) == 0 {
			break
		}
		prev := in[len(in)-1]
		prevInside := cross(a, b, prev) >= -Epsilon
		for _, cur := range in {
			curInside := cross(a, b, cur) >= -Epsilon
			if curInside != prevInside {
				if k, pt, _ := segSegIntersection(prev, cur, a, b); k == segPoint {
					outPts = append(outPts, pt)
				} else {
					// Nearly parallel edge: fall back to the midpoint.
					outPts = append(outPts, Point{(prev.X + cur.X) / 2, (prev.Y + cur.Y) / 2})
				}
			}
			if curInside {
				outPts = append(outPts, cur)
			}
			prev, prevInside = cur, curInside
		}
	}
	// Drop consecutive duplicates.
	var shell Ring
	for _, p := range outPts {
		if len(shell) == 0 || !shell[len(shell)-1].Eq(p) {
			shell = append(shell, p)
		}
	}
	if len(shell) >= 2 && shell[0].Eq(shell[len(shell)-1]) {
		shell = shell[:len(shell)-1]
	}
	if len(shell) < 3 {
		return Polygon{}
	}
	return Polygon{Shell: shell}
}

package geom

// Map-oriented geometry utilities used by the visualization/export layer
// (the paper's stated future work is "visualization aspects of the SDW"):
// Douglas-Peucker polyline simplification and Andrew's monotone-chain
// convex hull.

import "sort"

// Simplify reduces the vertex count of a geometry using the Douglas-Peucker
// algorithm with the given planar tolerance. Points pass through; polygon
// rings keep at least a triangle; collections simplify member-wise.
func Simplify(g Geometry, tolerance float64) Geometry {
	if tolerance <= 0 || g == nil {
		return g
	}
	switch gg := g.(type) {
	case Point:
		return g // the caller's interface value: re-boxing gg would allocate
	case Line:
		return Line{Pts: AppendSimplified(make([]Point, 0, len(gg.Pts)), gg.Pts, tolerance)}
	case Polygon:
		out := Polygon{Shell: simplifyRing(gg.Shell, tolerance)}
		for _, h := range gg.Holes {
			// Holes smaller than the tolerance square are invisible at this
			// simplification level.
			if (Polygon{Shell: h}).Area() < tolerance*tolerance {
				continue
			}
			sh := simplifyRing(h, tolerance)
			if len(sh) >= 3 {
				out.Holes = append(out.Holes, sh)
			}
		}
		return out
	case Collection:
		gs := make([]Geometry, len(gg.Geoms))
		for i, m := range gg.Geoms {
			gs[i] = Simplify(m, tolerance)
		}
		return Collection{Geoms: gs}
	}
	return g
}

func simplifyRing(r Ring, tolerance float64) Ring {
	if len(r) <= 3 {
		return append(Ring(nil), r...)
	}
	// Close the ring, simplify as a line, reopen.
	closed := append(append([]Point(nil), r...), r[0])
	simplified := appendDouglasPeucker(make([]Point, 0, len(closed)), closed, tolerance)
	if len(simplified) >= 2 && simplified[0].Eq(simplified[len(simplified)-1]) {
		simplified = simplified[:len(simplified)-1]
	}
	if len(simplified) < 3 {
		// Over-simplified: keep a representative triangle.
		return Ring{r[0], r[len(r)/3], r[2*len(r)/3]}
	}
	return Ring(simplified)
}

// AppendSimplified appends to dst the vertices Simplify keeps of a line
// through pts — the form a renderer simplifying feature after feature
// into one scratch slice uses.
func AppendSimplified(dst, pts []Point, tolerance float64) []Point {
	if tolerance <= 0 {
		return append(dst, pts...)
	}
	return appendDouglasPeucker(dst, pts, tolerance)
}

// appendDouglasPeucker keeps the endpoints and recursively the vertex
// farthest from the current chord when it exceeds the tolerance. Spans
// are split left first, so the end vertex of every span left unsplit
// comes out in order.
func appendDouglasPeucker(dst, pts []Point, tolerance float64) []Point {
	if len(pts) <= 2 {
		return append(dst, pts...)
	}
	type span struct{ lo, hi int }
	var spans [32]span // a deeper split spills to the heap
	stack := append(spans[:0], span{0, len(pts) - 1})
	dst = append(dst, pts[0])
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		maxD := -1.0
		maxI := -1
		for i := s.lo + 1; i < s.hi; i++ {
			if d := distPointSegment(pts[i], pts[s.lo], pts[s.hi]); d > maxD {
				maxD, maxI = d, i
			}
		}
		if maxD > tolerance {
			stack = append(stack, span{maxI, s.hi}, span{s.lo, maxI})
			continue
		}
		dst = append(dst, pts[s.hi])
	}
	return dst
}

// ConvexHull returns the convex hull of the geometry's vertices as a
// polygon (or the degenerate point/line when fewer than three distinct
// vertices exist). It uses Andrew's monotone-chain algorithm.
func ConvexHull(g Geometry) Geometry {
	pts := collectVertices(g)
	if len(pts) == 0 {
		return Collection{}
	}
	// Dedup + sort lexicographically.
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].X != pts[j].X {
			return pts[i].X < pts[j].X
		}
		return pts[i].Y < pts[j].Y
	})
	uniq := pts[:1]
	for _, p := range pts[1:] {
		if !p.Eq(uniq[len(uniq)-1]) {
			uniq = append(uniq, p)
		}
	}
	switch len(uniq) {
	case 1:
		return uniq[0]
	case 2:
		return Ln(uniq[0], uniq[1])
	}
	build := func(points []Point) []Point {
		var h []Point
		for _, p := range points {
			for len(h) >= 2 && cross(h[len(h)-2], h[len(h)-1], p) <= 0 {
				h = h[:len(h)-1]
			}
			h = append(h, p)
		}
		return h
	}
	lower := build(uniq)
	rev := make([]Point, len(uniq))
	for i, p := range uniq {
		rev[len(uniq)-1-i] = p
	}
	upper := build(rev)
	hull := append(lower[:len(lower)-1], upper[:len(upper)-1]...)
	if len(hull) < 3 {
		return Ln(uniq[0], uniq[len(uniq)-1])
	}
	return Polygon{Shell: Ring(hull)}
}

// collectVertices gathers every coordinate of the geometry.
func collectVertices(g Geometry) []Point {
	switch gg := g.(type) {
	case nil:
		return nil
	case Point:
		return []Point{gg}
	case Line:
		return append([]Point(nil), gg.Pts...)
	case Polygon:
		out := append([]Point(nil), gg.Shell...)
		for _, h := range gg.Holes {
			out = append(out, h...)
		}
		return out
	case Collection:
		var out []Point
		for _, m := range gg.Geoms {
			out = append(out, collectVertices(m)...)
		}
		return out
	}
	return nil
}

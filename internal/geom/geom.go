// Package geom implements the planar and geodetic geometry substrate used by
// the spatial data warehouse: the four geometric primitives the paper's
// GeometricTypes enumeration allows (POINT, LINE, POLYGON, COLLECTION), WKT
// encoding, the ISO/OGC-style topological predicates of PRML's spatial
// expressions (Intersect, Disjoint, Cross, Inside, Equals), distance and
// length computation, and the paper's order-sensitive Intersection operator.
//
// Coordinates are stored as X=longitude, Y=latitude in decimal degrees when
// geometries describe geographic data; all geodetic computations (package
// functions prefixed Geodetic, and Haversine) interpret them that way and
// return kilometres. The plain functions (Distance, Length, the predicates)
// operate in the planar coordinate space of the stored values.
package geom

import (
	"fmt"
	"math"
)

// Type enumerates the geometric primitives allowed by the spatial-aware user
// model's GeometricTypes enumeration (paper Fig. 3). The names follow the
// paper: POINT, LINE, POLYGON and COLLECTION.
type Type uint8

const (
	TypeInvalid Type = iota
	TypePoint
	TypeLine
	TypePolygon
	TypeCollection
)

// String returns the paper's upper-case spelling of the type.
func (t Type) String() string {
	switch t {
	case TypePoint:
		return "POINT"
	case TypeLine:
		return "LINE"
	case TypePolygon:
		return "POLYGON"
	case TypeCollection:
		return "COLLECTION"
	default:
		return "INVALID"
	}
}

// ParseType parses the paper's spelling of a geometric type. It accepts the
// PRML literals POINT, LINE, POLYGON and COLLECTION (case-insensitively).
func ParseType(s string) (Type, error) {
	switch upper(s) {
	case "POINT":
		return TypePoint, nil
	case "LINE", "LINESTRING":
		return TypeLine, nil
	case "POLYGON":
		return TypePolygon, nil
	case "COLLECTION", "GEOMETRYCOLLECTION":
		return TypeCollection, nil
	}
	return TypeInvalid, fmt.Errorf("geom: unknown geometric type %q", s)
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// Epsilon is the tolerance used by the planar predicates: coordinates closer
// than Epsilon are considered coincident. Stored coordinates are degrees, so
// the default corresponds to roughly a tenth of a metre at the equator.
const Epsilon = 1e-6

// Geometry is the interface satisfied by the four primitives.
type Geometry interface {
	// Type returns the primitive kind.
	Type() Type
	// Bounds returns the axis-aligned bounding rectangle. Empty geometries
	// return an empty Rect (Min > Max).
	Bounds() Rect
	// IsEmpty reports whether the geometry has no coordinates.
	IsEmpty() bool
	// WKT renders the geometry in Well-Known Text.
	WKT() string
	// Clone returns a deep copy.
	Clone() Geometry
}

// Point is a POINT.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

func (p Point) Type() Type      { return TypePoint }
func (p Point) IsEmpty() bool   { return false }
func (p Point) Bounds() Rect    { return Rect{Min: p, Max: p} }
func (p Point) Clone() Geometry { return p }

// Eq reports coordinate equality within Epsilon.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Epsilon && math.Abs(p.Y-q.Y) <= Epsilon
}

// Line is a LINE (an open polyline with at least two vertices).
type Line struct {
	Pts []Point
}

// Ln is shorthand for constructing a Line from vertices.
func Ln(pts ...Point) Line { return Line{Pts: pts} }

func (l Line) Type() Type    { return TypeLine }
func (l Line) IsEmpty() bool { return len(l.Pts) < 2 }

func (l Line) Bounds() Rect {
	r := EmptyRect()
	for _, p := range l.Pts {
		r = r.ExtendPoint(p)
	}
	return r
}

func (l Line) Clone() Geometry {
	pts := make([]Point, len(l.Pts))
	copy(pts, l.Pts)
	return Line{Pts: pts}
}

// NumSegments returns the number of line segments.
func (l Line) NumSegments() int {
	if len(l.Pts) < 2 {
		return 0
	}
	return len(l.Pts) - 1
}

// Segment returns the i-th segment.
func (l Line) Segment(i int) (Point, Point) { return l.Pts[i], l.Pts[i+1] }

// Ring is a closed sequence of vertices (the closing edge from the last
// vertex back to the first is implicit). A valid ring has at least three
// vertices.
type Ring []Point

// Polygon is a POLYGON with an outer shell and optional holes.
type Polygon struct {
	Shell Ring
	Holes []Ring
}

// Poly is shorthand for constructing a hole-free polygon.
func Poly(shell ...Point) Polygon { return Polygon{Shell: shell} }

func (p Polygon) Type() Type    { return TypePolygon }
func (p Polygon) IsEmpty() bool { return len(p.Shell) < 3 }

func (p Polygon) Bounds() Rect {
	r := EmptyRect()
	for _, pt := range p.Shell {
		r = r.ExtendPoint(pt)
	}
	return r
}

func (p Polygon) Clone() Geometry {
	shell := make(Ring, len(p.Shell))
	copy(shell, p.Shell)
	holes := make([]Ring, len(p.Holes))
	for i, h := range p.Holes {
		holes[i] = make(Ring, len(h))
		copy(holes[i], h)
	}
	return Polygon{Shell: shell, Holes: holes}
}

// Collection is a COLLECTION of geometries.
type Collection struct {
	Geoms []Geometry
}

// Coll is shorthand for constructing a Collection.
func Coll(gs ...Geometry) Collection { return Collection{Geoms: gs} }

func (c Collection) Type() Type { return TypeCollection }

func (c Collection) IsEmpty() bool {
	for _, g := range c.Geoms {
		if !g.IsEmpty() {
			return false
		}
	}
	return true
}

func (c Collection) Bounds() Rect {
	r := EmptyRect()
	for _, g := range c.Geoms {
		if !g.IsEmpty() {
			r = r.ExtendRect(g.Bounds())
		}
	}
	return r
}

func (c Collection) Clone() Geometry {
	gs := make([]Geometry, len(c.Geoms))
	for i, g := range c.Geoms {
		gs[i] = g.Clone()
	}
	return Collection{Geoms: gs}
}

// Flatten returns the leaf (non-collection) members, recursively. A
// collection without nested collections returns its own member slice:
// callers must not modify the result.
func (c Collection) Flatten() []Geometry {
	nested := false
	for _, g := range c.Geoms {
		if _, ok := g.(Collection); ok {
			nested = true
			break
		}
	}
	if !nested {
		return c.Geoms
	}
	var out []Geometry
	for _, g := range c.Geoms {
		if sub, ok := g.(Collection); ok {
			out = append(out, sub.Flatten()...)
		} else {
			out = append(out, g)
		}
	}
	return out
}

// Rect is an axis-aligned bounding rectangle.
type Rect struct {
	Min, Max Point
}

// EmptyRect returns the identity for ExtendRect: Min at +inf, Max at -inf.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{Min: Point{inf, inf}, Max: Point{-inf, -inf}}
}

// IsEmpty reports whether the rect contains no points.
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// ExtendPoint grows r to include p.
func (r Rect) ExtendPoint(p Point) Rect {
	if p.X < r.Min.X {
		r.Min.X = p.X
	}
	if p.Y < r.Min.Y {
		r.Min.Y = p.Y
	}
	if p.X > r.Max.X {
		r.Max.X = p.X
	}
	if p.Y > r.Max.Y {
		r.Max.Y = p.Y
	}
	return r
}

// ExtendRect grows r to include o.
func (r Rect) ExtendRect(o Rect) Rect {
	if o.IsEmpty() {
		return r
	}
	return r.ExtendPoint(o.Min).ExtendPoint(o.Max)
}

// Intersects reports whether the rectangles overlap (edge touch counts,
// within Epsilon).
func (r Rect) Intersects(o Rect) bool {
	if r.IsEmpty() || o.IsEmpty() {
		return false
	}
	return r.Min.X <= o.Max.X+Epsilon && o.Min.X <= r.Max.X+Epsilon &&
		r.Min.Y <= o.Max.Y+Epsilon && o.Min.Y <= r.Max.Y+Epsilon
}

// ContainsPoint reports whether p lies inside or on the boundary of r.
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.Min.X-Epsilon && p.X <= r.Max.X+Epsilon &&
		p.Y >= r.Min.Y-Epsilon && p.Y <= r.Max.Y+Epsilon
}

// ContainsRect reports whether o lies entirely inside r.
func (r Rect) ContainsRect(o Rect) bool {
	if r.IsEmpty() || o.IsEmpty() {
		return false
	}
	return r.ContainsPoint(o.Min) && r.ContainsPoint(o.Max)
}

// Area returns the rectangle's area (0 for empty rects).
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.Max.X - r.Min.X) * (r.Max.Y - r.Min.Y)
}

// Expand grows the rect by d in every direction.
func (r Rect) Expand(d float64) Rect {
	return Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
}

// Center returns the rect's center point.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// DistanceToPoint returns the planar distance from the rect to p (0 if p is
// inside). Used as a lower bound in best-first nearest-neighbour search.
func (r Rect) DistanceToPoint(p Point) float64 {
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}

package geom

import (
	"fmt"
	"strconv"
	"strings"
)

// This file implements Well-Known Text (WKT) reading and writing for the four
// primitives. WKT is the interchange format the paper's ISO/OGC alignment
// implies; the web API and CLI tools use it for geometry I/O.

// WKT renders the point as "POINT (x y)".
func (p Point) WKT() string {
	return "POINT (" + fmtCoord(p.X) + " " + fmtCoord(p.Y) + ")"
}

// WKT renders the line as "LINESTRING (x y, x y, ...)".
func (l Line) WKT() string {
	if l.IsEmpty() {
		return "LINESTRING EMPTY"
	}
	var b strings.Builder
	b.WriteString("LINESTRING (")
	writeCoords(&b, l.Pts)
	b.WriteByte(')')
	return b.String()
}

// WKT renders the polygon as "POLYGON ((shell), (hole), ...)". Rings are
// closed on output (the first vertex is repeated at the end) per the WKT
// convention.
func (p Polygon) WKT() string {
	if p.IsEmpty() {
		return "POLYGON EMPTY"
	}
	var b strings.Builder
	b.WriteString("POLYGON (")
	writeRing(&b, p.Shell)
	for _, h := range p.Holes {
		b.WriteString(", ")
		writeRing(&b, h)
	}
	b.WriteByte(')')
	return b.String()
}

// WKT renders the collection as "GEOMETRYCOLLECTION (member, ...)".
func (c Collection) WKT() string {
	if len(c.Geoms) == 0 {
		return "GEOMETRYCOLLECTION EMPTY"
	}
	parts := make([]string, len(c.Geoms))
	for i, g := range c.Geoms {
		parts[i] = g.WKT()
	}
	return "GEOMETRYCOLLECTION (" + strings.Join(parts, ", ") + ")"
}

func fmtCoord(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeCoords(b *strings.Builder, pts []Point) {
	for i, p := range pts {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(fmtCoord(p.X))
		b.WriteByte(' ')
		b.WriteString(fmtCoord(p.Y))
	}
}

func writeRing(b *strings.Builder, r Ring) {
	b.WriteByte('(')
	writeCoords(b, []Point(r))
	if len(r) > 0 && !r[0].Eq(r[len(r)-1]) {
		b.WriteString(", ")
		b.WriteString(fmtCoord(r[0].X))
		b.WriteByte(' ')
		b.WriteString(fmtCoord(r[0].Y))
	}
	b.WriteByte(')')
}

// maxWKTNesting bounds how deeply collections may nest in parsed WKT. The
// parser recurses once per level, and WKT arrives from web clients: a
// text nesting millions of collections would exhaust the goroutine stack,
// which Go cannot recover from. Real geometries nest a level or two.
const maxWKTNesting = 100

// ParseWKT parses a WKT string into a Geometry. It accepts POINT,
// LINESTRING (or LINE), POLYGON and GEOMETRYCOLLECTION (or COLLECTION),
// case-insensitively, including the EMPTY keyword. Collections nested
// deeper than maxWKTNesting are an error.
func ParseWKT(s string) (Geometry, error) {
	p := &wktParser{src: s}
	g, err := p.parseGeometry()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("geom: trailing input at offset %d in %q", p.pos, s)
	}
	return g, nil
}

type wktParser struct {
	src   string
	pos   int
	depth int // collections open at pos
}

func (p *wktParser) errf(format string, args ...any) error {
	return fmt.Errorf("geom: wkt offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *wktParser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *wktParser) word() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
			p.pos++
		} else {
			break
		}
	}
	return upper(p.src[start:p.pos])
}

func (p *wktParser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != c {
		return p.errf("expected %q", string(c))
	}
	p.pos++
	return nil
}

func (p *wktParser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *wktParser) number() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
			p.pos++
		} else {
			break
		}
	}
	if start == p.pos {
		return 0, p.errf("expected number")
	}
	v, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	if err != nil {
		return 0, p.errf("bad number %q", p.src[start:p.pos])
	}
	return v, nil
}

func (p *wktParser) coord() (Point, error) {
	x, err := p.number()
	if err != nil {
		return Point{}, err
	}
	y, err := p.number()
	if err != nil {
		return Point{}, err
	}
	return Point{x, y}, nil
}

func (p *wktParser) coordList() ([]Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var pts []Point
	for {
		pt, err := p.coord()
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
		if p.peek() == ',' {
			p.pos++
			continue
		}
		break
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return pts, nil
}

func (p *wktParser) maybeEmpty() bool {
	save := p.pos
	if p.word() == "EMPTY" {
		return true
	}
	p.pos = save
	return false
}

func (p *wktParser) parseGeometry() (Geometry, error) {
	switch kw := p.word(); kw {
	case "POINT":
		if p.maybeEmpty() {
			return nil, p.errf("POINT EMPTY is not supported")
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		pt, err := p.coord()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return pt, nil
	case "LINESTRING", "LINE":
		if p.maybeEmpty() {
			return Line{}, nil
		}
		pts, err := p.coordList()
		if err != nil {
			return nil, err
		}
		if len(pts) < 2 {
			return nil, p.errf("linestring needs at least 2 points")
		}
		return Line{Pts: pts}, nil
	case "POLYGON":
		if p.maybeEmpty() {
			return Polygon{}, nil
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var rings []Ring
		for {
			pts, err := p.coordList()
			if err != nil {
				return nil, err
			}
			// Un-close the ring: drop every trailing vertex that repeats
			// the first, so WKT (which closes the ring once) writes text
			// that parses back to the same ring.
			for len(pts) >= 2 && pts[0].Eq(pts[len(pts)-1]) {
				pts = pts[:len(pts)-1]
			}
			if len(pts) < 3 {
				return nil, p.errf("polygon ring needs at least 3 distinct points")
			}
			rings = append(rings, Ring(pts))
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		poly := Polygon{Shell: rings[0]}
		if len(rings) > 1 {
			poly.Holes = rings[1:]
		}
		return poly, nil
	case "GEOMETRYCOLLECTION", "COLLECTION":
		if p.maybeEmpty() {
			return Collection{}, nil
		}
		if p.depth == maxWKTNesting {
			return nil, p.errf("collections nested deeper than %d levels", maxWKTNesting)
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		p.depth++
		var gs []Geometry
		for {
			g, err := p.parseGeometry()
			if err != nil {
				return nil, err
			}
			gs = append(gs, g)
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		p.depth--
		return Collection{Geoms: gs}, nil
	case "":
		return nil, p.errf("empty input")
	default:
		return nil, p.errf("unknown geometry keyword %q", kw)
	}
}

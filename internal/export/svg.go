package export

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"sdwp/internal/core"
	"sdwp/internal/geom"
)

// This file renders a personalized session as a standalone SVG map — the
// most direct form of the paper's "visualization aspects" future work: open
// the file and see exactly the warehouse slice the rules gave this decision
// maker. Styling is deliberately simple and semantic: layers in muted
// strokes, spatial-level members as dots (selected ones emphasized), the
// user location as a crosshair.

// SVGOptions configures the rendering.
type SVGOptions struct {
	// Width of the output image in pixels; height follows the data's
	// aspect ratio. Default 800.
	Width int
	// SimplifyTolerance forwards to the geometry simplifier (degrees).
	SimplifyTolerance float64
}

// SessionSVG renders the session's personalized map.
func SessionSVG(s *core.Session, opts SVGOptions) (string, error) {
	b, err := AppendSessionSVG(nil, s, opts)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// AppendSessionSVG appends the session's personalized map to dst. It draws
// straight from the features' geometries (see walk) with every number
// formatted into dst, and produces exactly the bytes of encoding each
// feature as GeoJSON and drawing it back (GeoJSON's float64 round trip is
// exact) — except that geometries the GeoJSON decoder rejects (a line of
// one vertex, a ring of two) are drawn as /api/geojson serves them.
//
// It walks the features twice, once for the data bounds and once to draw,
// and keeps none of them in between, only what simplification made (see
// simplified). Both walks read one view of the session, so they yield
// the same features with the same selection state.
func AppendSessionSVG(dst []byte, s *core.Session, opts SVGOptions) ([]byte, error) {
	if opts.Width <= 0 {
		opts.Width = 800
	}
	simp := simplified{tol: opts.SimplifyTolerance}
	bounds := geom.EmptyRect()
	var user geom.Point // where the crosshair goes, if located
	located := false
	view := s.View()
	err := walk(s, view, false, func(f *feature) error {
		r, ok := simp.add(f.g)
		if !ok {
			return nonFinite(f)
		}
		bounds = bounds.ExtendRect(r)
		if f.kind == kindLocation {
			located = true
			if user, ok = f.g.(geom.Point); !ok {
				user = r.Center()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if bounds.IsEmpty() {
		return appendEmptySVG(dst, opts.Width), nil
	}
	bounds = bounds.Expand(0.05 * (bounds.Max.X - bounds.Min.X + 1e-9))

	w := float64(opts.Width)
	spanX := bounds.Max.X - bounds.Min.X
	spanY := bounds.Max.Y - bounds.Min.Y
	if spanX <= 0 {
		spanX = 1
	}
	if spanY <= 0 {
		spanY = 1
	}
	h := w * spanY / spanX
	p := svgPen{b: dst, minX: bounds.Min.X, minY: bounds.Min.Y, spanX: spanX, spanY: spanY, w: w, h: h}

	p.b = append(p.b, `<svg xmlns="http://www.w3.org/2000/svg" width="`...)
	p.num0(w)
	p.b = append(p.b, `" height="`...)
	p.num0(h)
	p.b = append(p.b, `" viewBox="0 0 `...)
	p.num0(w)
	p.b = append(p.b, ' ')
	p.num0(h)
	p.b = append(p.b, "\">\n"...)
	p.b = append(p.b, `<rect width="100%" height="100%" fill="#fbfbf8"/>`+"\n"...)
	// The walk yields layers, then members, then the user location: the
	// paint order (layers under members under the user marker).
	err = walk(s, view, false, func(f *feature) error {
		switch f.kind {
		case kindLayer:
			simp.draw(&p, f.g, layerStyles[layerColor(f.layer)])
		case kindMember:
			st := memberStyle
			if f.selected {
				st = selectedStyle
			}
			simp.draw(&p, f.g, st)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if located {
		p.user(user)
	}
	p.b = append(p.b, "</svg>\n"...)
	return p.b, nil
}

// simplified carries the first walk's simplifications to the second, in
// walk order, so no geometry is simplified twice: the vertices of every
// line back to back in one slice, and polygons and collections as values.
// A point simplifies to itself and is not kept. Without a tolerance it
// keeps nothing.
type simplified struct {
	tol    float64
	pts    []geom.Point    // the simplified lines' vertices
	ends   []int           // per line, the end of its vertices in pts
	shapes []geom.Geometry // the simplified polygons and collections
	line   int             // the second walk's next line
	shape  int             // ... and next shape
}

// add simplifies g, keeping the result, and returns its bounds and
// whether all its coordinates are finite.
func (s *simplified) add(g geom.Geometry) (geom.Rect, bool) {
	if s.tol > 0 {
		switch gg := g.(type) {
		case geom.Point:
		case geom.Line:
			from := len(s.pts)
			s.pts = geom.AppendSimplified(s.pts, gg.Pts, s.tol)
			s.ends = append(s.ends, len(s.pts))
			ln := geom.Line{Pts: s.pts[from:]}
			return ln.Bounds(), finitePts(ln.Pts)
		default:
			g = geom.Simplify(g, s.tol)
			s.shapes = append(s.shapes, g)
		}
	}
	return g.Bounds(), finite(g)
}

// draw draws the next feature, g as add simplified it.
func (s *simplified) draw(p *svgPen, g geom.Geometry, st *svgStyle) {
	if s.tol > 0 {
		switch g.(type) {
		case geom.Point:
		case geom.Line:
			from := 0
			if s.line > 0 {
				from = s.ends[s.line-1]
			}
			p.polyline(s.pts[from:s.ends[s.line]], st)
			s.line++
			return
		default:
			g = s.shapes[s.shape]
			s.shape++
		}
	}
	p.geom(g, st)
}

func appendEmptySVG(b []byte, width int) []byte {
	b = append(b, `<svg xmlns="http://www.w3.org/2000/svg" width="`...)
	b = strconv.AppendInt(b, int64(width), 10)
	b = append(b, `" height="`...)
	b = strconv.AppendInt(b, int64(width/2), 10)
	return append(b, `"><rect width="100%" height="100%" fill="#fbfbf8"/></svg>`+"\n"...)
}

// finite reports whether every coordinate of g is finite (GeoJSON cannot
// carry the others, so neither export draws them).
func finite(g geom.Geometry) bool {
	switch gg := g.(type) {
	case geom.Point:
		return finitePt(gg)
	case geom.Line:
		return finitePts(gg.Pts)
	case geom.Polygon:
		for _, h := range gg.Holes {
			if !finitePts(h) {
				return false
			}
		}
		return finitePts(gg.Shell)
	case geom.Collection:
		for _, m := range gg.Geoms {
			if !finite(m) {
				return false
			}
		}
	}
	return true
}

func finitePts(pts []geom.Point) bool {
	for _, p := range pts {
		if !finitePt(p) {
			return false
		}
	}
	return true
}

func finitePt(p geom.Point) bool {
	return !math.IsNaN(p.X) && !math.IsNaN(p.Y) && !math.IsInf(p.X, 0) && !math.IsInf(p.Y, 0)
}

// layerPalette holds the layers' stroke colours.
var layerPalette = [...]string{"#3f6fb5", "#4f9e54", "#b58a3f", "#8a5fb0", "#b05f77"}

// layerColor picks a layer's palette index (stable hash of its name).
func layerColor(name string) int {
	sum := 0
	for _, c := range name {
		sum += int(c)
	}
	return sum % len(layerPalette)
}

// layerStyle is a layer's style, in its name's colour.
func layerStyle(name string) string { return paletteStyle(layerColor(name)) }

func paletteStyle(i int) string {
	color := layerPalette[i]
	return fmt.Sprintf(`fill="none" stroke="%s" stroke-width="1.5" opacity="0.8" r="4" pfill="%s"`, color, color)
}

// layerStyles holds each palette colour's layer style, parsed once.
var layerStyles = func() (st [len(layerPalette)]*svgStyle) {
	for i := range st {
		st[i] = parseStyle(paletteStyle(i))
	}
	return st
}()

// svgStyle is a style string split once into what drawing needs: the
// style carries "r" for point radius and "pfill" for the fill to use when
// a point is drawn from a stroke-styled layer.
type svgStyle struct {
	radius    string // circle r
	pointFill string // circle fill
	attrs     string // the remaining attributes, for lines and polygons
}

func parseStyle(style string) *svgStyle {
	st := &svgStyle{
		radius: extractAttr(style, "r", "3"),
		attrs:  removeAttr(removeAttr(style, "r"), "pfill"),
	}
	st.pointFill = extractAttr(style, "pfill", "")
	if st.pointFill == "" {
		st.pointFill = extractAttr(st.attrs, "fill", "#333")
	}
	return st
}

// Spatial-level members are dots, selected ones emphasized.
var (
	memberStyle   = parseStyle(`fill="#9aa5b1" stroke="none" r="3"`)
	selectedStyle = parseStyle(`fill="#d03838" stroke="#7a1414" stroke-width="1" r="5"`)
)

// svgPen appends projected geometry to an SVG document.
type svgPen struct {
	b                        []byte
	minX, minY, spanX, spanY float64
	w, h                     float64
}

// px projects a lon/lat point to image coordinates (y flipped).
func (p *svgPen) px(pt geom.Point) (float64, float64) {
	return (pt.X - p.minX) / p.spanX * p.w, p.h - (pt.Y-p.minY)/p.spanY*p.h
}

func (p *svgPen) num0(x float64) { p.b = appendFixed(p.b, x, 0) }
func (p *svgPen) num1(x float64) { p.b = appendFixed(p.b, x, 1) }

// xy appends a projected point as "x<sep>y".
func (p *svgPen) xy(pt geom.Point, sep byte) {
	x, y := p.px(pt)
	p.num1(x)
	p.b = append(p.b, sep)
	p.num1(y)
}

// geom draws one geometry: points as circles, lines as polylines,
// polygons as even-odd paths, collections member by member.
func (p *svgPen) geom(g geom.Geometry, st *svgStyle) {
	switch gg := g.(type) {
	case geom.Point:
		p.b = append(p.b, `<circle cx="`...)
		x, y := p.px(gg)
		p.num1(x)
		p.b = append(p.b, `" cy="`...)
		p.num1(y)
		p.b = append(p.b, `" r="`...)
		p.b = append(p.b, st.radius...)
		p.b = append(p.b, `" fill="`...)
		p.b = append(p.b, st.pointFill...)
		p.b = append(p.b, "\"/>\n"...)
	case geom.Line:
		p.polyline(gg.Pts, st)
	case geom.Polygon:
		p.b = append(p.b, `<path d="`...)
		p.ring(gg.Shell)
		for _, hole := range gg.Holes {
			p.ring(hole)
		}
		p.b = append(p.b, `" fill-rule="evenodd" `...)
		p.b = append(p.b, st.attrs...)
		p.b = append(p.b, "/>\n"...)
	case geom.Collection:
		for _, m := range gg.Geoms {
			p.geom(m, st)
		}
	}
}

func (p *svgPen) polyline(pts []geom.Point, st *svgStyle) {
	p.b = append(p.b, `<polyline points="`...)
	for i, pt := range pts {
		if i > 0 {
			p.b = append(p.b, ' ')
		}
		p.xy(pt, ',')
	}
	p.b = append(p.b, `" `...)
	p.b = append(p.b, st.attrs...)
	p.b = append(p.b, "/>\n"...)
}

func (p *svgPen) ring(r geom.Ring) {
	for i, pt := range r {
		if i == 0 {
			p.b = append(p.b, 'M')
		} else {
			p.b = append(p.b, 'L')
		}
		p.xy(pt, ' ')
	}
	p.b = append(p.b, 'Z')
}

// user draws the decision maker's location as a crosshair at pt.
func (p *svgPen) user(pt geom.Point) {
	x, y := p.px(pt)
	coords := [...]float64{x - 10, y, x + 10, y, x, y - 10, x, y + 10, x, y}
	before := [...]string{`<g stroke="#1a7a1a" stroke-width="2"><line x1="`, `" y1="`, `" x2="`, `" y2="`,
		`"/><line x1="`, `" y1="`, `" x2="`, `" y2="`, `"/><circle cx="`, `" cy="`}
	for i, v := range coords {
		p.b = append(p.b, before[i]...)
		p.num1(v)
	}
	p.b = append(p.b, `" r="7" fill="none"/></g>`+"\n"...)
}

// attrIndex finds attr="… at a word boundary (start of string or after a
// space), returning the index of the value's first character, or -1.
func attrIndex(style, attr string) int {
	marker := attr + `="`
	from := 0
	for {
		i := strings.Index(style[from:], marker)
		if i < 0 {
			return -1
		}
		i += from
		if i == 0 || style[i-1] == ' ' {
			return i + len(marker)
		}
		from = i + 1
	}
}

// extractAttr pulls attr="value" out of a style string.
func extractAttr(style, attr, fallback string) string {
	i := attrIndex(style, attr)
	if i < 0 {
		return fallback
	}
	j := strings.IndexByte(style[i:], '"')
	if j < 0 {
		return fallback
	}
	return style[i : i+j]
}

// removeAttr strips attr="value" from a style string.
func removeAttr(style, attr string) string {
	i := attrIndex(style, attr)
	if i < 0 {
		return style
	}
	j := strings.IndexByte(style[i:], '"')
	if j < 0 {
		return style
	}
	start := i - len(attr) - 2
	return strings.TrimSpace(style[:start] + style[i+j+1:])
}

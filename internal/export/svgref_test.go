package export

import (
	"fmt"
	"strings"

	"sdwp/internal/core"
	"sdwp/internal/geom"
)

// refSessionSVG is the round-trip renderer SessionSVG replaced: it builds
// the GeoJSON FeatureCollection (refCollection) and decodes every feature
// back before drawing. SessionSVG must produce exactly its bytes.
func refSessionSVG(s *core.Session, opts SVGOptions) (string, error) {
	if opts.Width <= 0 {
		opts.Width = 800
	}
	fc, err := refCollection(s, Options{SimplifyTolerance: opts.SimplifyTolerance})
	if err != nil {
		return "", err
	}
	// Decode feature geometries once; compute the data bounds.
	type item struct {
		g     geom.Geometry
		props map[string]any
	}
	items := make([]item, 0, len(fc.Features))
	bounds := geom.EmptyRect()
	for _, f := range fc.Features {
		g, err := refUnmarshalGeometry(f.Geometry)
		if err != nil {
			return "", err
		}
		items = append(items, item{g: g, props: f.Properties})
		bounds = bounds.ExtendRect(g.Bounds())
	}
	if bounds.IsEmpty() {
		return refEmptySVG(opts.Width), nil
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
	// Project lon/lat to image coordinates (y flipped).
	px := func(p geom.Point) (float64, float64) {
		return (p.X - bounds.Min.X) / spanX * w, h - (p.Y-bounds.Min.Y)/spanY*h
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n", w, h, w, h)
	b.WriteString(`<rect width="100%" height="100%" fill="#fbfbf8"/>` + "\n")

	var layers, members, user []string
	for _, it := range items {
		kind, _ := it.props["kind"].(string)
		switch kind {
		case "layer":
			layerName, _ := it.props["layer"].(string)
			layers = append(layers, refRenderGeom(it.g, px, layerStyle(layerName)))
		case "member":
			sel, _ := it.props["selected"].(bool)
			style := `fill="#9aa5b1" stroke="none" r="3"`
			if sel {
				style = `fill="#d03838" stroke="#7a1414" stroke-width="1" r="5"`
			}
			members = append(members, refRenderGeom(it.g, px, style))
		case "userLocation":
			user = append(user, refRenderUser(it.g, px))
		}
	}
	// Paint order: layers under members under the user marker.
	for _, s := range layers {
		b.WriteString(s)
	}
	for _, s := range members {
		b.WriteString(s)
	}
	for _, s := range user {
		b.WriteString(s)
	}
	b.WriteString("</svg>\n")
	return b.String(), nil
}

func refEmptySVG(width int) string {
	return fmt.Sprintf(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d"><rect width="100%%" height="100%%" fill="#fbfbf8"/></svg>`+"\n", width, width/2)
}

// refRenderGeom renders one geometry. The style string carries "r" for point
// radius and "pfill" for the fill to use when a point is drawn from a
// stroke-styled layer.
func refRenderGeom(g geom.Geometry, px func(geom.Point) (float64, float64), style string) string {
	radius := extractAttr(style, "r", "3")
	pointFill := extractAttr(style, "pfill", "")
	cleanStyle := removeAttr(removeAttr(style, "r"), "pfill")
	var b strings.Builder
	var walk func(geom.Geometry)
	walk = func(g geom.Geometry) {
		switch gg := g.(type) {
		case geom.Point:
			x, y := px(gg)
			fill := extractAttr(cleanStyle, "fill", "#333")
			if pointFill != "" {
				fill = pointFill
			}
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="%s" fill="%s"/>`+"\n", x, y, radius, fill)
		case geom.Line:
			var pts []string
			for _, p := range gg.Pts {
				x, y := px(p)
				pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, y))
			}
			fmt.Fprintf(&b, `<polyline points="%s" %s/>`+"\n", strings.Join(pts, " "), cleanStyle)
		case geom.Polygon:
			var d strings.Builder
			writeRingPath := func(r geom.Ring) {
				for i, p := range r {
					x, y := px(p)
					if i == 0 {
						fmt.Fprintf(&d, "M%.1f %.1f", x, y)
					} else {
						fmt.Fprintf(&d, "L%.1f %.1f", x, y)
					}
				}
				d.WriteString("Z")
			}
			writeRingPath(gg.Shell)
			for _, hole := range gg.Holes {
				writeRingPath(hole)
			}
			fmt.Fprintf(&b, `<path d="%s" fill-rule="evenodd" %s/>`+"\n", d.String(), cleanStyle)
		case geom.Collection:
			for _, m := range gg.Geoms {
				walk(m)
			}
		}
	}
	walk(g)
	return b.String()
}

// refRenderUser draws the decision maker's location as a crosshair.
func refRenderUser(g geom.Geometry, px func(geom.Point) (float64, float64)) string {
	p, ok := g.(geom.Point)
	if !ok {
		c := g.Bounds().Center()
		p = c
	}
	x, y := px(p)
	return fmt.Sprintf(
		`<g stroke="#1a7a1a" stroke-width="2"><line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f"/><line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f"/><circle cx="%.1f" cy="%.1f" r="7" fill="none"/></g>`+"\n",
		x-10, y, x+10, y, x, y-10, x, y+10, x, y)
}

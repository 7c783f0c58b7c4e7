// Package export renders personalized sessions as maps for front ends —
// the "visualization aspects of the SDW" the paper lists as future work —
// as GeoJSON (RFC 7946, AppendSession) and as SVG (AppendSessionSVG). A
// session exports exactly what its personalized GeoMD schema contains: the
// thematic layers its AddLayer rules admitted and the spatial levels its
// BecomeSpatial rules promoted, with each member's selection state from
// the personalized view.
//
// Both renderers append into one caller-owned buffer from a walk over the
// session's features. GeoJSON is written by hand-rolled appenders whose
// bytes are exactly encoding/json's; a layer object's whole feature and a
// member's feature up to its "name" are cached per table (cube.TextSlab),
// so an export copies them and writes only each member's "selected" flag.
package export

import (
	"bytes"
	"errors"
	"fmt"

	"sdwp/internal/core"
	"sdwp/internal/cube"
	"sdwp/internal/geom"
	"sdwp/internal/jsonenc"
)

// Options configures a session export.
type Options struct {
	// SimplifyTolerance, when positive, Douglas-Peucker-simplifies line and
	// polygon geometries before encoding (planar degrees).
	SimplifyTolerance float64
	// SelectedOnly limits spatial-level members to those selected in the
	// personalized view.
	SelectedOnly bool
}

// Session renders a personalized session as a GeoJSON FeatureCollection
// (see AppendSession).
func Session(s *core.Session, opts Options) ([]byte, error) {
	return AppendSession(nil, s, opts)
}

// AppendSession appends the session's personalized map to dst as a GeoJSON
// FeatureCollection and a newline: one feature per object of every layer
// in the session's schema, one per member of every spatial level (with its
// selection state), plus the user's location context when known. The bytes
// are those json.Encoder writes for the equivalent FeatureCollection value
// (properties in sorted key order). A feature with a non-finite coordinate
// fails the export, as it fails AppendSessionSVG.
func AppendSession(dst []byte, s *core.Session, opts Options) ([]byte, error) {
	e := encoder{tol: opts.SimplifyTolerance}
	dst = append(dst, `{"type":"FeatureCollection","features":[`...)
	start := len(dst)
	err := walk(s, s.View(), opts.SelectedOnly, func(f *feature) error {
		if len(dst) > start {
			dst = append(dst, ',')
		}
		var err error
		dst, err = e.appendFeature(dst, f)
		return err
	})
	if err != nil {
		return nil, err
	}
	return append(dst, "]}\n"...), nil
}

// CountFeatures returns the number of features in an export's bytes: each
// opens with the same key sequence, which no string value can contain (a
// quote inside one is escaped).
func CountFeatures(geojson []byte) int {
	return bytes.Count(geojson, []byte(`{"type":"Feature",`))
}

// encoder writes one export's features.
type encoder struct {
	tol float64
	pts []geom.Point // scratch for a simplified line's vertices
}

func (e *encoder) appendFeature(dst []byte, f *feature) ([]byte, error) {
	// Unsimplified layer objects and members copy their table's text; an
	// object without text (a non-finite or unencodable geometry) renders
	// below, which reports why.
	if e.tol == 0 {
		switch f.kind {
		case kindLayer:
			if text := layerText(f.objects, f.layer).Text(f.obj); len(text) > 0 {
				return append(dst, text...), nil
			}
		case kindMember:
			if text := memberText(f.members, f.dim, f.level).Text(f.obj); len(text) > 0 {
				return appendSelected(append(dst, text...), f.selected), nil
			}
		}
	}
	var err error
	if ln, ok := f.g.(geom.Line); ok && e.tol > 0 {
		// Lines simplify into the scratch slice: no allocation per line.
		e.pts = geom.AppendSimplified(e.pts[:0], ln.Pts, e.tol)
		dst, err = openLineFeature(dst, e.pts)
	} else {
		dst, err = openFeature(dst, geom.Simplify(f.g, e.tol))
	}
	if errors.Is(err, errNonFinite) {
		return nil, nonFinite(f)
	} else if err != nil {
		return nil, err
	}
	switch f.kind {
	case kindLayer:
		return appendLayerProps(dst, f.layer, f.name), nil
	case kindMember:
		return appendSelected(appendMemberProps(dst, f.dim, f.level, f.name), f.selected), nil
	}
	dst = append(dst, `,"properties":{"kind":"userLocation","user":`...)
	return append(jsonenc.AppendString(dst, f.name), "}}"...), nil
}

// layerText is the layer's per-object feature text.
func layerText(ld *cube.LayerData, layer string) *cube.TextSlab {
	return ld.FeatureText(func(dst []byte, i int32) []byte {
		out, err := openFeature(dst, ld.Geometry(i))
		if err != nil {
			return dst
		}
		return appendLayerProps(out, layer, ld.Name(i))
	})
}

// memberText is the level's per-member feature text up to and including
// the "name" value.
func memberText(ld *cube.LevelData, dim, level string) *cube.TextSlab {
	return ld.FeatureText(func(dst []byte, i int32) []byte {
		out, err := openFeature(dst, ld.Geometry(i))
		if err != nil {
			return dst
		}
		return appendMemberProps(out, dim, level, ld.Name(i))
	})
}

// errNonFinite is openFeature's refusal of a coordinate GeoJSON cannot
// carry; nonFinite names the feature.
var errNonFinite = errors.New("export: non-finite coordinate")

// nonFinite is the error of a feature at a non-finite coordinate.
func nonFinite(f *feature) error {
	return fmt.Errorf("export: %s feature %q has a non-finite coordinate", f.kind, f.name)
}

// openFeature appends a feature's opening and its geometry.
func openFeature(dst []byte, g geom.Geometry) ([]byte, error) {
	if !finite(g) {
		return nil, errNonFinite
	}
	return appendGeometry(append(dst, `{"type":"Feature","geometry":`...), g)
}

// openLineFeature is openFeature for a LineString through pts.
func openLineFeature(dst []byte, pts []geom.Point) ([]byte, error) {
	if !finitePts(pts) {
		return nil, errNonFinite
	}
	return appendLineString(append(dst, `{"type":"Feature","geometry":`...), pts), nil
}

// appendLayerProps closes a layer object's feature with its properties
// (keys in sorted order, as encoding/json writes a map).
func appendLayerProps(dst []byte, layer, name string) []byte {
	dst = append(dst, `,"properties":{"kind":"layer","layer":`...)
	dst = jsonenc.AppendString(dst, layer)
	dst = append(dst, `,"name":`...)
	return append(jsonenc.AppendString(dst, name), "}}"...)
}

// appendMemberProps appends a member's properties up to and including
// its "name" value; appendSelected closes the feature.
func appendMemberProps(dst []byte, dim, level, name string) []byte {
	dst = append(dst, `,"properties":{"dimension":`...)
	dst = jsonenc.AppendString(dst, dim)
	dst = append(dst, `,"kind":"member","level":`...)
	dst = jsonenc.AppendString(dst, level)
	dst = append(dst, `,"name":`...)
	return jsonenc.AppendString(dst, name)
}

func appendSelected(dst []byte, selected bool) []byte {
	if selected {
		return append(dst, `,"selected":true}}`...)
	}
	return append(dst, `,"selected":false}}`...)
}

// appendGeometry appends g as a GeoJSON geometry object. Polygon rings are
// closed by repeating their first vertex; an empty collection has no
// "geometries" member. Coordinates must be finite.
func appendGeometry(dst []byte, g geom.Geometry) ([]byte, error) {
	switch gg := g.(type) {
	case geom.Point:
		dst = append(dst, `{"type":"Point","coordinates":`...)
		return append(appendPoint(dst, gg), '}'), nil
	case geom.Line:
		return appendLineString(dst, gg.Pts), nil
	case geom.Polygon:
		dst = append(dst, `{"type":"Polygon","coordinates":[`...)
		dst = appendPoints(dst, gg.Shell, true)
		for _, h := range gg.Holes {
			dst = appendPoints(append(dst, ','), h, true)
		}
		return append(dst, "]}"...), nil
	case geom.Collection:
		dst = append(dst, `{"type":"GeometryCollection"`...)
		if len(gg.Geoms) > 0 {
			dst = append(dst, `,"geometries":[`...)
			for i, m := range gg.Geoms {
				if i > 0 {
					dst = append(dst, ',')
				}
				var err error
				if dst, err = appendGeometry(dst, m); err != nil {
					return nil, err
				}
			}
			dst = append(dst, ']')
		}
		return append(dst, '}'), nil
	case nil:
		return nil, fmt.Errorf("export: nil geometry")
	}
	return nil, fmt.Errorf("export: unsupported geometry %T", g)
}

func appendLineString(dst []byte, pts []geom.Point) []byte {
	dst = append(dst, `{"type":"LineString","coordinates":`...)
	return append(appendPoints(dst, pts, false), '}')
}

// appendPoints appends a coordinate array; closed repeats the first vertex
// at the end (a GeoJSON ring).
func appendPoints(dst []byte, pts []geom.Point, closed bool) []byte {
	dst = append(dst, '[')
	for i, p := range pts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendPoint(dst, p)
	}
	if closed && len(pts) > 0 {
		dst = appendPoint(append(dst, ','), pts[0])
	}
	return append(dst, ']')
}

func appendPoint(dst []byte, p geom.Point) []byte {
	dst = jsonenc.AppendFloat(append(dst, '['), p.X)
	dst = jsonenc.AppendFloat(append(dst, ','), p.Y)
	return append(dst, ']')
}

// featureKind names what a map feature depicts (its "kind" property).
type featureKind string

const (
	kindLayer    featureKind = "layer"
	kindMember   featureKind = "member"
	kindLocation featureKind = "userLocation"
)

// feature is one object of a session's personalized map as walk yields
// it: the geometry to draw and what it depicts.
type feature struct {
	g    geom.Geometry
	kind featureKind
	// name is the layer object's or member's descriptor, or the user ID
	// of a location feature.
	name       string
	layer      string // kindLayer
	dim, level string // kindMember
	selected   bool   // kindMember
	// obj indexes the feature in its table — objects for kindLayer,
	// members for kindMember — whose cached text the encoder copies.
	obj     int32
	objects *cube.LayerData
	members *cube.LevelData
}

// walk visits the session's map features in paint order — the thematic
// layers its schema rules admitted, the members of the spatial levels its
// schema rules promoted, the decision maker's location context — so
// GeoJSON encodes from it and SVG draws from it without a round trip
// through the wire form. The feature passed to visit is reused. A member
// is selected when view, a view of the session, selects it; a view never
// changes, so a walk racing a selection draws every level from one
// selection state.
func walk(s *core.Session, view *cube.View, selectedOnly bool, visit func(*feature) error) error {
	schema := s.Schema()
	c := s.Engine().Cube()
	var f feature

	// Thematic layers the user's schema rules admitted.
	for _, layer := range schema.Layers() {
		ld := c.Layer(layer.Name)
		if ld == nil {
			continue
		}
		f = feature{kind: kindLayer, layer: layer.Name, objects: ld}
		for i := int32(0); int(i) < ld.Len(); i++ {
			f.g, f.name, f.obj = ld.Geometry(i), ld.Name(i), i
			if err := visit(&f); err != nil {
				return err
			}
		}
	}

	// Spatial levels the user's schema rules promoted.
	for _, qualified := range schema.SpatialLevels() {
		dim, level := splitQualified(qualified)
		dd := c.Dimension(dim)
		if dd == nil {
			continue
		}
		ld := dd.Level(level)
		if ld == nil {
			continue
		}
		sel := view.LevelMask(dim, level)
		f = feature{kind: kindMember, dim: dim, level: level, members: ld}
		for i := int32(0); int(i) < ld.Len(); i++ {
			g := ld.Geometry(i)
			if g == nil {
				continue
			}
			selected := sel != nil && sel.Test(int(i))
			if selectedOnly && !selected {
				continue
			}
			f.g, f.name, f.selected, f.obj = g, ld.Name(i), selected, i
			if err := visit(&f); err != nil {
				return err
			}
		}
	}

	// The decision maker's location context.
	if loc := s.Location(); loc != nil {
		f = feature{g: loc, kind: kindLocation, name: s.UserID}
		return visit(&f)
	}
	return nil
}

func splitQualified(q string) (dim, level string) {
	for i := 0; i < len(q); i++ {
		if q[i] == '.' {
			return q[:i], q[i+1:]
		}
	}
	return q, ""
}

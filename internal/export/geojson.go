// Package export renders personalized sessions as GeoJSON (RFC 7946) for
// map front ends — the "visualization aspects of the SDW" the paper lists
// as future work. A session exports exactly what its personalized GeoMD
// schema contains: the thematic layers its AddLayer rules admitted and the
// spatial levels its BecomeSpatial rules promoted, with each member's
// selection state from the personalized view.
package export

import (
	"encoding/json"
	"fmt"

	"sdwp/internal/core"
	"sdwp/internal/geom"
)

// Feature is a GeoJSON feature.
type Feature struct {
	Type       string          `json:"type"`
	Geometry   json.RawMessage `json:"geometry"`
	Properties map[string]any  `json:"properties,omitempty"`
}

// FeatureCollection is a GeoJSON feature collection.
type FeatureCollection struct {
	Type     string    `json:"type"`
	Features []Feature `json:"features"`
}

// geoJSONGeom is the wire form of a GeoJSON geometry.
type geoJSONGeom struct {
	Type        string          `json:"type"`
	Coordinates json.RawMessage `json:"coordinates,omitempty"`
	Geometries  []geoJSONGeom   `json:"geometries,omitempty"`
}

// MarshalGeometry encodes a geometry as a GeoJSON geometry object.
func MarshalGeometry(g geom.Geometry) (json.RawMessage, error) {
	gg, err := toGeoJSON(g)
	if err != nil {
		return nil, err
	}
	return json.Marshal(gg)
}

func toGeoJSON(g geom.Geometry) (geoJSONGeom, error) {
	marshal := func(v any) json.RawMessage {
		raw, _ := json.Marshal(v)
		return raw
	}
	switch gg := g.(type) {
	case geom.Point:
		return geoJSONGeom{Type: "Point", Coordinates: marshal([2]float64{gg.X, gg.Y})}, nil
	case geom.Line:
		coords := make([][2]float64, len(gg.Pts))
		for i, p := range gg.Pts {
			coords[i] = [2]float64{p.X, p.Y}
		}
		return geoJSONGeom{Type: "LineString", Coordinates: marshal(coords)}, nil
	case geom.Polygon:
		rings := make([][][2]float64, 0, 1+len(gg.Holes))
		rings = append(rings, closedRing(gg.Shell))
		for _, h := range gg.Holes {
			rings = append(rings, closedRing(h))
		}
		return geoJSONGeom{Type: "Polygon", Coordinates: marshal(rings)}, nil
	case geom.Collection:
		out := geoJSONGeom{Type: "GeometryCollection", Geometries: []geoJSONGeom{}}
		for _, m := range gg.Geoms {
			sub, err := toGeoJSON(m)
			if err != nil {
				return geoJSONGeom{}, err
			}
			out.Geometries = append(out.Geometries, sub)
		}
		return out, nil
	case nil:
		return geoJSONGeom{}, fmt.Errorf("export: nil geometry")
	}
	return geoJSONGeom{}, fmt.Errorf("export: unsupported geometry %T", g)
}

// closedRing emits the GeoJSON convention of repeating the first vertex.
func closedRing(r geom.Ring) [][2]float64 {
	out := make([][2]float64, 0, len(r)+1)
	for _, p := range r {
		out = append(out, [2]float64{p.X, p.Y})
	}
	if len(r) > 0 {
		out = append(out, [2]float64{r[0].X, r[0].Y})
	}
	return out
}

// UnmarshalGeometry decodes a GeoJSON geometry object.
func UnmarshalGeometry(raw json.RawMessage) (geom.Geometry, error) {
	var gg geoJSONGeom
	if err := json.Unmarshal(raw, &gg); err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
	return fromGeoJSON(gg)
}

func fromGeoJSON(gg geoJSONGeom) (geom.Geometry, error) {
	switch gg.Type {
	case "Point":
		var c [2]float64
		if err := json.Unmarshal(gg.Coordinates, &c); err != nil {
			return nil, fmt.Errorf("export: point coordinates: %w", err)
		}
		return geom.Pt(c[0], c[1]), nil
	case "LineString":
		var cs [][2]float64
		if err := json.Unmarshal(gg.Coordinates, &cs); err != nil {
			return nil, fmt.Errorf("export: linestring coordinates: %w", err)
		}
		if len(cs) < 2 {
			return nil, fmt.Errorf("export: linestring needs 2+ points")
		}
		pts := make([]geom.Point, len(cs))
		for i, c := range cs {
			pts[i] = geom.Pt(c[0], c[1])
		}
		return geom.Line{Pts: pts}, nil
	case "Polygon":
		var rings [][][2]float64
		if err := json.Unmarshal(gg.Coordinates, &rings); err != nil {
			return nil, fmt.Errorf("export: polygon coordinates: %w", err)
		}
		if len(rings) == 0 {
			return nil, fmt.Errorf("export: polygon needs a shell")
		}
		conv := func(ring [][2]float64) (geom.Ring, error) {
			pts := make(geom.Ring, 0, len(ring))
			for _, c := range ring {
				pts = append(pts, geom.Pt(c[0], c[1]))
			}
			if len(pts) >= 2 && pts[0].Eq(pts[len(pts)-1]) {
				pts = pts[:len(pts)-1]
			}
			if len(pts) < 3 {
				return nil, fmt.Errorf("export: ring needs 3+ distinct points")
			}
			return pts, nil
		}
		shell, err := conv(rings[0])
		if err != nil {
			return nil, err
		}
		poly := geom.Polygon{Shell: shell}
		for _, h := range rings[1:] {
			hole, err := conv(h)
			if err != nil {
				return nil, err
			}
			poly.Holes = append(poly.Holes, hole)
		}
		return poly, nil
	case "GeometryCollection":
		var gs []geom.Geometry
		for _, sub := range gg.Geometries {
			m, err := fromGeoJSON(sub)
			if err != nil {
				return nil, err
			}
			gs = append(gs, m)
		}
		return geom.Collection{Geoms: gs}, nil
	}
	return nil, fmt.Errorf("export: unsupported GeoJSON type %q", gg.Type)
}

// Options configures a session export.
type Options struct {
	// SimplifyTolerance, when positive, Douglas-Peucker-simplifies line and
	// polygon geometries before encoding (planar degrees).
	SimplifyTolerance float64
	// SelectedOnly limits spatial-level members to those selected in the
	// personalized view.
	SelectedOnly bool
}

// Session renders a personalized session as a FeatureCollection: one
// feature per object of every layer in the session's schema, one per member
// of every spatial level (with its selection state), plus the user's
// location context when known.
func Session(s *core.Session, opts Options) (*FeatureCollection, error) {
	fc := &FeatureCollection{Type: "FeatureCollection", Features: []Feature{}}
	err := walk(s, opts, func(f *feature) error {
		raw, err := MarshalGeometry(f.g)
		if err != nil {
			return err
		}
		fc.Features = append(fc.Features, Feature{Type: "Feature", Geometry: raw, Properties: f.properties()})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fc, nil
}

// featureKind names what a map feature depicts (its "kind" property).
type featureKind string

const (
	kindLayer    featureKind = "layer"
	kindMember   featureKind = "member"
	kindLocation featureKind = "userLocation"
)

// feature is one object of a session's personalized map as walk yields
// it: the geometry to draw (simplified when asked) and what it depicts.
type feature struct {
	g    geom.Geometry
	kind featureKind
	// name is the layer object's or member's descriptor, or the user ID
	// of a location feature.
	name       string
	layer      string // kindLayer
	dim, level string // kindMember
	selected   bool   // kindMember
}

// properties is the feature's GeoJSON properties object.
func (f *feature) properties() map[string]any {
	switch f.kind {
	case kindLayer:
		return map[string]any{"kind": string(f.kind), "layer": f.layer, "name": f.name}
	case kindMember:
		return map[string]any{"kind": string(f.kind), "dimension": f.dim, "level": f.level,
			"name": f.name, "selected": f.selected}
	}
	return map[string]any{"kind": string(f.kind), "user": f.name}
}

// walk visits the session's map features in paint order — the thematic
// layers its schema rules admitted, the members of the spatial levels its
// schema rules promoted, the decision maker's location context — so
// GeoJSON encodes from it and SVG draws from it without a round trip
// through the wire form. The feature passed to visit is reused.
func walk(s *core.Session, opts Options, visit func(*feature) error) error {
	schema := s.Schema()
	c := s.Engine().Cube()
	var f feature
	emit := func() error {
		if opts.SimplifyTolerance > 0 {
			f.g = geom.Simplify(f.g, opts.SimplifyTolerance)
		}
		return visit(&f)
	}

	// Thematic layers the user's schema rules admitted.
	for _, layer := range schema.Layers() {
		ld := c.Layer(layer.Name)
		if ld == nil {
			continue
		}
		for i := int32(0); int(i) < ld.Len(); i++ {
			f = feature{g: ld.Geometry(i), kind: kindLayer, layer: layer.Name, name: ld.Name(i)}
			if err := emit(); err != nil {
				return err
			}
		}
	}

	// Spatial levels the user's schema rules promoted.
	view := s.View()
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
		restricted := view.LevelMask(dim, level) != nil
		for i := int32(0); int(i) < ld.Len(); i++ {
			g := ld.Geometry(i)
			if g == nil {
				continue
			}
			selected := restricted && view.MemberVisible(dim, level, i)
			if opts.SelectedOnly && !selected {
				continue
			}
			f = feature{g: g, kind: kindMember, dim: dim, level: level, name: ld.Name(i), selected: selected}
			if err := emit(); err != nil {
				return err
			}
		}
	}

	// The decision maker's location context.
	if loc := s.Location(); loc != nil {
		f = feature{g: loc, kind: kindLocation, name: s.UserID}
		return emit()
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

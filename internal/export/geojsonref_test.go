package export

import (
	"bytes"
	"encoding/json"
	"fmt"

	"sdwp/internal/core"
	"sdwp/internal/geom"
)

// This file keeps the GeoJSON encoder AppendSession replaced — a
// FeatureCollection of map-valued properties and json.Marshal'ed
// geometries, encoded by json.Encoder — and the decoder that went with it.
// AppendSession must produce exactly refSession's bytes for finite data.

type refFeature struct {
	Type       string          `json:"type"`
	Geometry   json.RawMessage `json:"geometry"`
	Properties map[string]any  `json:"properties,omitempty"`
}

type refFeatureCollection struct {
	Type     string       `json:"type"`
	Features []refFeature `json:"features"`
}

// refGeom is the wire form of a GeoJSON geometry.
type refGeom struct {
	Type        string          `json:"type"`
	Coordinates json.RawMessage `json:"coordinates,omitempty"`
	Geometries  []refGeom       `json:"geometries,omitempty"`
}

// refSession is the old /api/geojson body: json.Encoder over refCollection.
func refSession(s *core.Session, opts Options) ([]byte, error) {
	fc, err := refCollection(s, opts)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(fc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// refCollection is the FeatureCollection the old export.Session built.
func refCollection(s *core.Session, opts Options) (*refFeatureCollection, error) {
	fc := &refFeatureCollection{Type: "FeatureCollection", Features: []refFeature{}}
	err := walk(s, s.View(), opts.SelectedOnly, func(f *feature) error {
		raw, err := refMarshalGeometry(geom.Simplify(f.g, opts.SimplifyTolerance))
		if err != nil {
			return err
		}
		fc.Features = append(fc.Features, refFeature{Type: "Feature", Geometry: raw, Properties: refProperties(f)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fc, nil
}

func refProperties(f *feature) map[string]any {
	switch f.kind {
	case kindLayer:
		return map[string]any{"kind": string(f.kind), "layer": f.layer, "name": f.name}
	case kindMember:
		return map[string]any{"kind": string(f.kind), "dimension": f.dim, "level": f.level,
			"name": f.name, "selected": f.selected}
	}
	return map[string]any{"kind": string(f.kind), "user": f.name}
}

// refMarshalGeometry encodes a geometry as a GeoJSON geometry object. A
// non-finite coordinate silently loses the geometry's coordinates.
func refMarshalGeometry(g geom.Geometry) (json.RawMessage, error) {
	gg, err := refToGeoJSON(g)
	if err != nil {
		return nil, err
	}
	return json.Marshal(gg)
}

func refToGeoJSON(g geom.Geometry) (refGeom, error) {
	marshal := func(v any) json.RawMessage {
		raw, _ := json.Marshal(v)
		return raw
	}
	switch gg := g.(type) {
	case geom.Point:
		return refGeom{Type: "Point", Coordinates: marshal([2]float64{gg.X, gg.Y})}, nil
	case geom.Line:
		coords := make([][2]float64, len(gg.Pts))
		for i, p := range gg.Pts {
			coords[i] = [2]float64{p.X, p.Y}
		}
		return refGeom{Type: "LineString", Coordinates: marshal(coords)}, nil
	case geom.Polygon:
		rings := make([][][2]float64, 0, 1+len(gg.Holes))
		rings = append(rings, refClosedRing(gg.Shell))
		for _, h := range gg.Holes {
			rings = append(rings, refClosedRing(h))
		}
		return refGeom{Type: "Polygon", Coordinates: marshal(rings)}, nil
	case geom.Collection:
		out := refGeom{Type: "GeometryCollection", Geometries: []refGeom{}}
		for _, m := range gg.Geoms {
			sub, err := refToGeoJSON(m)
			if err != nil {
				return refGeom{}, err
			}
			out.Geometries = append(out.Geometries, sub)
		}
		return out, nil
	case nil:
		return refGeom{}, fmt.Errorf("export: nil geometry")
	}
	return refGeom{}, fmt.Errorf("export: unsupported geometry %T", g)
}

// refClosedRing emits the GeoJSON convention of repeating the first vertex.
func refClosedRing(r geom.Ring) [][2]float64 {
	out := make([][2]float64, 0, len(r)+1)
	for _, p := range r {
		out = append(out, [2]float64{p.X, p.Y})
	}
	if len(r) > 0 {
		out = append(out, [2]float64{r[0].X, r[0].Y})
	}
	return out
}

// refUnmarshalGeometry decodes a GeoJSON geometry object.
func refUnmarshalGeometry(raw json.RawMessage) (geom.Geometry, error) {
	var gg refGeom
	if err := json.Unmarshal(raw, &gg); err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
	return refFromGeoJSON(gg)
}

func refFromGeoJSON(gg refGeom) (geom.Geometry, error) {
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
			m, err := refFromGeoJSON(sub)
			if err != nil {
				return nil, err
			}
			gs = append(gs, m)
		}
		return geom.Collection{Geoms: gs}, nil
	}
	return nil, fmt.Errorf("export: unsupported GeoJSON type %q", gg.Type)
}

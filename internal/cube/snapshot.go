package cube

import (
	"encoding/json"
	"fmt"
	"io"

	"sdwp/internal/geom"
	"sdwp/internal/geomd"
)

// This file implements warehouse persistence: a Cube serializes to a JSON
// snapshot (geometries as WKT) and rebuilds through the same validated
// loading paths as hand-written code, so a corrupted snapshot is rejected
// rather than silently mis-loaded.

// LevelSnapshot is one level's member table.
type LevelSnapshot struct {
	Level   string           `json:"level"`
	Names   []string         `json:"names"`
	Parents []int32          `json:"parents"`
	Attrs   map[string][]any `json:"attrs,omitempty"`
	Geoms   []string         `json:"geoms,omitempty"` // WKT; "" for absent
}

// FactSnapshot is one fact table.
type FactSnapshot struct {
	Keys     map[string][]int32   `json:"keys"`
	Measures map[string][]float64 `json:"measures"`
	N        int                  `json:"n"`
}

// LayerSnapshot is one catalog layer.
type LayerSnapshot struct {
	Type  string   `json:"type"`
	Names []string `json:"names"`
	Geoms []string `json:"geoms"` // WKT
}

// Snapshot is the serializable form of a whole warehouse.
type Snapshot struct {
	Schema     *geomd.Schema              `json:"schema"`
	Dimensions map[string][]LevelSnapshot `json:"dimensions"`
	Facts      map[string]FactSnapshot    `json:"facts"`
	Layers     map[string]LayerSnapshot   `json:"layers,omitempty"`
}

// Snapshot captures the cube's current contents.
func (c *Cube) Snapshot() *Snapshot {
	s := &Snapshot{
		Schema:     c.schema,
		Dimensions: map[string][]LevelSnapshot{},
		Facts:      map[string]FactSnapshot{},
		Layers:     map[string]LayerSnapshot{},
	}
	for name, dd := range c.dims {
		var levels []LevelSnapshot
		for i := 0; i < dd.NumLevels(); i++ {
			ld := dd.levels[i]
			ls := LevelSnapshot{
				Level:   dd.LevelName(i),
				Names:   append([]string(nil), ld.names...),
				Parents: append([]int32(nil), ld.parents...),
			}
			if len(ld.attrs) > 0 {
				ls.Attrs = map[string][]any{}
				for k, col := range ld.attrs {
					ls.Attrs[k] = append([]any(nil), col...)
				}
			}
			if ld.geoms != nil {
				ls.Geoms = make([]string, len(ld.geoms))
				for j := range ld.geoms {
					if g := ld.geoms[j].load(); g != nil {
						ls.Geoms[j] = g.WKT()
					}
				}
			}
			levels = append(levels, ls)
		}
		s.Dimensions[name] = levels
	}
	for name, fd := range c.facts {
		fs := FactSnapshot{Keys: map[string][]int32{}, Measures: map[string][]float64{}, N: fd.n}
		for k, col := range fd.dimKeys {
			fs.Keys[k] = append([]int32(nil), col...)
		}
		for k, col := range fd.measures {
			fs.Measures[k] = append([]float64(nil), col...)
		}
		s.Facts[name] = fs
	}
	for name, ld := range c.layers {
		ls := LayerSnapshot{Type: ld.layer.Geom.String()}
		ls.Names = append(ls.Names, ld.names...)
		for _, g := range ld.geoms {
			ls.Geoms = append(ls.Geoms, g.WKT())
		}
		s.Layers[name] = ls
	}
	return s
}

// FromSnapshot rebuilds a cube, re-validating every member, fact and layer
// object through the normal loading paths.
func FromSnapshot(s *Snapshot) (*Cube, error) {
	if s.Schema == nil || s.Schema.MD == nil {
		return nil, fmt.Errorf("cube: snapshot has no schema")
	}
	if err := s.Schema.MD.Validate(); err != nil {
		return nil, fmt.Errorf("cube: snapshot schema invalid: %w", err)
	}
	c := New(s.Schema)

	for _, d := range s.Schema.MD.Dimensions {
		levels := s.Dimensions[d.Name]
		if len(levels) != len(d.Levels) {
			return nil, fmt.Errorf("cube: dimension %q has %d level tables, schema wants %d",
				d.Name, len(levels), len(d.Levels))
		}
		// Load coarse→fine so parent references resolve.
		for i := len(levels) - 1; i >= 0; i-- {
			ls := levels[i]
			if ls.Level != d.Levels[i].Name {
				return nil, fmt.Errorf("cube: dimension %q level %d is %q, schema wants %q",
					d.Name, i, ls.Level, d.Levels[i].Name)
			}
			if len(ls.Parents) != len(ls.Names) {
				return nil, fmt.Errorf("cube: level %s.%s has %d parents for %d members",
					d.Name, ls.Level, len(ls.Parents), len(ls.Names))
			}
			for j, name := range ls.Names {
				if _, err := c.AddMember(d.Name, ls.Level, name, ls.Parents[j]); err != nil {
					return nil, err
				}
			}
			for attr, col := range ls.Attrs {
				if len(col) != len(ls.Names) {
					return nil, fmt.Errorf("cube: level %s.%s attr %q has %d values for %d members",
						d.Name, ls.Level, attr, len(col), len(ls.Names))
				}
				for j, v := range col {
					if v == nil {
						continue
					}
					if err := c.SetMemberAttr(d.Name, ls.Level, int32(j), attr, v); err != nil {
						return nil, err
					}
				}
			}
			if ls.Geoms != nil {
				if len(ls.Geoms) != len(ls.Names) {
					return nil, fmt.Errorf("cube: level %s.%s has %d geometries for %d members",
						d.Name, ls.Level, len(ls.Geoms), len(ls.Names))
				}
				for j, wkt := range ls.Geoms {
					if wkt == "" {
						continue
					}
					g, err := geom.ParseWKT(wkt)
					if err != nil {
						return nil, fmt.Errorf("cube: level %s.%s member %d: %w", d.Name, ls.Level, j, err)
					}
					if err := c.SetMemberGeometry(d.Name, ls.Level, int32(j), g); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	for name, ls := range s.Layers {
		t, err := geom.ParseType(ls.Type)
		if err != nil {
			return nil, fmt.Errorf("cube: layer %q: %w", name, err)
		}
		if _, err := c.RegisterLayer(name, t); err != nil {
			return nil, err
		}
		if len(ls.Geoms) != len(ls.Names) {
			return nil, fmt.Errorf("cube: layer %q has %d geometries for %d names",
				name, len(ls.Geoms), len(ls.Names))
		}
		for j, wkt := range ls.Geoms {
			g, err := geom.ParseWKT(wkt)
			if err != nil {
				return nil, fmt.Errorf("cube: layer %q object %d: %w", name, j, err)
			}
			if _, err := c.AddLayerObject(name, ls.Names[j], g); err != nil {
				return nil, err
			}
		}
	}

	for _, f := range s.Schema.MD.Facts {
		fs, ok := s.Facts[f.Name]
		if !ok {
			continue
		}
		for _, dn := range f.Dimensions {
			if len(fs.Keys[dn]) != fs.N {
				return nil, fmt.Errorf("cube: fact %q has %d keys for dimension %q, want %d",
					f.Name, len(fs.Keys[dn]), dn, fs.N)
			}
		}
		for _, m := range f.Measures {
			if col, ok := fs.Measures[m.Name]; ok && len(col) != fs.N {
				return nil, fmt.Errorf("cube: fact %q measure %q has %d values, want %d",
					f.Name, m.Name, len(col), fs.N)
			}
		}
		keys := map[string]int32{}
		vals := map[string]float64{}
		for i := 0; i < fs.N; i++ {
			for _, dn := range f.Dimensions {
				keys[dn] = fs.Keys[dn][i]
			}
			for _, m := range f.Measures {
				if col, ok := fs.Measures[m.Name]; ok {
					vals[m.Name] = col[i]
				} else {
					vals[m.Name] = 0
				}
			}
			if err := c.AddFact(f.Name, keys, vals); err != nil {
				return nil, fmt.Errorf("cube: fact %q row %d: %w", f.Name, i, err)
			}
		}
	}
	return c, nil
}

// WriteSnapshot streams the cube as JSON.
func (c *Cube) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(c.Snapshot())
}

// Read rebuilds a cube from a JSON snapshot stream.
func Read(r io.Reader) (*Cube, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("cube: decode snapshot: %w", err)
	}
	return FromSnapshot(&s)
}

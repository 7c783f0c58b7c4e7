package cube

import (
	"fmt"

	"sdwp/internal/geoidx"
	"sdwp/internal/geom"
)

// This file provides the spatial access paths the personalization engine's
// rule evaluator uses: radius queries over level members and layer objects
// (with lazily built R-trees over point data) and generic iteration.

// pointIndex returns an R-tree point index over the level's geometries if
// they are all points, built once per level generation; non-point or
// missing geometries keep the level unindexed and queries fall back to
// scans.
func (ld *LevelData) pointIndex() *geoidx.PointIndex {
	return ld.ptIndex.get(&ld.gen, func() *geoidx.PointIndex {
		if ld.geoms == nil || len(ld.geoms) != ld.Len() {
			return nil
		}
		pts := make([]geom.Point, len(ld.geoms))
		for i := range ld.geoms {
			p, ok := ld.geoms[i].load().(geom.Point)
			if !ok {
				return nil
			}
			pts[i] = p
		}
		return geoidx.NewPointIndex(pts)
	})
}

// MembersWithinKm calls fn for every member of the level whose geometry
// lies within radiusKm kilometres of center (geodetic). Point levels use an
// R-tree; other geometries use exact geodetic distance on a scan.
func (c *Cube) MembersWithinKm(dim, level string, center geom.Geometry, radiusKm float64, fn func(member int32) bool) error {
	ld, err := c.levelData(dim, level)
	if err != nil {
		return err
	}
	if ld.geoms == nil {
		return fmt.Errorf("cube: level %s.%s has no geometry", dim, level)
	}
	cp, centerIsPt := center.(geom.Point)
	if centerIsPt {
		if idx := ld.pointIndex(); idx != nil {
			idx.WithinKm(cp, radiusKm, fn)
			return nil
		}
	}
	for i := int32(0); int(i) < ld.Len(); i++ {
		g := ld.Geometry(i)
		if g == nil {
			continue
		}
		if geom.GeodeticDistance(center, g) <= radiusKm {
			if !fn(i) {
				return nil
			}
		}
	}
	return nil
}

// LayerObjectsWithinKm calls fn for every object of a catalog layer within
// radiusKm kilometres of center.
func (c *Cube) LayerObjectsWithinKm(layer string, center geom.Geometry, radiusKm float64, fn func(obj int32) bool) error {
	ld := c.layers[layer]
	if ld == nil {
		return fmt.Errorf("cube: unknown layer %q", layer)
	}
	cp, centerIsPt := center.(geom.Point)
	if centerIsPt && ld.layer.Geom == geom.TypePoint {
		idx := ld.ptIndex.get(&ld.gen, func() *geoidx.PointIndex {
			pts := make([]geom.Point, len(ld.geoms))
			for i, g := range ld.geoms {
				pts[i] = g.(geom.Point)
			}
			return geoidx.NewPointIndex(pts)
		})
		idx.WithinKm(cp, radiusKm, fn)
		return nil
	}
	for i := int32(0); int(i) < ld.Len(); i++ {
		if geom.GeodeticDistance(center, ld.geoms[i]) <= radiusKm {
			if !fn(i) {
				return nil
			}
		}
	}
	return nil
}

// NearestLayerObjectKm returns the index of the layer object geodetically
// nearest to center and its distance in kilometres; returns -1 for an empty
// layer.
func (c *Cube) NearestLayerObjectKm(layer string, center geom.Geometry) (int32, float64, error) {
	ld := c.layers[layer]
	if ld == nil {
		return -1, 0, fmt.Errorf("cube: unknown layer %q", layer)
	}
	best := int32(-1)
	bestD := 0.0
	for i := int32(0); int(i) < ld.Len(); i++ {
		d := geom.GeodeticDistance(center, ld.geoms[i])
		if best == -1 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD, nil
}

package cube

import (
	"fmt"
	"sort"

	"sdwp/internal/bitset"
	"sdwp/internal/geom"
)

// This file adds spatial aggregation over member geometries — the SOLAP
// counterpart of the paper's related work on aggregation functions for
// spatial measures (da Silva et al., DOLAP 2008): summarize the geometries
// of one level's members per group at a coarser level.

// SpatialSummaryRow is one group of a spatial summary.
type SpatialSummaryRow struct {
	// Group is the grouping member's descriptor (e.g. the city name).
	Group string
	// Count is the number of members with geometry in the group.
	Count int
	// Centroid is the mean coordinate of the members' representative
	// points.
	Centroid geom.Point
	// Bounds is the group's minimum bounding rectangle.
	Bounds geom.Rect
	// Hull is the convex hull of the members' vertices: a polygon, or a
	// degenerate line/point for small groups.
	Hull geom.Geometry
}

// SpatialSummary aggregates the geometries of dim.level's members grouped
// by their ancestor at dim.groupLevel, honouring the view's member mask for
// dim.level (nil view = all members). Members without geometry are skipped.
func (c *Cube) SpatialSummary(dim, level, groupLevel string, v *View) ([]SpatialSummaryRow, error) {
	dd := c.dims[dim]
	if dd == nil {
		return nil, fmt.Errorf("cube: unknown dimension %q", dim)
	}
	from := dd.LevelIndex(level)
	to := dd.LevelIndex(groupLevel)
	if from < 0 {
		return nil, fmt.Errorf("cube: dimension %q has no level %q", dim, level)
	}
	if to < 0 {
		return nil, fmt.Errorf("cube: dimension %q has no level %q", dim, groupLevel)
	}
	if to < from {
		return nil, fmt.Errorf("cube: group level %q must be coarser than %q", groupLevel, level)
	}
	ld := dd.levels[from]
	if ld.geoms == nil {
		return nil, fmt.Errorf("cube: level %s.%s has no geometry", dim, level)
	}
	groupLd := dd.levels[to]
	var sel *bitset.Set
	if v != nil {
		sel = v.LevelMask(dim, level)
	}

	type acc struct {
		count int
		sumX  float64
		sumY  float64
		rect  geom.Rect
		parts []geom.Geometry
	}
	accs := map[int32]*acc{}
	for i := int32(0); int(i) < ld.Len(); i++ {
		g := ld.Geometry(i)
		if g == nil {
			continue
		}
		if !sel.Test(int(i)) {
			continue
		}
		anc := dd.Ancestor(from, to, i)
		if anc == NoParent {
			continue
		}
		a := accs[anc]
		if a == nil {
			a = &acc{rect: geom.EmptyRect()}
			accs[anc] = a
		}
		a.count++
		center := g.Bounds().Center()
		a.sumX += center.X
		a.sumY += center.Y
		a.rect = a.rect.ExtendRect(g.Bounds())
		a.parts = append(a.parts, g)
	}

	out := make([]SpatialSummaryRow, 0, len(accs))
	for anc, a := range accs {
		out = append(out, SpatialSummaryRow{
			Group:    groupLd.Name(anc),
			Count:    a.count,
			Centroid: geom.Pt(a.sumX/float64(a.count), a.sumY/float64(a.count)),
			Bounds:   a.rect,
			Hull:     geom.ConvexHull(geom.Collection{Geoms: a.parts}),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out, nil
}

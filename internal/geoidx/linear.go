package geoidx

import (
	"sort"

	"sdwp/internal/geom"
)

// Linear is the naive baseline index: it scans every item on every query.
// It implements the same Index interface as RTree so the benchmark harness
// (experiment C4) can swap the two.
type Linear struct {
	ids    []int32
	bounds []geom.Rect
}

// NewLinear returns an empty linear index.
func NewLinear() *Linear { return &Linear{} }

// Len returns the number of items.
func (l *Linear) Len() int { return len(l.ids) }

// Insert adds an item.
func (l *Linear) Insert(id int32, bounds geom.Rect) {
	l.ids = append(l.ids, id)
	l.bounds = append(l.bounds, bounds)
}

// Search scans all items.
func (l *Linear) Search(query geom.Rect, fn func(id int32) bool) {
	for i, b := range l.bounds {
		if b.Intersects(query) {
			if !fn(l.ids[i]) {
				return
			}
		}
	}
}

// Nearest computes the exact distance for every item and returns the k
// smallest.
func (l *Linear) Nearest(k int, _ func(geom.Rect) float64, dist func(id int32) float64) []int32 {
	if k <= 0 || len(l.ids) == 0 {
		return nil
	}
	type cand struct {
		id int32
		d  float64
	}
	cands := make([]cand, len(l.ids))
	for i, id := range l.ids {
		cands[i] = cand{id: id, d: dist(id)}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int32, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].id
	}
	return out
}

// PointIndex wraps an Index over point data with geodetic convenience
// queries. Geometry coordinates are lon/lat degrees.
type PointIndex struct {
	idx Index
	pts []geom.Point
}

// NewPointIndex bulk-loads the given points into an R-tree-backed index.
func NewPointIndex(pts []geom.Point) *PointIndex {
	ids := make([]int32, len(pts))
	bounds := make([]geom.Rect, len(pts))
	for i, p := range pts {
		ids[i] = int32(i)
		bounds[i] = p.Bounds()
	}
	return &PointIndex{idx: Bulk(ids, bounds, 0), pts: pts}
}

// NewLinearPointIndex wraps the points in the linear baseline.
func NewLinearPointIndex(pts []geom.Point) *PointIndex {
	l := NewLinear()
	for i, p := range pts {
		l.Insert(int32(i), p.Bounds())
	}
	return &PointIndex{idx: l, pts: pts}
}

// Len returns the number of points.
func (pi *PointIndex) Len() int { return pi.idx.Len() }

// WithinKm calls fn for every point within radiusKm kilometres (haversine)
// of center.
func (pi *PointIndex) WithinKm(center geom.Point, radiusKm float64, fn func(i int32) bool) {
	box := geom.DegreeBox(center, radiusKm)
	pi.idx.Search(box, func(id int32) bool {
		if geom.Haversine(center, pi.pts[id]) <= radiusKm {
			return fn(id)
		}
		return true
	})
}

package geoidx

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"sdwp/internal/geom"
)

func randRects(n int, seed int64) []geom.Rect {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Rect, n)
	for i := range out {
		x, y := rng.Float64()*100, rng.Float64()*100
		w, h := rng.Float64()*2, rng.Float64()*2
		out[i] = geom.Rect{Min: geom.Pt(x, y), Max: geom.Pt(x+w, y+h)}
	}
	return out
}

func searchIDs(idx Index, q geom.Rect) []int32 {
	var got []int32
	idx.Search(q, func(id int32) bool { got = append(got, id); return true })
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	return got
}

func sameIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRTreeEmpty(t *testing.T) {
	tr := NewRTree(0)
	if tr.Len() != 0 {
		t.Fatal("empty tree Len != 0")
	}
	if got := searchIDs(tr, geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(10, 10)}); len(got) != 0 {
		t.Fatalf("search on empty tree returned %v", got)
	}
	if got := tr.Nearest(5, func(geom.Rect) float64 { return 0 }, func(int32) float64 { return 0 }); got != nil {
		t.Fatalf("nearest on empty tree returned %v", got)
	}
}

func TestRTreeSingleItem(t *testing.T) {
	tr := NewRTree(0)
	tr.Insert(7, geom.Pt(5, 5).Bounds())
	if got := searchIDs(tr, geom.Rect{Min: geom.Pt(4, 4), Max: geom.Pt(6, 6)}); !sameIDs(got, []int32{7}) {
		t.Fatalf("search = %v", got)
	}
	if got := searchIDs(tr, geom.Rect{Min: geom.Pt(8, 8), Max: geom.Pt(9, 9)}); len(got) != 0 {
		t.Fatalf("miss search = %v", got)
	}
}

// Insertion-built tree must agree with the linear baseline on every query.
func TestRTreeMatchesLinearOnSearch(t *testing.T) {
	rects := randRects(2000, 1)
	tr := NewRTree(8)
	lin := NewLinear()
	for i, r := range rects {
		tr.Insert(int32(i), r)
		lin.Insert(int32(i), r)
	}
	if tr.Len() != 2000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	queries := randRects(100, 2)
	for _, q := range queries {
		want := searchIDs(lin, q)
		got := searchIDs(tr, q)
		if !sameIDs(got, want) {
			t.Fatalf("query %+v: rtree %d ids, linear %d ids", q, len(got), len(want))
		}
	}
}

// Bulk-loaded tree must agree with the linear baseline too.
func TestBulkMatchesLinear(t *testing.T) {
	rects := randRects(3000, 3)
	ids := make([]int32, len(rects))
	lin := NewLinear()
	for i, r := range rects {
		ids[i] = int32(i)
		lin.Insert(int32(i), r)
	}
	tr := Bulk(ids, rects, 16)
	if tr.Len() != len(rects) {
		t.Fatalf("Len = %d", tr.Len())
	}
	for _, q := range randRects(100, 4) {
		want := searchIDs(lin, q)
		got := searchIDs(tr, q)
		if !sameIDs(got, want) {
			t.Fatalf("bulk query mismatch: got %d want %d", len(got), len(want))
		}
	}
}

func TestBulkEmptyAndMismatch(t *testing.T) {
	tr := Bulk(nil, nil, 0)
	if tr.Len() != 0 {
		t.Fatal("bulk of nothing should be empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Bulk([]int32{1}, nil, 0)
}

func TestRTreeSearchEarlyStop(t *testing.T) {
	tr := NewRTree(4)
	for i := 0; i < 100; i++ {
		tr.Insert(int32(i), geom.Pt(float64(i%10), float64(i/10)).Bounds())
	}
	count := 0
	tr.Search(geom.Rect{Min: geom.Pt(-1, -1), Max: geom.Pt(11, 11)}, func(int32) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

// TestNearestMatchesLinear: best-first search over the R-tree finds the
// same k nearest points (by haversine distance) as the linear baseline.
func TestNearestMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([]geom.Point, 1000)
	ids := make([]int32, len(pts))
	bounds := make([]geom.Rect, len(pts))
	ln := NewLinear()
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*10-5, rng.Float64()*8+36) // lon/lat-ish
		ids[i], bounds[i] = int32(i), pts[i].Bounds()
		ln.Insert(ids[i], bounds[i])
	}
	rt := Bulk(ids, bounds, 0)
	for trial := 0; trial < 20; trial++ {
		c := geom.Pt(rng.Float64()*10-5, rng.Float64()*8+36)
		// A degree of arc is longer than 50 km at these latitudes (36–44°N),
		// so this is a valid lower bound of the haversine distance.
		lb := func(r geom.Rect) float64 { return r.DistanceToPoint(c) * 50 }
		dist := func(id int32) float64 { return geom.Haversine(c, pts[id]) }
		for _, k := range []int{1, 5, 17} {
			a := rt.Nearest(k, lb, dist)
			b := ln.Nearest(k, lb, dist)
			if len(a) != k || len(b) != k {
				t.Fatalf("k=%d: lens %d %d", k, len(a), len(b))
			}
			// Compare by distance (ties may reorder ids).
			for i := range a {
				da := geom.Haversine(c, pts[a[i]])
				db := geom.Haversine(c, pts[b[i]])
				if math.Abs(da-db) > 1e-9 {
					t.Fatalf("k=%d pos %d: rtree %.6f vs linear %.6f", k, i, da, db)
				}
			}
			// Ascending order.
			for i := 1; i < len(a); i++ {
				if geom.Haversine(c, pts[a[i-1]]) > geom.Haversine(c, pts[a[i]])+1e-9 {
					t.Fatalf("nearest not ascending")
				}
			}
		}
	}
}

func TestWithinKmMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := make([]geom.Point, 2000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*6-3, rng.Float64()*4+38)
	}
	pi := NewPointIndex(pts)
	for trial := 0; trial < 10; trial++ {
		c := geom.Pt(rng.Float64()*6-3, rng.Float64()*4+38)
		radius := rng.Float64()*40 + 5
		want := map[int32]bool{}
		for i, p := range pts {
			if geom.Haversine(c, p) <= radius {
				want[int32(i)] = true
			}
		}
		got := map[int32]bool{}
		pi.WithinKm(c, radius, func(i int32) bool { got[i] = true; return true })
		if len(got) != len(want) {
			t.Fatalf("radius %.1f: got %d, want %d", radius, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("missing id %d", id)
			}
		}
	}
}

func TestWithinKmEarlyStop(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.001, 0), geom.Pt(0.002, 0), geom.Pt(0.003, 0)}
	pi := NewPointIndex(pts)
	count := 0
	pi.WithinKm(geom.Pt(0, 0), 10, func(int32) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestRTreeHeightGrows(t *testing.T) {
	tr := NewRTree(4)
	for i := 0; i < 500; i++ {
		tr.Insert(int32(i), geom.Pt(float64(i), float64(i%7)).Bounds())
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d for 500 items with fanout 4", tr.Height())
	}
}

// Property test: random insert order never loses items.
func TestQuickInsertAllFindable(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 10; trial++ {
		n := 50 + rng.Intn(400)
		tr := NewRTree(4 + rng.Intn(12))
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*50, rng.Float64()*50)
			tr.Insert(int32(i), pts[i].Bounds())
		}
		for i, p := range pts {
			found := false
			tr.Search(p.Bounds().Expand(1e-9), func(id int32) bool {
				if id == int32(i) {
					found = true
					return false
				}
				return true
			})
			if !found {
				t.Fatalf("trial %d: item %d lost", trial, i)
			}
		}
	}
}

func buildPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*12-9, rng.Float64()*7+36)
	}
	return pts
}

func BenchmarkRTreeWithinKm10k(b *testing.B) {
	pi := NewPointIndex(buildPoints(10000, 5))
	c := geom.Pt(-3.7, 40.4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		pi.WithinKm(c, 25, func(int32) bool { n++; return true })
	}
}

func BenchmarkLinearWithinKm10k(b *testing.B) {
	pi := NewLinearPointIndex(buildPoints(10000, 5))
	c := geom.Pt(-3.7, 40.4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		pi.WithinKm(c, 25, func(int32) bool { n++; return true })
	}
}

func BenchmarkRTreeInsert(b *testing.B) {
	rects := randRects(b.N+1, 6)
	tr := NewRTree(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(int32(i), rects[i])
	}
}

func BenchmarkBulkLoad100k(b *testing.B) {
	rects := randRects(100000, 7)
	ids := make([]int32, len(rects))
	for i := range ids {
		ids[i] = int32(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Bulk(ids, rects, 16)
	}
}

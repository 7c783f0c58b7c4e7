package cube

import (
	"math"
	"testing"

	"sdwp/internal/geom"
)

func TestSpatialSummaryByCity(t *testing.T) {
	c := testWarehouse(t)
	rows, err := c.SpatialSummary("Store", "Store", "City", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cities with stores: Alicante (s0,s1), Elche (s2), MadridCity (s3,s4).
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Group != "Alicante" || rows[1].Group != "Elche" || rows[2].Group != "MadridCity" {
		t.Fatalf("group order = %v %v %v", rows[0].Group, rows[1].Group, rows[2].Group)
	}
	ali := rows[0]
	if ali.Count != 2 {
		t.Errorf("Alicante count = %d", ali.Count)
	}
	// Centroid of s0 (-0.48,38.34) and s1 (-0.49,38.35).
	if math.Abs(ali.Centroid.X-(-0.485)) > 1e-9 || math.Abs(ali.Centroid.Y-38.345) > 1e-9 {
		t.Errorf("Alicante centroid = %v", ali.Centroid)
	}
	if !ali.Bounds.ContainsPoint(geom.Pt(-0.48, 38.34)) || !ali.Bounds.ContainsPoint(geom.Pt(-0.49, 38.35)) {
		t.Errorf("Alicante bounds = %+v", ali.Bounds)
	}
	// Two points hull degenerates to a line; singleton to a point.
	if _, ok := ali.Hull.(geom.Line); !ok {
		t.Errorf("two-store hull type %T", ali.Hull)
	}
	if _, ok := rows[1].Hull.(geom.Point); !ok {
		t.Errorf("one-store hull type %T", rows[1].Hull)
	}
}

func TestSpatialSummaryAtCoarserLevels(t *testing.T) {
	c := testWarehouse(t)
	rows, err := c.SpatialSummary("Store", "Store", "Country", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Group != "Spain" || rows[0].Count != 5 {
		t.Fatalf("country summary = %+v", rows)
	}
	poly, ok := rows[0].Hull.(geom.Polygon)
	if !ok {
		t.Fatalf("5-store hull type %T", rows[0].Hull)
	}
	// All stores inside the hull.
	for i := int32(0); i < 5; i++ {
		g := c.Dimension("Store").Level("Store").Geometry(i)
		if !geom.Intersects(g, poly) {
			t.Errorf("store %d outside hull", i)
		}
	}
	// Identity grouping (level == groupLevel) gives one row per member.
	rows, err = c.SpatialSummary("Store", "Store", "Store", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("identity summary rows = %d", len(rows))
	}
}

func TestSpatialSummaryHonoursView(t *testing.T) {
	c := testWarehouse(t)
	b := NewView(c).Builder()
	_ = b.SelectMember("Store", "Store", 0)
	_ = b.SelectMember("Store", "Store", 3)
	v := b.View()
	rows, err := c.SpatialSummary("Store", "Store", "City", v)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("masked rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Count != 1 {
			t.Errorf("group %s count = %d", r.Group, r.Count)
		}
	}
}

func TestSpatialSummaryErrors(t *testing.T) {
	c := testWarehouse(t)
	if _, err := c.SpatialSummary("Ghost", "Store", "City", nil); err == nil {
		t.Error("unknown dimension")
	}
	if _, err := c.SpatialSummary("Store", "Ghost", "City", nil); err == nil {
		t.Error("unknown level")
	}
	if _, err := c.SpatialSummary("Store", "Store", "Ghost", nil); err == nil {
		t.Error("unknown group level")
	}
	if _, err := c.SpatialSummary("Store", "City", "Store", nil); err == nil {
		t.Error("finer group level accepted")
	}
	if _, err := c.SpatialSummary("Time", "Day", "Month", nil); err == nil {
		t.Error("non-spatial level accepted")
	}
}

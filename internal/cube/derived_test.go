package cube

import (
	"sync"
	"testing"

	"sdwp/internal/geom"
)

// TestFeatureTextRebuildsAfterMutation: a table's text slab is built once
// and served until a mutation it depends on — SetMemberGeometry, a
// descriptor SetMemberAttr, AddMember, AddLayerObject — moves the table's
// generation; other attribute writes keep it.
func TestFeatureTextRebuildsAfterMutation(t *testing.T) {
	c := testWarehouse(t)
	stores := c.Dimension("Store").Level("Store")
	if _, err := c.RegisterLayer("Airport", geom.TypePoint); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddLayerObject("Airport", "ALC", geom.Pt(-0.56, 38.28)); err != nil {
		t.Fatal(err)
	}
	airports := c.Layer("Airport")

	builds := 0
	storeText := func() *TextSlab {
		return stores.FeatureText(func(dst []byte, i int32) []byte {
			if i == 0 {
				builds++
			}
			if i == 1 {
				return dst // declined: empty text
			}
			return append(dst, stores.Name(i)...)
		})
	}
	airportText := func() *TextSlab {
		return airports.FeatureText(func(dst []byte, i int32) []byte {
			if i == 0 {
				builds++
			}
			return append(dst, airports.Name(i)...)
		})
	}

	slab := storeText()
	if string(slab.Text(0)) != "s0" || len(slab.Text(1)) != 0 || string(slab.Text(4)) != "s4" || builds != 1 {
		t.Fatalf("slab texts %q %q %q after %d builds", slab.Text(0), slab.Text(1), slab.Text(4), builds)
	}
	if got := append(slab.Text(0), 'x'); string(slab.Text(2)) != "s2" || string(got) != "s0x" {
		t.Fatal("appending to one object's text overwrote the next")
	}
	airportText()
	for _, step := range []struct {
		name    string
		do      func() error
		rebuild bool
	}{
		{"no mutation", func() error { return nil }, false},
		{"SetMemberAttr non-descriptor", func() error { return c.SetMemberAttr("Store", "Store", 2, "size", 3.0) }, false},
		{"SetMemberGeometry", func() error { return c.SetMemberGeometry("Store", "Store", 2, geom.Pt(-3.7, 40.4)) }, true},
		{"SetMemberAttr descriptor", func() error { return c.SetMemberAttr("Store", "Store", 2, "name", "s2b") }, true},
		{"AddMember", func() error {
			_, err := c.AddMember("Store", "Store", "s5", 0)
			return err
		}, true},
		{"AddLayerObject", func() error {
			_, err := c.AddLayerObject("Airport", "MAD", geom.Pt(-3.57, 40.49))
			return err
		}, true},
	} {
		before := builds
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		storeText()
		airportText()
		if rebuilt := builds > before; rebuilt != step.rebuild {
			t.Errorf("%s: rebuilt %v, want %v", step.name, rebuilt, step.rebuild)
		}
	}
	if slab := storeText(); string(slab.Text(2)) != "s2b" || string(slab.Text(5)) != "s5" {
		t.Fatalf("rebuilt slab reads %q, %q", slab.Text(2), slab.Text(5))
	}
	if slab := airportText(); string(slab.Text(1)) != "MAD" {
		t.Fatalf("rebuilt layer slab reads %q", slab.Text(1))
	}
}

// The point indexes follow their tables: a moved store and a new airport
// are found by the radius queries that use them.
func TestPointIndexFollowsMutations(t *testing.T) {
	c := testWarehouse(t)
	madrid := geom.Pt(-3.69, 40.41)
	within := func() []int32 {
		var got []int32
		if err := c.MembersWithinKm("Store", "Store", madrid, 10, func(m int32) bool {
			got = append(got, m)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := within(); len(got) != 2 {
		t.Fatalf("stores near Madrid = %v", got)
	}
	if err := c.SetMemberGeometry("Store", "Store", 0, geom.Pt(-3.69, 40.40)); err != nil {
		t.Fatal(err)
	}
	if got := within(); len(got) != 3 {
		t.Fatalf("after moving s0, stores near Madrid = %v", got)
	}

	if _, err := c.RegisterLayer("Airport", geom.TypePoint); err != nil {
		t.Fatal(err)
	}
	airportsNear := func() int {
		n := 0
		if err := c.LayerObjectsWithinKm("Airport", madrid, 20, func(int32) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if _, err := c.AddLayerObject("Airport", "ALC", geom.Pt(-0.56, 38.28)); err != nil {
		t.Fatal(err)
	}
	if n := airportsNear(); n != 0 {
		t.Fatalf("airports near Madrid = %d", n)
	}
	if _, err := c.AddLayerObject("Airport", "MAD", geom.Pt(-3.57, 40.49)); err != nil {
		t.Fatal(err)
	}
	if n := airportsNear(); n != 1 {
		t.Fatalf("after adding MAD, airports near Madrid = %d", n)
	}
}

// Concurrent readers build and publish the derived values without a data
// race (go test -race).
func TestDerivedConcurrentReaders(t *testing.T) {
	c := testWarehouse(t)
	stores := c.Dimension("Store").Level("Store")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				if err := c.MembersWithinKm("Store", "Store", geom.Pt(-0.5, 38.3), 50, func(int32) bool { return true }); err != nil {
					t.Error(err)
					return
				}
				slab := stores.FeatureText(func(dst []byte, i int32) []byte { return append(dst, stores.Name(i)...) })
				if string(slab.Text(3)) != "s3" {
					t.Errorf("slab text %q", slab.Text(3))
					return
				}
			}
		}()
	}
	wg.Wait()
}

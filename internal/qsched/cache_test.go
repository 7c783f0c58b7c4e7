package qsched

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/datagen"
)

func testResult(tag string, rows int) *cube.Result {
	r := &cube.Result{GroupCols: []string{"g"}, AggCols: []string{"COUNT(*)"}}
	for i := 0; i < rows; i++ {
		r.Rows = append(r.Rows, cube.Row{Groups: []string{fmt.Sprintf("%s-%03d", tag, i)}, Values: []float64{1}})
	}
	return r
}

func TestResultCacheHitAndUpdate(t *testing.T) {
	c := newResultCache(1 << 20)
	if _, ok := c.get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	ra := testResult("a", 3)
	c.put("a", ra)
	got, ok := c.get("a")
	if !ok || got != ra {
		t.Fatalf("get after put: ok=%v got=%p want=%p", ok, got, ra)
	}
	// Refreshing a key replaces the value and adjusts the footprint.
	ra2 := testResult("a", 10)
	c.put("a", ra2)
	if got, _ := c.get("a"); got != ra2 {
		t.Fatal("refreshed entry not returned")
	}
	hits, misses, evictions, bytes, entries := c.stats()
	if hits != 2 || misses != 1 || evictions != 0 || entries != 1 {
		t.Errorf("stats = hits %d misses %d evictions %d entries %d", hits, misses, evictions, entries)
	}
	if want := entrySize("a", ra2); bytes != want {
		t.Errorf("bytes = %d, want %d", bytes, want)
	}
}

func TestResultCacheEvictsLRU(t *testing.T) {
	one := entrySize("k0", testResult("k0", 4))
	c := newResultCache(3 * one)
	for i := 0; i < 3; i++ {
		c.put(fmt.Sprintf("k%d", i), testResult(fmt.Sprintf("k%d", i), 4))
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := c.get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.put("k3", testResult("k3", 4))
	if _, ok := c.get("k1"); ok {
		t.Error("LRU victim k1 still cached")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	_, _, evictions, bytes, entries := c.stats()
	if evictions != 1 || entries != 3 {
		t.Errorf("evictions = %d entries = %d, want 1 / 3", evictions, entries)
	}
	if bytes > 3*one {
		t.Errorf("bytes = %d over budget %d", bytes, 3*one)
	}
}

func TestResultCacheRejectsOversize(t *testing.T) {
	c := newResultCache(64) // smaller than any real result
	c.put("big", testResult("big", 100))
	if _, ok := c.get("big"); ok {
		t.Error("oversize result cached")
	}
	if _, _, _, bytes, entries := c.stats(); bytes != 0 || entries != 0 {
		t.Errorf("bytes = %d entries = %d after oversize put", bytes, entries)
	}
}

// TestLimitTruncatedResultFootprint pins that a top-n result costs what
// its n rows cost, not what the groups it was cut from cost: the cache's
// byte charge (resultSize) and the memory the executor allocates for — and
// the Result therefore retains from — a Limit 10 query over thousands of
// groups must both be a small fraction of the unlimited query's.
func TestLimitTruncatedResultFootprint(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Seed: 3, States: 5, Cities: 15, Stores: 1000, Customers: 60,
		Products: 30, Days: 30, Sales: 20000,
		AirportEvery: 5, TrainLines: 4, Hospitals: 5, Highways: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	full := cube.Query{
		Fact:       "Sales",
		GroupBy:    []cube.LevelRef{{Dimension: "Store", Level: "Store"}, {Dimension: "Product", Level: "Family"}},
		Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}},
		OrderBy:    &cube.OrderBy{Agg: 0, Desc: true},
	}
	top := full
	top.Limit = 10

	// Allocated bytes per warm run bound what one Result can retain: the
	// pooled partial (tables, sort scratch) is reused, so what is left is
	// the Result itself plus per-query plan state. The minimum over a few
	// runs is the warm figure — the first run fills the pool, and under
	// the race detector sync.Pool drops a share of Puts at random.
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep sync.Pool contents
	var results [2]*cube.Result
	var alloc [2]uint64
	for k, q := range []cube.Query{full, top} {
		alloc[k] = math.MaxUint64
		for run := 0; run < 8; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if results[k], err = ds.Cube.Execute(q, nil); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			alloc[k] = min(alloc[k], after.TotalAlloc-before.TotalAlloc)
		}
	}
	rows := len(results[0].Rows)
	if rows < 2000 || len(results[1].Rows) != 10 {
		t.Fatalf("rows full/top = %d/%d, want thousands/10", rows, len(results[1].Rows))
	}
	if !reflect.DeepEqual(results[1].Rows, results[0].Rows[:10]) {
		t.Error("top-10 rows are not the first 10 of the full result")
	}
	fullSize, topSize := resultSize(results[0]), resultSize(results[1])
	t.Logf("rows %d: resultSize %d vs %d, allocated %d vs %d bytes", rows, fullSize, topSize, alloc[0], alloc[1])
	if topSize*100 > fullSize {
		t.Errorf("resultSize of the top-10 result is %d, full result %d: not scaling with rows kept", topSize, fullSize)
	}
	if alloc[1]*20 > alloc[0] {
		t.Errorf("top-10 query allocated %d bytes, full query %d: a truncated result still pays for the dropped rows",
			alloc[1], alloc[0])
	}
	for _, row := range results[1].Rows {
		if cap(row.Groups) != len(row.Groups) || cap(row.Values) != len(row.Values) {
			t.Fatalf("row slices are not capacity-capped: %d/%d groups, %d/%d values",
				len(row.Groups), cap(row.Groups), len(row.Values), cap(row.Values))
		}
	}
}

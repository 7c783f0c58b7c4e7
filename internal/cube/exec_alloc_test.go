package cube_test

// Allocation-budget assertion for the single-worker batch paths: BENCH_5
// showed workers=1/shared=true allocating ~1.6MB/op more than
// shared=false, which turned out to be cold-start artifact allocation
// amortized over too few benchmark iterations rather than a leak — the
// release path does return artifacts to the per-table pools. This test
// pins that conclusion: once the pools are warm, a sharing batch may not
// allocate meaningfully more bytes per run than the same queries run one
// by one (each lone query takes only its own pooled bitmap), so a future
// regression in releaseArtifacts (or in partial pooling) fails here
// instead of only drifting the benchmark trajectory.

import (
	"runtime"
	"runtime/debug"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/datagen"
)

// bytesPerRun reports steady-state allocated bytes per call of f: GC is
// disabled so sync.Pool contents survive (we are measuring the warm
// path), one warm-up call fills the pools, and TotalAlloc deltas average
// over runs.
func bytesPerRun(runs int, f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

func TestSingleWorkerSharedBatchAllocBudget(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Seed: 7, States: 4, Cities: 20, Stores: 120, Customers: 200,
		Products: 40, Days: 30, Sales: 20000,
		AirportEvery: 5, TrainLines: 2, Hospitals: 2, Highways: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A batch with real sharing: two filter sets and two groupings, each
	// used by four queries, so the staged path materializes artifacts
	// every run (and must return every one of them to the pools).
	popFilter := []cube.AttrFilter{{
		LevelRef: cube.LevelRef{Dimension: "Store", Level: "City"},
		Attr:     "population", Op: cube.OpGt, Value: 200000.0,
	}}
	ageFilter := []cube.AttrFilter{{
		LevelRef: cube.LevelRef{Dimension: "Customer", Level: "Customer"},
		Attr:     "age", Op: cube.OpGe, Value: 30.0,
	}}
	var qs []cube.Query
	for i := 0; i < 8; i++ {
		q := cube.Query{Fact: "Sales",
			Aggregates: []cube.MeasureAgg{{Measure: "UnitSales", Agg: cube.AggSum}, {Agg: cube.AggCount}}}
		if i%2 == 0 {
			q.GroupBy = []cube.LevelRef{{Dimension: "Store", Level: "City"}}
		} else {
			q.GroupBy = []cube.LevelRef{{Dimension: "Product", Level: "Family"}}
		}
		if i < 4 {
			q.Filters = popFilter
		} else {
			q.Filters = ageFilter
		}
		qs = append(qs, q)
	}
	lone := func() {
		for _, q := range qs {
			if _, err := ds.Cube.ExecuteParallel(q, nil, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	batch := func() {
		if _, _, err := ds.Cube.ExecuteBatchOpt(qs, nil, cube.BatchOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 10
	loneBytes := bytesPerRun(runs, lone)
	shared := bytesPerRun(runs, batch)
	t.Logf("bytes/run: lone=%d shared=%d", loneBytes, shared)

	// Budget: warm shared scans re-materialize nothing large — one leaked
	// filter bitmap or key column per run (~2.5KB / ~80KB at 20k facts,
	// several of each per batch) blows this headroom immediately.
	const headroom = 100 << 10 // 100 KiB
	if shared > loneBytes+headroom {
		t.Errorf("warm shared batch allocates %d bytes/run vs lone queries %d (+%d); artifacts are leaking the pools",
			shared, loneBytes, shared-loneBytes)
	}
}

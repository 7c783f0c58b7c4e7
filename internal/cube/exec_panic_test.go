package cube

import (
	"runtime"
	"testing"
	"time"

	"sdwp/internal/bitset"
)

// recovered runs f and returns what it panicked with (nil if nothing).
func recovered(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// settleGoroutines waits until no more than baseline goroutines run.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines left running, %d before", n, baseline)
	}
}

// TestWorkerPanicsReachTheCaller pins that a panic in a pool worker of
// stage 1 (parallelFill) or stage 3 (accumulateMorsels) is re-raised on
// the calling goroutine once every worker has stopped — where the
// scheduler can recover it — instead of ending the process from a
// goroutine nobody can recover.
func TestWorkerPanicsReachTheCaller(t *testing.T) {
	baseline := runtime.NumGoroutine()
	n := 10 * execChunkSize
	if r := recovered(func() {
		parallelFill(n, 3, func(lo, hi int) {
			if lo == 5*execChunkSize {
				panic("fill fault")
			}
		})
	}); r != "fill fault" {
		t.Errorf("parallelFill panicked with %v, want the worker's fault", r)
	}
	settleGoroutines(t, baseline)

	// A drive whose mask runs past the plan's few facts: the worker that
	// claims the first chunk indexes the columns out of range.
	c := testWarehouse(t)
	p, err := c.compile(Query{Fact: "Sales", GroupBy: []LevelRef{{"Store", "City"}},
		Aggregates: []MeasureAgg{{Measure: "UnitSales", Agg: AggSum}}})
	if err != nil {
		t.Fatal(err)
	}
	past := bitset.Full(64)
	scans := []queryScan{{iter: past, prefiltered: true}}
	row0 := []*partial{newPartial(p)}
	rest := []*partial{newPartial(p), newPartial(p)}
	if r := recovered(func() { accumulateMorsels(row0, rest, scans, n) }); r == nil {
		t.Error("accumulateMorsels swallowed its workers' panics")
	}
	settleGoroutines(t, baseline)
}

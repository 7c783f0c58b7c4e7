package cube

// Pooled-partial hygiene and worker-clamp regression tests for the
// morsel-driven executor: partials recycle through FactData.partialPool
// with a full reset-on-get (rebind), and normalizeWorkers never sizes a
// pool past the chunk count, so a tiny table (or shard) at workers=8 no
// longer allocates seven partial tables that scan nothing.

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"sdwp/internal/bitset"
	"sdwp/internal/geomd"
	"sdwp/internal/mdmodel"
	"sdwp/internal/obs"
)

func TestNormalizeWorkersClampsToChunkCount(t *testing.T) {
	big := 10 * execChunkSize // 10 chunks
	cases := []struct {
		workers, n, want int
	}{
		{0, big, 1},
		{1, big, 1},
		{8, big, 8},
		{16, big, 10},             // more workers than chunks
		{8, 6, 1},                 // tiny table: one chunk
		{8, execChunkSize, 1},     // exactly one chunk
		{8, execChunkSize + 1, 2}, // just past the boundary
		{3, 2 * execChunkSize, 2}, // clamp below requested
		{2, 4 * execChunkSize, 2}, // no clamp needed
		{8, 0, 1},                 // empty table still scans as one chunk
	}
	for _, tc := range cases {
		if got := normalizeWorkers(tc.workers, tc.n); got != tc.want {
			t.Errorf("normalizeWorkers(%d, %d) = %d, want %d", tc.workers, tc.n, got, tc.want)
		}
	}
	// Negative = one worker per logical CPU, still chunk-clamped.
	if got := normalizeWorkers(-1, big); got != min(runtime.GOMAXPROCS(0), 10) {
		t.Errorf("normalizeWorkers(-1, big) = %d", got)
	}
	if got := normalizeWorkers(-1, 6); got != 1 {
		t.Errorf("normalizeWorkers(-1, tiny) = %d, want 1", got)
	}
}

// TestTinyTableWorkersAllocateOnePartial is the regression test for the
// surplus-partials bug: 6 facts fit one chunk, so workers=8 must take
// exactly one partial from the pool, not eight.
func TestTinyTableWorkersAllocateOnePartial(t *testing.T) {
	c := testWarehouse(t)
	p, err := c.compile(Query{
		Fact:       "Sales",
		GroupBy:    []LevelRef{{"Store", "City"}},
		Aggregates: []MeasureAgg{{Measure: "UnitSales", Agg: AggSum}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := &scanPartials{}
	parts := []*partial{nil}
	executeBatchPartials([]*queryPlan{p}, []*bitset.Set{nil}, parts, sp, BatchOptions{Workers: 8})
	if got := len(sp.parts); got != 1 {
		t.Fatalf("tiny-table scan at workers=8 took %d partials, want 1", got)
	}
	res := p.finalize(parts[0])
	sp.release()
	if len(res.Rows) != 3 || res.ScannedFacts != 6 {
		t.Fatalf("clamped scan result wrong: %+v", res)
	}
}

// wideWarehouse builds a warehouse whose A x B group-by has 601² keys —
// past maxDenseCells, so it takes the hashed group table — while A x
// B.region and A alone stay dense.
func wideWarehouse(t testing.TB) *Cube {
	t.Helper()
	b := mdmodel.NewBuilder("Wide")
	b.Dimension("A").Level("a", "name").Attr("weight", mdmodel.TypeNumber)
	b.Dimension("B").Level("b", "name").Level("region", "name")
	b.Fact("F").Measure("m").Measure("n").Uses("A", "B")
	c := New(geomd.New(b.MustBuild()))
	must := func(_ int32, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 3; r++ {
		must(c.AddMember("B", "region", fmt.Sprintf("r%d", r), NoParent))
	}
	for i := 0; i < 600; i++ {
		must(c.AddMember("A", "a", fmt.Sprintf("a%03d", i), NoParent))
		if err := c.SetMemberAttr("A", "a", int32(i), "weight", float64(i%7)); err != nil {
			t.Fatal(err)
		}
		must(c.AddMember("B", "b", fmt.Sprintf("b%03d", i), int32(i%3)))
	}
	for i := 0; i < 3000; i++ {
		err := c.AddFact("F",
			map[string]int32{"A": int32(i * 7 % 600), "B": int32(i * 13 % 600)},
			map[string]float64{"m": float64(i%11 + 1), "n": float64(i%5) / 4})
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestPartialPoolNoStateBleed alternates a hashed plan, a dense
// composite-key plan and a single-level kernel plan through one partial —
// exactly what the pool does on reuse — and pins that rebind leaves no
// trace of the previous query whatever shape it had: no stale cells in
// the cell store or the hash table, no stale scan counters, results
// identical to a freshly allocated partial's. It then merges worker
// partials over disjoint and overlapping touched sets at 1, 2 and 4
// workers and pins that the merged results stay bit-identical.
func TestPartialPoolNoStateBleed(t *testing.T) {
	c := wideWarehouse(t)
	compile := func(q Query) *queryPlan {
		t.Helper()
		p, err := c.compile(q)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Hashed: filtered, two aggregates.
	pHash := compile(Query{
		Fact:       "F",
		GroupBy:    []LevelRef{{"A", "a"}, {"B", "b"}},
		Aggregates: []MeasureAgg{{Measure: "m", Agg: AggSum}, {Agg: AggCount}},
		Filters:    []AttrFilter{{LevelRef: LevelRef{"A", "a"}, Attr: "weight", Op: OpGt, Value: 2.0}},
	})
	// Dense composite key: unfiltered, three aggregates, a wider cell
	// whose blank carries ±Inf.
	pDense := compile(Query{
		Fact:    "F",
		GroupBy: []LevelRef{{"A", "a"}, {"B", "region"}},
		Aggregates: []MeasureAgg{
			{Measure: "n", Agg: AggMin},
			{Measure: "n", Agg: AggMax},
			{Measure: "m", Agg: AggAvg},
		},
	})
	// Single level, one aggregate: the kernel path, a different stride.
	pSingle := compile(Query{
		Fact:       "F",
		GroupBy:    []LevelRef{{"B", "b"}},
		Aggregates: []MeasureAgg{{Measure: "m", Agg: AggSum}},
	})
	if pHash.denseCells != 0 || pDense.denseCells != 601*4 || pSingle.denseCells != 601 ||
		pSingle.kern != kernSum || len(pDense.blankCell) == len(pSingle.blankCell) {
		t.Fatalf("plans have the wrong shapes: dense cells %d/%d/%d, kernel %d",
			pHash.denseCells, pDense.denseCells, pSingle.denseCells, pSingle.kern)
	}

	// run drives one plan's pipeline over the whole table into pt: the
	// filtered plan's own stage-1 bitmap, then stage 3.
	run := func(p *queryPlan, pt *partial) *Result {
		scans := []queryScan{loneScan(p, nil, p.n, 1, &SharingStats{}, nil)}
		pt.scanRangeStaged(0, p.n, &scans[0])
		releaseArtifacts(p.fd, nil, scans)
		return p.finalize(pt)
	}
	want := map[*queryPlan]*Result{}
	for _, p := range []*queryPlan{pHash, pDense, pSingle} {
		want[p] = run(p, newPartial(p))
		if len(want[p].Rows) == 0 {
			t.Fatal("empty reference result")
		}
	}

	// fresh checks that a rebound partial is indistinguishable from a
	// freshly constructed one: the same cell-store length over an
	// all-zero backing array, and no cells, keys or counts.
	fresh := func(label string, pt *partial, p *queryPlan) {
		t.Helper()
		f := newPartial(p)
		if pt.scanned != 0 || pt.matched != 0 || pt.cost != (obs.QueryCost{}) {
			t.Fatalf("%s: stale scan counters after rebind: %d/%d %+v", label, pt.scanned, pt.matched, pt.cost)
		}
		if len(pt.cells) != 0 || len(pt.members) != 0 || len(pt.touched) != 0 {
			t.Fatalf("%s: stale cells after rebind: %d hashed, %d members, %d touched",
				label, len(pt.cells), len(pt.members), len(pt.touched))
		}
		if len(pt.recs) != len(f.recs) || pt.stride != f.stride {
			t.Fatalf("%s: cell store has %d floats of stride %d, fresh %d of stride %d",
				label, len(pt.recs), pt.stride, len(f.recs), f.stride)
		}
		for i, v := range pt.recs[:cap(pt.recs)] {
			if math.Float64bits(v) != 0 {
				t.Fatalf("%s: stale float %v at %d of the cell store after rebind", label, v, i)
			}
		}
		for ck, b := range pt.seen[:cap(pt.seen)] {
			if b != 0 {
				t.Fatalf("%s: group key %d still marked in use after rebind", label, ck)
			}
		}
	}

	pt := &partial{}
	for step, p := range []*queryPlan{pHash, pDense, pSingle, pHash, pSingle, pDense, pHash} {
		// Rebind — the reset-on-get path — and check the partial is
		// indistinguishable from fresh before it scans anything.
		label := fmt.Sprintf("step %d", step)
		pt.rebind(p)
		fresh(label, pt, p)
		if got := run(p, pt); !sameResult(got, want[p]) {
			t.Fatalf("%s: reused partial diverged:\ngot  %+v\nwant %+v", label, got, want[p])
		}
	}

	// Worker partials, each over its own facts, merged in worker order.
	// Disjoint: a worker sees whole groups (by the first level's member),
	// so no two workers touch one cell; overlapping: facts interleave
	// across workers, so every cell is touched by several and merges.
	pool := []*partial{pt}
	for _, workers := range []int{1, 2, 4} {
		for len(pool) < workers {
			pool = append(pool, &partial{})
		}
		for _, disjoint := range []bool{true, false} {
			for _, p := range []*queryPlan{pDense, pSingle, pHash} {
				label := fmt.Sprintf("%d workers disjoint=%v plan %d cells", workers, disjoint, p.denseCells)
				masks := make([]*bitset.Set, workers)
				for w := range masks {
					masks[w] = bitset.New(p.n)
				}
				for i := 0; i < p.n; i++ {
					w := i % workers
					if disjoint {
						w = int(p.groups[0].decode(int32(i))) % workers
					}
					masks[w].Set(i)
				}
				for w := range workers {
					pool[w].rebind(p)
					fresh(label, pool[w], p)
					d := p.drive(nil)
					pool[w].scanFused(0, p.n, masks[w], &d)
				}
				for w := 1; w < workers; w++ {
					pool[0].merge(pool[w])
				}
				if got := p.finalize(pool[0]); !sameResult(got, want[p]) {
					t.Fatalf("%s: merged result diverged:\ngot  %+v\nwant %+v", label, got, want[p])
				}
			}
		}
	}
}

// sameResult reports whether two Results are equal with every float
// compared by its bits, so a −0 for a +0 or a lost NaN payload counts.
func sameResult(a, b *Result) bool {
	if len(a.Rows) != len(b.Rows) || !reflect.DeepEqual(a.GroupCols, b.GroupCols) ||
		!reflect.DeepEqual(a.AggCols, b.AggCols) || a.ScannedFacts != b.ScannedFacts ||
		a.MatchedFacts != b.MatchedFacts || a.Cost.CellsTouched != b.Cost.CellsTouched {
		return false
	}
	for r := range a.Rows {
		if !reflect.DeepEqual(a.Rows[r].Groups, b.Rows[r].Groups) || len(a.Rows[r].Values) != len(b.Rows[r].Values) {
			return false
		}
		for j, v := range a.Rows[r].Values {
			if math.Float64bits(v) != math.Float64bits(b.Rows[r].Values[j]) {
				return false
			}
		}
	}
	return true
}

// TestBatchPartialPoolReuseStats pins the pool round-trip through the
// public batch API: the second identical batch over a warm pool reports
// reused partials in its SharingStats. The reuse check is off under the
// race detector, which makes sync.Pool drop a random quarter of its Puts;
// the batches and the result comparison still run there.
func TestBatchPartialPoolReuseStats(t *testing.T) {
	c := testWarehouse(t)
	qs := []Query{
		{
			Fact:       "Sales",
			GroupBy:    []LevelRef{{"Store", "City"}},
			Aggregates: []MeasureAgg{{Measure: "UnitSales", Agg: AggSum}},
		},
		{
			Fact:       "Sales",
			GroupBy:    []LevelRef{{"Store", "State"}},
			Aggregates: []MeasureAgg{{Agg: AggCount}},
		},
	}
	res1, st1, err := c.ExecuteBatchOpt(qs, nil, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st1.PartialsAllocated == 0 {
		t.Fatalf("cold batch reported no allocated partials: %+v", st1)
	}
	res2, st2, err := c.ExecuteBatchOpt(qs, nil, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st2.PartialsReused == 0 && !raceEnabled {
		t.Errorf("warm batch reused no partials: %+v", st2)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("pooled rerun changed results")
	}
}

// TestSingleWorkerSharedArtifactsReturnToPools audits the workers=1
// staged-path release discipline end to end: after a sharing batch whose
// filter bitmap and key column materialized, both artifacts — and the
// scan's partials — must be back in their per-table pools; after a lone
// filtered query, its own stage-1 bitmap must be. The pool-identity
// checks are off under the race detector, which makes sync.Pool drop a
// random quarter of its Puts; the scans still run there.
func TestSingleWorkerSharedArtifactsReturnToPools(t *testing.T) {
	c := testWarehouse(t)
	fd := c.FactData("Sales")
	filt := []AttrFilter{{
		LevelRef: LevelRef{"Store", "City"}, Attr: "population",
		Op: OpGt, Value: 300000.0,
	}}
	// drain empties the pools, so a later Get can only return what the
	// next scan put back.
	drain := func() {
		for fd.maskPool.Get() != nil {
		}
		for fd.colPool.Get() != nil {
		}
		for fd.partialPool.Get() != nil {
		}
	}
	returned := func(label string, keyCol bool) {
		t.Helper()
		if raceEnabled {
			return
		}
		if v, ok := fd.maskPool.Get().(*bitset.Set); !ok || v.Len() != fd.n {
			t.Errorf("%s: filter bitmap was not returned to maskPool after the single-worker scan", label)
		}
		if v, ok := fd.colPool.Get().(*[]int32); keyCol && (!ok || len(*v) != fd.n) {
			t.Errorf("%s: key column was not returned to colPool after the single-worker scan", label)
		}
		if _, ok := fd.partialPool.Get().(*partial); !ok {
			t.Errorf("%s: partials were not returned to partialPool after finalize", label)
		}
	}

	// Two queries sharing filter set and grouping: combined visible mass
	// 2n > n, so both the set bitmap and the City key column materialize.
	qs := []Query{
		{
			Fact:       "Sales",
			GroupBy:    []LevelRef{{"Store", "City"}},
			Aggregates: []MeasureAgg{{Measure: "UnitSales", Agg: AggSum}},
			Filters:    filt,
		},
		{
			Fact:       "Sales",
			GroupBy:    []LevelRef{{"Store", "City"}},
			Aggregates: []MeasureAgg{{Agg: AggCount}},
			Filters:    filt,
		},
	}
	drain()
	_, st, err := c.ExecuteBatchOpt(qs, nil, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.DistinctFilterSets != 1 || st.DistinctGroupings != 1 {
		t.Fatalf("batch did not share as expected: %+v", st)
	}
	returned("sharing batch", true)

	// A lone filtered query: nothing is shared, so it fills its own bitmap.
	drain()
	res, err := c.ExecuteParallel(qs[0], nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.BitmapBytes != maskBytes(bitset.New(fd.n)) || res.MatchedFacts == 0 {
		t.Fatalf("lone filtered query built no bitmap of its own: %+v", res)
	}
	returned("lone filtered query", false)
}

// TestLoneStatsMatchesPlanner pins the lone-query shortcut of
// scanSharedStaged: what loneScan reports and builds without running the
// artifact planner must equal what buildArtifacts and planScan give the
// same batch of one — repeated predicates count once, and both routes
// hand a filtered query the same stage-1 mask from the one builder (with
// and without a view).
func TestLoneStatsMatchesPlanner(t *testing.T) {
	c := testWarehouse(t)
	pop := AttrFilter{LevelRef: LevelRef{"Store", "City"}, Attr: "population", Op: OpGt, Value: 300000.0}
	size := AttrFilter{LevelRef: LevelRef{"Store", "Store"}, Attr: "size", Op: OpGe, Value: 1.0}
	small := AttrFilter{LevelRef: LevelRef{"Store", "City"}, Attr: "population", Op: OpLt, Value: 300000.0}
	sum := []MeasureAgg{{Measure: "UnitSales", Agg: AggSum}}
	n := c.FactData("Sales").n
	for i, q := range []Query{
		{Fact: "Sales", Aggregates: sum},
		{Fact: "Sales", Aggregates: sum, GroupBy: []LevelRef{{"Store", "City"}}},
		{Fact: "Sales", Aggregates: sum, Filters: []AttrFilter{pop}},
		{Fact: "Sales", Aggregates: sum, Filters: []AttrFilter{pop, size, pop},
			GroupBy: []LevelRef{{"Store", "State"}, {"Time", "Month"}}},
		{Fact: "Sales", Aggregates: []MeasureAgg{{Agg: AggCount}, {Measure: "StoreCost", Agg: AggMax}},
			Filters: []AttrFilter{small, size}, GroupBy: []LevelRef{{"Time", "Day"}}},
	} {
		p, err := c.compile(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, view := range []*bitset.Set{nil, bitset.FromIndices(n, []int{0, 2, 3})} {
			got := loneStats(p)
			lone := []queryScan{loneScan(p, view, p.n, 1, &got, nil)}
			art, want := buildArtifacts([]*queryPlan{p}, []*bitset.Set{view}, 1, p.n, nil, nil)
			planned := []queryScan{planScan(p, view, art)}
			label := fmt.Sprintf("query %d view %v", i, view)
			if got != want {
				t.Errorf("%s: lone route stats = %+v, planner route = %+v", label, got, want)
			}
			if filtered := p.filterKey != ""; (got.BitmapBytesBuilt > 0) != filtered || lone[0].prefiltered != filtered {
				t.Errorf("%s: filtered=%v but built %d bitmap bytes, prefiltered=%v",
					label, filtered, got.BitmapBytesBuilt, lone[0].prefiltered)
			}
			if lone[0].prefiltered != planned[0].prefiltered || !lone[0].iter.Equal(planned[0].iter) {
				t.Errorf("%s: routes built different stage-1 masks: %v vs %v", label, lone[0].iter, planned[0].iter)
			}
			releaseArtifacts(p.fd, nil, lone)
			releaseArtifacts(p.fd, art, planned)
		}
	}
}

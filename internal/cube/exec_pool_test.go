package cube

// Pooled-partial hygiene and worker-clamp regression tests for the
// morsel-driven executor: partials recycle through FactData.partialPool
// with a full reset-on-get (rebind), and normalizeWorkers never sizes a
// pool past the chunk count, so a tiny table (or shard) at workers=8 no
// longer allocates seven partial tables that scan nothing.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"sdwp/internal/bitset"
	"sdwp/internal/geomd"
	"sdwp/internal/mdmodel"
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
// either group table, no stale scan counters, results identical to a
// freshly allocated partial's.
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
	// Dense composite key: unfiltered, three aggregates, a wider cell.
	pDense := compile(Query{
		Fact:    "F",
		GroupBy: []LevelRef{{"A", "a"}, {"B", "region"}},
		Aggregates: []MeasureAgg{
			{Measure: "n", Agg: AggMin},
			{Measure: "n", Agg: AggMax},
			{Measure: "m", Agg: AggAvg},
		},
	})
	// Single level, one aggregate: the kernel path.
	pSingle := compile(Query{
		Fact:       "F",
		GroupBy:    []LevelRef{{"B", "b"}},
		Aggregates: []MeasureAgg{{Measure: "m", Agg: AggSum}},
	})
	if pHash.denseCells != 0 || pDense.denseCells != 601*4 || pSingle.denseCells != 601 ||
		pSingle.kern != kernSum {
		t.Fatalf("plans have the wrong shapes: dense cells %d/%d/%d, kernel %d",
			pHash.denseCells, pDense.denseCells, pSingle.denseCells, pSingle.kern)
	}

	n := pHash.fd.n
	run := func(p *queryPlan, pt *partial) *Result {
		d := p.drive(nil)
		pt.scanFused(0, n, nil, &d)
		return p.finalize(pt)
	}
	want := map[*queryPlan]*Result{}
	for _, p := range []*queryPlan{pHash, pDense, pSingle} {
		want[p] = run(p, newPartial(p))
		if len(want[p].Rows) == 0 {
			t.Fatal("empty reference result")
		}
	}

	pt := &partial{}
	for step, p := range []*queryPlan{pHash, pDense, pSingle, pHash, pSingle, pDense, pHash} {
		// Rebind — the reset-on-get path — and check the partial is
		// indistinguishable from fresh before it scans anything.
		pt.rebind(p)
		if pt.scanned != 0 || pt.matched != 0 {
			t.Fatalf("step %d: stale scan counters after rebind: %d/%d", step, pt.scanned, pt.matched)
		}
		if len(pt.cells) != 0 || len(pt.members) != 0 || len(pt.recs) != len(p.blankCell) {
			t.Fatalf("step %d: stale cells after rebind: %d hashed, %d members, %d floats",
				step, len(pt.cells), len(pt.members), len(pt.recs))
		}
		if len(pt.dense) != p.denseCells {
			t.Fatalf("step %d: dense table has %d slots, want %d", step, len(pt.dense), p.denseCells)
		}
		for i, off := range pt.denseBuf[:cap(pt.denseBuf)] {
			if off != 0 {
				t.Fatalf("step %d: stale dense cell %d after rebind", step, i)
			}
		}
		if got := run(p, pt); !reflect.DeepEqual(got, want[p]) {
			t.Fatalf("step %d: reused partial diverged:\ngot  %+v\nwant %+v", step, got, want[p])
		}
	}
}

// TestBatchPartialPoolReuseStats pins the pool round-trip through the
// public batch API: the second identical batch over a warm pool reports
// reused partials in its SharingStats.
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
	if st2.PartialsReused == 0 {
		t.Errorf("warm batch reused no partials: %+v", st2)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("pooled rerun changed results")
	}
}

// TestSingleWorkerSharedArtifactsReturnToPools audits the workers=1
// staged-path release discipline end to end: after a sharing batch whose
// filter bitmap and key column materialized, both artifacts — and the
// scan's partials — must be back in their per-table pools.
func TestSingleWorkerSharedArtifactsReturnToPools(t *testing.T) {
	c := testWarehouse(t)
	filt := []AttrFilter{{
		LevelRef: LevelRef{"Store", "City"}, Attr: "population",
		Op: OpGt, Value: 300000.0,
	}}
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
	_, st, err := c.ExecuteBatchOpt(qs, nil, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.DistinctFilterSets != 1 || st.DistinctGroupings != 1 {
		t.Fatalf("batch did not share as expected: %+v", st)
	}
	fd := c.FactData("Sales")
	if v, ok := fd.maskPool.Get().(*bitset.Set); !ok || v.Len() != fd.n {
		t.Error("filter bitmap was not returned to maskPool after the single-worker scan")
	}
	if v, ok := fd.colPool.Get().(*[]int32); !ok || len(*v) != fd.n {
		t.Error("key column was not returned to colPool after the single-worker scan")
	}
	if _, ok := fd.partialPool.Get().(*partial); !ok {
		t.Error("partials were not returned to partialPool after finalize")
	}
}

// TestLoneStatsMatchesPlanner pins the lone-query shortcut of
// scanSharedStaged: the statistics it reports without running the
// artifact planner must equal what buildArtifacts reports for the same
// batch of one — repeated predicates count once, and nothing is built.
func TestLoneStatsMatchesPlanner(t *testing.T) {
	c := testWarehouse(t)
	pop := AttrFilter{LevelRef: LevelRef{"Store", "City"}, Attr: "population", Op: OpGt, Value: 300000.0}
	size := AttrFilter{LevelRef: LevelRef{"Store", "Store"}, Attr: "size", Op: OpGe, Value: 1.0}
	sum := []MeasureAgg{{Measure: "UnitSales", Agg: AggSum}}
	for i, q := range []Query{
		{Fact: "Sales", Aggregates: sum},
		{Fact: "Sales", Aggregates: sum, GroupBy: []LevelRef{{"Store", "City"}}},
		{Fact: "Sales", Aggregates: sum, Filters: []AttrFilter{pop}},
		{Fact: "Sales", Aggregates: sum, Filters: []AttrFilter{pop, size, pop},
			GroupBy: []LevelRef{{"Store", "State"}, {"Time", "Month"}}},
	} {
		p, err := c.compile(q)
		if err != nil {
			t.Fatal(err)
		}
		_, want := buildArtifacts([]*queryPlan{p}, []*bitset.Set{nil}, 1, p.n, BatchOptions{}, nil, nil)
		if got := loneStats(p); got != want {
			t.Errorf("query %d: loneStats = %+v, buildArtifacts = %+v", i, got, want)
		}
	}
}

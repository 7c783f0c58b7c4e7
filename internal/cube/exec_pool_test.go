package cube

// Pooled-partial hygiene tests for the executor: partials recycle through
// FactData.partialPool with a full reset-on-get (rebind).

import (
	"fmt"
	"math"
	"reflect"
	"runtime/debug"
	"testing"

	"sdwp/internal/bitset"
	"sdwp/internal/geomd"
	"sdwp/internal/mdmodel"
	"sdwp/internal/obs"
)

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
// identical to a freshly allocated partial's. It then merges 1, 2 and 4
// partials over disjoint and overlapping touched sets, as MergeFinalize
// folds sibling shards', and pins that the merged results stay
// bit-identical.
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

	// drive runs one plan's pipeline over the whole table into pt through
	// the lone route (loneScan, foldScan): a filtered plan fills its own
	// stage-1 bitmap with view ANDed in, the scan counts are taken once,
	// and stage 3 folds off the plan's mask — the kernel plan over a view
	// in a mask walk of one user.
	drive := func(p *queryPlan, pt *partial, view *bitset.Set) {
		qs, own := loneScan(p, view, p.n, &SharingStats{}, nil)
		foldScan([]*partial{pt}, []queryScan{qs}, p.n)
		if own != nil {
			releaseArtifacts(p.fd, nil, []*bitset.Set{own})
		}
	}
	run := func(p *queryPlan, pt *partial) *Result {
		drive(p, pt, nil)
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

	// Partials, each over its own facts, merged in order (as sibling
	// shards' are). Disjoint: a partial sees whole groups (by the first
	// level's member), so no two touch one cell; overlapping: facts
	// interleave across partials, so every cell is touched by several and
	// merges.
	pool := []*partial{pt}
	for _, parts := range []int{1, 2, 4} {
		for len(pool) < parts {
			pool = append(pool, &partial{})
		}
		for _, disjoint := range []bool{true, false} {
			for _, p := range []*queryPlan{pDense, pSingle, pHash} {
				label := fmt.Sprintf("%d partials disjoint=%v plan %d cells", parts, disjoint, p.denseCells)
				masks := make([]*bitset.Set, parts)
				for w := range masks {
					masks[w] = bitset.New(p.n)
				}
				for i := 0; i < p.n; i++ {
					w := i % parts
					if disjoint {
						w = int(p.groups[0].decode(int32(i))) % parts
					}
					masks[w].Set(i)
				}
				for w := range parts {
					pool[w].rebind(p)
					fresh(label, pool[w], p)
					drive(p, pool[w], masks[w])
				}
				for w := 1; w < parts; w++ {
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
	res1, st1, err := ExecuteBatchStats(c, qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st1.PartialsAllocated == 0 {
		t.Fatalf("cold batch reported no allocated partials: %+v", st1)
	}
	res2, st2, err := ExecuteBatchStats(c, qs, nil)
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

// TestSingleWorkerSharedArtifactsReturnToPools audits the staged-path
// release discipline end to end: after a sharing batch whose
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
			t.Errorf("%s: filter bitmap was not returned to maskPool after the scan", label)
		}
		if v, ok := fd.colPool.Get().(*[]int32); keyCol && (!ok || len(*v) != fd.n) {
			t.Errorf("%s: key column was not returned to colPool after the scan", label)
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
	_, st, err := ExecuteBatchStats(c, qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.DistinctFilterSets != 1 || st.DistinctGroupings != 1 {
		t.Fatalf("batch did not share as expected: %+v", st)
	}
	returned("sharing batch", true)

	// A lone filtered query: nothing is shared, so it fills its own bitmap.
	drain()
	res, err := c.Execute(qs[0], nil)
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
// artifact planner must equal what buildArtifacts and planScans give the
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
			lone, loneOwn := loneScan(p, view, p.n, &got, nil)
			plans, masks := []*queryPlan{p}, []*bitset.Set{view}
			art, visible, want := buildArtifacts(plans, masks, p.n, nil, nil)
			planned := make([]queryScan, 1)
			own := planScans(plans, masks, visible, p.n, art, planned)
			label := fmt.Sprintf("query %d view %v", i, view)
			if got != want {
				t.Errorf("%s: lone route stats = %+v, planner route = %+v", label, got, want)
			}
			if filtered := p.filterKey != ""; (got.BitmapBytesBuilt > 0) != filtered || filtered != (loneOwn != nil) || !lone.prefiltered {
				t.Errorf("%s: filtered=%v but built %d bitmap bytes, own mask %v, prefiltered=%v",
					label, filtered, got.BitmapBytesBuilt, loneOwn != nil, lone.prefiltered)
			}
			if lone.prefiltered != planned[0].prefiltered || !lone.iter.Equal(planned[0].iter) {
				t.Errorf("%s: routes built different stage-1 masks: %v vs %v", label, lone.iter, planned[0].iter)
			}
			if lone.scanned != planned[0].scanned || lone.matched != planned[0].matched {
				t.Errorf("%s: routes counted %d/%d vs %d/%d scanned/matched facts",
					label, lone.scanned, lone.matched, planned[0].scanned, planned[0].matched)
			}
			if loneOwn != nil {
				releaseArtifacts(p.fd, nil, []*bitset.Set{loneOwn})
			}
			releaseArtifacts(p.fd, art, own)
		}
	}
}

// TestSharedIntersectionReleasedOnce pins the ownership of stage 3's
// shared masks: in a batch where several queries iterate one set mask ∩
// view, the scan builds that intersection once per (filter set, view)
// pair, and every mask buffer it took reaches maskPool exactly once after
// the scan. A second Put would hand one buffer to two later scans. GC is
// off so the pool keeps what the scan put back; the pool checks are off
// under the race detector, which makes sync.Pool drop a random quarter of
// its Puts (the batch still runs there).
func TestSharedIntersectionReleasedOnce(t *testing.T) {
	c := wideWarehouse(t)
	fd := c.FactData("F")
	heavy := []AttrFilter{{LevelRef: LevelRef{"A", "a"}, Attr: "weight", Op: OpGt, Value: 2.0}}
	light := []AttrFilter{{LevelRef: LevelRef{"A", "a"}, Attr: "weight", Op: OpLe, Value: 1.0}}
	vb := NewView(c).Builder()
	if err := vb.SelectMember("B", "region", 0); err != nil {
		t.Fatal(err)
	}
	view := vb.View()
	sum := []MeasureAgg{{Measure: "m", Agg: AggSum}}
	two := []MeasureAgg{{Measure: "m", Agg: AggSum}, {Agg: AggCount}}
	byA := []LevelRef{{"A", "a"}}
	byRegion := []LevelRef{{"B", "region"}}
	// Five users of (heavy, view) — kernel and generic plans — two of
	// (heavy, no view) and two of (light, view): two intersections.
	var qs []Query
	var vs []*View
	add := func(f []AttrFilter, v *View, aggs []MeasureAgg, by []LevelRef) {
		qs = append(qs, Query{Fact: "F", GroupBy: by, Aggregates: aggs, Filters: f})
		vs = append(vs, v)
	}
	add(heavy, view, sum, byA)
	add(heavy, view, sum, byRegion)
	add(heavy, view, []MeasureAgg{{Agg: AggCount}}, byA)
	add(heavy, view, two, byA)
	add(heavy, view, two, nil)
	add(heavy, nil, sum, byA)
	add(heavy, nil, two, byRegion)
	add(light, view, sum, byA)
	add(light, view, two, byRegion)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	view.Materialize("F") // the view's mask is the table cache's, never pooled
	for fd.maskPool.Get() != nil {
	}
	res, _, err := ExecuteBatchStats(c, qs, vs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if res[i].MatchedFacts == 0 {
			t.Fatalf("query %d matched no facts: the batch does not exercise the walk", i)
		}
	}
	if raceEnabled {
		return
	}
	puts := map[*bitset.Set]int{}
	for {
		m, ok := fd.maskPool.Get().(*bitset.Set)
		if !ok {
			break
		}
		puts[m]++
	}
	for m, k := range puts {
		if k > 1 {
			t.Errorf("mask buffer %p reached maskPool %d times", m, k)
		}
	}
	// The two set masks (offered once to a cold cache, whose doorkeeper
	// turns them away) and one intersection per (set, view) pair.
	if len(puts) != 4 {
		t.Errorf("scan returned %d distinct mask buffers to maskPool, want 4 (2 set masks, 2 intersections)", len(puts))
	}
}

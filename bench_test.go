package sdwp

// Benchmarks of the paper's experiments (X1–X3, C1–C6) and of the hot
// paths behind them. cmd/experiments prints the human-readable tables and
// TestPaperClaims (internal/core) asserts the claims as work counts; these
// benches make the timings reproducible via `go test -bench`.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"sdwp/internal/cube"
	"sdwp/internal/export"
	"sdwp/internal/geoidx"
	"sdwp/internal/geom"
	"sdwp/internal/obs"
	"sdwp/internal/prml"
	"sdwp/internal/qsched"
	"sdwp/internal/webapi"
)

// benchEnv lazily builds one standard scenario per fact count and caches it
// across benchmarks (dataset generation dominates otherwise).
type benchEnv struct {
	engine *Engine
	ds     *Dataset
}

var (
	benchMu   sync.Mutex
	benchEnvs = map[int]*benchEnv{}
)

func getBenchEnv(b *testing.B, facts int) *benchEnv {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if e, ok := benchEnvs[facts]; ok {
		return e
	}
	cfg := DefaultDataConfig()
	cfg.Stores = 2000
	cfg.Sales = facts
	ds, err := GenerateData(cfg)
	if err != nil {
		b.Fatal(err)
	}
	users, err := NewSalesUserStore(map[string]string{
		"alice": "RegionalSalesManager",
		"bob":   "Accountant",
	})
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(ds.Cube, users, EngineOptions{})
	e.SetParam("threshold", Number(2))
	if _, err := e.AddRules(PaperRules); err != nil {
		b.Fatal(err)
	}
	env := &benchEnv{engine: e, ds: ds}
	benchEnvs[facts] = env
	return env
}

// coldSeq numbers freshConst's calls across every benchmark run of the
// process.
var coldSeq atomic.Int64

// freshConst returns a filter constant in (base, base+1) that no earlier
// call returned. Over a whole-number attribute (City.population,
// Customer.age) it selects exactly what base does, but its fingerprint is
// new, so the table's artifact cache holds nothing for it and the doorkeeper
// never admits it: the cold-dashboard shape — fresh filter values over hot
// group-bys — which keeps a benchmark pricing filter-bitmap builds.
func freshConst(base float64) float64 {
	return base + float64(coldSeq.Add(1))/(1<<24)
}

var familyQuery = Query{
	Fact:       "Sales",
	GroupBy:    []LevelRef{{Dimension: "Product", Level: "Family"}},
	Aggregates: []MeasureAgg{{Measure: "UnitSales", Agg: SUM}},
}

// BenchmarkX1SchemaRule measures Example 5.1: applying the addSpatiality
// schema rule during session start (schema clone + two schema actions).
func BenchmarkX1SchemaRule(b *testing.B) {
	env := getBenchEnv(b, 20000)
	loc := env.ds.CityLocs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := env.engine.StartSession("alice", loc)
		if err != nil {
			b.Fatal(err)
		}
		if err := env.engine.EndSession(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX2InstanceRule measures Example 5.2's store sweep in isolation
// across store counts: the Foreach + Distance < 5km rule evaluation.
func BenchmarkX2InstanceRule(b *testing.B) {
	for _, stores := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("stores=%d", stores), func(b *testing.B) {
			cfg := DefaultDataConfig()
			cfg.Stores = stores
			cfg.Sales = 1000 // facts irrelevant here
			ds, err := GenerateData(cfg)
			if err != nil {
				b.Fatal(err)
			}
			users, err := NewSalesUserStore(map[string]string{"u": "RegionalSalesManager"})
			if err != nil {
				b.Fatal(err)
			}
			e := NewEngine(ds.Cube, users, EngineOptions{})
			// Only the instance rule, isolated.
			if _, err := e.AddRules(`Rule:5kmStores When SessionStart do
  Foreach s in (GeoMD.Store)
    If (Distance(s.geometry, SUS.DecisionMaker.dm2session.s2location.geometry) < 5km) then
      SelectInstance(s)
    endIf
  endForeach
endWhen`); err != nil {
				b.Fatal(err)
			}
			loc := ds.CityLocs[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := e.StartSession("u", loc)
				if err != nil {
					b.Fatal(err)
				}
				if err := e.EndSession(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkX3InterestTracking measures Example 5.3's tracking path: a
// spatial selection over cities plus the SpatialSelection rule firing.
func BenchmarkX3InterestTracking(b *testing.B) {
	env := getBenchEnv(b, 20000)
	s, err := env.engine.StartSession("alice", env.ds.CityLocs[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SpatialSelect("GeoMD.Store.City",
			"Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkC1PersonalizedVsFullScan is experiment C1: the same OLAP query
// through a personalized view vs the whole warehouse.
func BenchmarkC1PersonalizedVsFullScan(b *testing.B) {
	for _, facts := range []int{20000, 200000} {
		env := getBenchEnv(b, facts)
		s, err := env.engine.StartSession("alice", env.ds.CityLocs[7])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("facts=%d/personalized", facts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Query(familyQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("facts=%d/baseline", facts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.QueryBaseline(familyQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkC2PreselectVsPerQuery is experiment C2: a 10-query analysis
// session where selection happens once at login vs re-running the spatial
// filter for every query.
func BenchmarkC2PreselectVsPerQuery(b *testing.B) {
	env := getBenchEnv(b, 200000)
	loc := env.ds.CityLocs[7]
	const queriesPerSession = 10
	b.Run("preselected", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := env.engine.StartSession("alice", loc)
			if err != nil {
				b.Fatal(err)
			}
			for q := 0; q < queriesPerSession; q++ {
				if _, err := s.Query(familyQuery); err != nil {
					b.Fatal(err)
				}
			}
			if err := env.engine.EndSession(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("perquery", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for q := 0; q < queriesPerSession; q++ {
				s, err := env.engine.StartSession("alice", loc)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Query(familyQuery); err != nil {
					b.Fatal(err)
				}
				if err := env.engine.EndSession(s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkC3PRMLParse is experiment C3's parsing cost: the paper's four
// rules through lexer, parser and classifier.
func BenchmarkC3PRMLParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rules, err := ParseRules(PaperRules)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rules {
			_ = prml.Classify(r)
		}
	}
}

// BenchmarkC3SessionStart is experiment C3's end-to-end login cost with the
// full paper rule set.
func BenchmarkC3SessionStart(b *testing.B) {
	env := getBenchEnv(b, 20000)
	loc := env.ds.CityLocs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := env.engine.StartSession("bob", loc) // bob: no schema actions
		if err != nil {
			b.Fatal(err)
		}
		if err := env.engine.EndSession(s); err != nil {
			b.Fatal(err)
		}
	}
}

// interestedEngine is a private engine over env's cube whose "alice" has
// selected airport cities three times — the personalize workload's
// priming — so her airport-city degree is past the threshold of 2 and
// every login runs TrainAirportCity. It has its own user store, so the
// priming leaves the shared engine's alice alone.
func interestedEngine(b *testing.B, env *benchEnv) *Engine {
	b.Helper()
	users, err := NewSalesUserStore(map[string]string{"alice": "RegionalSalesManager"})
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(env.ds.Cube, users, EngineOptions{})
	b.Cleanup(e.Close)
	e.SetParam("threshold", Number(2))
	if _, err := e.AddRules(PaperRules); err != nil {
		b.Fatal(err)
	}
	s, err := e.StartSession("alice", env.ds.CityLocs[0])
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.SpatialSelect("GeoMD.Store.City",
			"Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km"); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.EndSession(s); err != nil {
		b.Fatal(err)
	}
	if d := s.User().Nav("dm2airportcity").GetNumber("degree"); d <= 2 {
		b.Fatalf("priming left alice's airport-city degree at %v", d)
	}
	return e
}

// BenchmarkSessionStartInterested is the login the personalize workload
// times, at its 400 000 facts: alice, primed past the threshold, so
// addSpatiality, 5kmStores (the radius plan) and TrainAirportCity run, and
// the view materializes from the Sales postings. TrainAirportCity's triple
// Foreach (12 trains x 60 cities x 12 airports) reads only warehouse data,
// so after the first login it replays its recorded selections: this is the
// warm path. allocs/op is gated (< 300: a login allocates per rule and per
// selection, not per loop iteration).
func BenchmarkSessionStartInterested(b *testing.B) {
	env := getBenchEnv(b, 400000)
	e := interestedEngine(b, env)
	loc := env.ds.CityLocs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := e.StartSession("alice", loc)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.EndSession(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionStartColdRules is BenchmarkSessionStartInterested with
// TrainAirportCity's loop run in full on every login: before each one, a
// city is given its own geometry again, which moves the warehouse's data
// generation (and so invalidates the loop's memo) without touching fact
// versions, so the view still materializes from the built postings.
// allocs/op is gated (< 1 000: compiled plans allocate per login, not per
// loop iteration).
func BenchmarkSessionStartColdRules(b *testing.B) {
	env := getBenchEnv(b, 400000)
	e := interestedEngine(b, env)
	loc := env.ds.CityLocs[0]
	city := env.ds.Cube.Dimension("Store").Level("City").Geometry(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.ds.Cube.SetMemberGeometry("Store", "City", 0, city); err != nil {
			b.Fatal(err)
		}
		s, err := e.StartSession("alice", loc)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.EndSession(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewMaterialize builds a personalized view's Sales mask at
// 400 000 facts from the member→facts postings: "session" is an
// interested login after one airport-city selection (store and city masks
// on the Store dimension), "threeDims" adds a product-family and a
// customer-segment restriction and direct fact selections, both built
// through a ViewBuilder. Each iteration materializes the view after
// rewriting one customer's age to its own value (untimed), which moves
// the fact table's version the way an append does but leaves the
// postings current, so the mask is a real postings-driven build.
// "equalView" skips the rewrite and materializes another view, built
// member by member with the session's selections: it has the session's
// content key, so its mask is the artifact-cache entry the session's
// build left.
func BenchmarkViewMaterialize(b *testing.B) {
	env := getBenchEnv(b, 400000)
	e := interestedEngine(b, env)
	s, err := e.StartSession("alice", env.ds.CityLocs[0])
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.SpatialSelect("GeoMD.Store.City",
		"Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km"); err != nil {
		b.Fatal(err)
	}
	sv := s.View()
	wb := sv.Builder()
	for _, sel := range []struct {
		dim, level string
		member     int32
	}{{"Product", "Family", 0}, {"Product", "Family", 2}, {"Customer", "Segment", 1}} {
		if err := wb.SelectMember(sel.dim, sel.level, sel.member); err != nil {
			b.Fatal(err)
		}
	}
	for i := int32(0); i < 400000; i += 7 {
		if err := wb.SelectFact("Sales", i); err != nil {
			b.Fatal(err)
		}
	}
	eb := cube.NewView(env.ds.Cube).Builder()
	for _, dim := range env.ds.Cube.Schema().MD.Dimensions {
		for _, l := range dim.Levels {
			sv.LevelMask(dim.Name, l.Name).ForEach(func(m int) bool {
				if err := eb.SelectMember(dim.Name, l.Name, int32(m)); err != nil {
					b.Fatal(err)
				}
				return true
			})
		}
	}
	equal := eb.View()
	if equal == sv || equal.Key() != sv.Key() {
		b.Fatal("the member-by-member view is not an equal, separate view")
	}
	age, _ := env.ds.Cube.Dimension("Customer").Level("Customer").Attr("age", 0)
	for _, bc := range []struct {
		name  string
		v     *View
		build bool
	}{{"session", sv, true}, {"threeDims", wb.View(), true}, {"equalView", equal, false}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bc.build {
					b.StopTimer()
					if err := env.ds.Cube.SetMemberAttr("Customer", "Customer", 0, "age", age); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if bc.v.Materialize("Sales") == nil {
					b.Fatal("view left Sales unrestricted")
				}
			}
		})
	}
}

// BenchmarkSessionGeoJSON renders the map export the personalize workload
// serves at its 400 000 facts: an interested login's 2 000 stores,
// airports and train lines. "all" and "selected" copy the tables' cached
// feature text (selected-only skips the unselected stores); "simplify"
// renders every feature through the appenders. The output buffer is reused
// as the server's pooled one is, so allocs/op is gated (< 20: an export
// allocates per call, not per feature).
func BenchmarkSessionGeoJSON(b *testing.B) {
	env := getBenchEnv(b, 400000)
	e := interestedEngine(b, env)
	s, err := e.StartSession("alice", env.ds.CityLocs[0])
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		opts export.Options
	}{{"all", export.Options{}}, {"selected", export.Options{SelectedOnly: true}}, {"simplify", export.Options{SimplifyTolerance: 0.05}}} {
		b.Run(bc.name, func(b *testing.B) {
			buf, err := export.AppendSession(nil, s, bc.opts) // fills the text caches
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, err = export.AppendSession(buf[:0], s, bc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionSVG renders the map.svg the personalize workload serves
// at its 400 000 facts: an interested login's 2 000 stores, airports and
// train lines, drawn by "default" as they are and by "simplify" through
// the line simplifier. The output buffer is reused as the server's pooled
// one is, so allocs/op is gated (< 20: a map allocates per call, not per
// feature).
func BenchmarkSessionSVG(b *testing.B) {
	env := getBenchEnv(b, 400000)
	e := interestedEngine(b, env)
	s, err := e.StartSession("alice", env.ds.CityLocs[0])
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		opts export.SVGOptions
	}{{"default", export.SVGOptions{}}, {"simplify", export.SVGOptions{SimplifyTolerance: 0.05}}} {
		b.Run(bc.name, func(b *testing.B) {
			buf, err := export.AppendSessionSVG(nil, s, bc.opts)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, err = export.AppendSessionSVG(buf[:0], s, bc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkC4RTreeVsLinear is experiment C4: radius queries through the
// R-tree vs the linear baseline.
func BenchmarkC4RTreeVsLinear(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		rng := rand.New(rand.NewSource(42))
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*12-9, rng.Float64()*7+36)
		}
		center := geom.Pt(-3.7, 40.4)
		rt := geoidx.NewPointIndex(pts)
		lin := geoidx.NewLinearPointIndex(pts)
		b.Run(fmt.Sprintf("n=%d/rtree", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rt.WithinKm(center, 25, func(int32) bool { return true })
			}
		})
		b.Run(fmt.Sprintf("n=%d/linear", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lin.WithinKm(center, 25, func(int32) bool { return true })
			}
		})
	}
}

// BenchmarkC5CubeRollup is experiment C5: aggregation grouped at each level
// of the Store hierarchy.
func BenchmarkC5CubeRollup(b *testing.B) {
	env := getBenchEnv(b, 200000)
	for _, level := range []string{"Store", "City", "State", "Country"} {
		q := Query{
			Fact:       "Sales",
			GroupBy:    []LevelRef{{Dimension: "Store", Level: level}},
			Aggregates: []MeasureAgg{{Measure: "UnitSales", Agg: SUM}},
		}
		b.Run("level="+level, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := env.ds.Cube.Execute(q, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSharedScanBatch measures the shared-scan batch API: eight
// aggregate queries over the same fact table answered one by one vs in one
// shared scan (GLADE-style multi-query optimization).
func BenchmarkSharedScanBatch(b *testing.B) {
	env := getBenchEnv(b, 200000)
	var qs []Query
	for _, level := range []string{"Store", "City", "State", "Country"} {
		for _, measure := range []string{"UnitSales", "StoreSales"} {
			qs = append(qs, Query{
				Fact:       "Sales",
				GroupBy:    []LevelRef{{Dimension: "Store", Level: level}},
				Aggregates: []MeasureAgg{{Measure: measure, Agg: SUM}},
			})
		}
	}
	b.Run("individual", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				if _, err := env.ds.Cube.Execute(q, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch/workers=1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := executeBatch(env.ds.Cube, qs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSharedSubexprBatch measures cross-query subexpression sharing
// in the batch executor: 16 queries over one fact table sharing one
// filter set and four groupings — the "many personalized variants of one
// dashboard" shape — answered with one filter bitmap and one key column
// per distinct artifact, shared by the whole batch. Each iteration takes a
// fresh filter constant (freshConst), so the filter bitmap is built every
// scan; the key columns of the four hot groupings are served warm from
// the table's artifact cache.
func BenchmarkSharedSubexprBatch(b *testing.B) {
	env := getBenchEnv(b, 200000)
	var qs []Query
	for _, level := range []string{"Store", "City", "State", "Country"} {
		for _, measure := range []string{"UnitSales", "StoreSales"} {
			for _, limit := range []int{0, 5} {
				qs = append(qs, Query{
					Fact:       "Sales",
					GroupBy:    []LevelRef{{Dimension: "Store", Level: level}},
					Aggregates: []MeasureAgg{{Measure: measure, Agg: SUM}},
					Limit:      limit,
				})
			}
		}
	}
	b.Run("workers=1/shared=true", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			setFilters(qs, []AttrFilter{{
				LevelRef: LevelRef{Dimension: "Store", Level: "City"},
				Attr:     "population", Op: OpGt, Value: freshConst(100000),
			}})
			if _, _, err := executeBatch(env.ds.Cube, qs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// executeBatch compiles qs and runs them as one shared batch over the
// whole table, returning the scan's sharing statistics too.
func executeBatch(c *Cube, qs []Query) ([]*Result, SharingStats, error) {
	cqs := make([]*cube.CompiledQuery, len(qs))
	for i, q := range qs {
		cq, err := c.Compile(q)
		if err != nil {
			return nil, SharingStats{}, err
		}
		cqs[i] = cq
	}
	return c.ExecuteBatchCompiledOpt(cqs, nil, BatchOptions{})
}

// setFilters gives every query of qs the filter set fs.
func setFilters(qs []Query, fs []AttrFilter) {
	for k := range qs {
		qs[k].Filters = fs
	}
}

// BenchmarkBatchPartialPooling measures the pooled-partial discipline of
// the executor: the same 16-query sharing batch as
// BenchmarkSharedSubexprBatch, re-run on a warm per-table pool so every
// scan should take its partial tables from FactData.partialPool instead
// of allocating them. poolhit/op is reused/(reused+allocated) across the
// run — the steady-state pool hit rate (1.0 means no partial-table or
// accumulator allocation after warm-up); allocs/op tracks what remains.
func BenchmarkBatchPartialPooling(b *testing.B) {
	env := getBenchEnv(b, 200000)
	filters := []AttrFilter{{
		LevelRef: LevelRef{Dimension: "Store", Level: "City"},
		Attr:     "population", Op: OpGt, Value: float64(100000),
	}}
	var qs []Query
	for _, level := range []string{"Store", "City", "State", "Country"} {
		for _, measure := range []string{"UnitSales", "StoreSales"} {
			for _, limit := range []int{0, 5} {
				qs = append(qs, Query{
					Fact:       "Sales",
					GroupBy:    []LevelRef{{Dimension: "Store", Level: level}},
					Aggregates: []MeasureAgg{{Measure: measure, Agg: SUM}},
					Filters:    filters,
					Limit:      limit,
				})
			}
		}
	}
	b.Run("workers=1", func(b *testing.B) {
		if _, _, err := executeBatch(env.ds.Cube, qs); err != nil {
			b.Fatal(err) // warm the pool outside the timer
		}
		b.ReportAllocs()
		b.ResetTimer()
		var reused, allocated int
		for i := 0; i < b.N; i++ {
			_, st, err := executeBatch(env.ds.Cube, qs)
			if err != nil {
				b.Fatal(err)
			}
			reused += st.PartialsReused
			allocated += st.PartialsAllocated
		}
		if total := reused + allocated; total > 0 {
			b.ReportMetric(float64(reused)/float64(total), "poolhit/op")
		}
	})
}

// BenchmarkPerFilterSharing measures per-predicate bitmap sharing with
// AND-composition: a 16-query batch whose filter sets are
// overlapping-but-unequal — six pairwise conjunctions drawn from a pool
// of four predicates — so the executor evaluates each of the four
// predicates once and AND-composes the six set masks from the bitmaps.
// Each iteration takes fresh constants for the three numeric predicates
// (freshConst), so their bitmaps and all six set masks are built every
// scan; the string predicate's bitmap is served warm from the table's
// artifact cache.
func BenchmarkPerFilterSharing(b *testing.B) {
	env := getBenchEnv(b, 200000)
	mkF := func(dim, level, attr string, op FilterOp, v any) AttrFilter {
		return AttrFilter{LevelRef: LevelRef{Dimension: dim, Level: level}, Attr: attr, Op: op, Value: v}
	}
	levels := []string{"Store", "City", "State", "Country"}
	measures := []string{"UnitSales", "StoreSales"}
	qs := make([]Query, 16)
	for k := range qs {
		qs[k] = Query{
			Fact:       "Sales",
			GroupBy:    []LevelRef{{Dimension: "Store", Level: levels[k%len(levels)]}},
			Aggregates: []MeasureAgg{{Measure: measures[k%len(measures)], Agg: SUM}},
		}
	}
	// fill gives the batch all six pairwise sets of a fresh predicate
	// pool, cycled with levels/measures over the 16 queries.
	fill := func() {
		pool := []AttrFilter{
			mkF("Store", "City", "population", OpGt, freshConst(100000)),
			mkF("Store", "City", "population", OpGt, freshConst(1000000)),
			mkF("Customer", "Customer", "age", OpLe, freshConst(40)),
			mkF("Product", "Product", "brand", OpNe, "Brand05"),
		}
		var sets [][]AttrFilter
		for i := 0; i < len(pool); i++ {
			for j := i + 1; j < len(pool); j++ {
				sets = append(sets, []AttrFilter{pool[i], pool[j]})
			}
		}
		for k := range qs {
			qs[k].Filters = sets[k%len(sets)]
		}
	}
	b.Run("workers=1/perfilter=true", func(b *testing.B) {
		var stats SharingStats
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fill()
			var err error
			_, stats, err = executeBatch(env.ds.Cube, qs)
			if err != nil {
				b.Fatal(err)
			}
		}
		if stats.DistinctPredicates > 0 {
			b.ReportMetric(float64(stats.FilterPredicates)/float64(stats.DistinctPredicates),
				"preds/mask")
			b.ReportMetric(float64(stats.ComposedMasks), "composed")
		}
	})
}

// BenchmarkCoalescedConcurrentQueries measures the query scheduler under
// the workload it exists for: many goroutines issuing concurrent
// personalized single queries, coalesced into shared scans. It reports
// queries-per-scan — the scheduler's whole point is making that > 1.
func BenchmarkCoalescedConcurrentQueries(b *testing.B) {
	env := getBenchEnv(b, 200000)
	const concurrentSessions = 8
	b.Run("coalesced", func(b *testing.B) {
		// One scan slot: every client query that arrives while a scan
		// runs queues behind it and coalesces into the next one.
		opts := EngineOptions{MaxInFlightScans: 1}
		users, err := NewSalesUserStore(map[string]string{"alice": "RegionalSalesManager"})
		if err != nil {
			b.Fatal(err)
		}
		e := NewEngine(env.ds.Cube, users, opts)
		if _, err := e.AddRules(`Rule:5kmStores When SessionStart do
  Foreach s in (GeoMD.Store)
    If (Distance(s.geometry, SUS.DecisionMaker.dm2session.s2location.geometry) < 5km) then
      SelectInstance(s)
    endIf
  endForeach
endWhen`); err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		sessions := make([]*Session, concurrentSessions)
		for i := range sessions {
			s, err := e.StartSession("alice", env.ds.CityLocs[i%len(env.ds.CityLocs)])
			if err != nil {
				b.Fatal(err)
			}
			sessions[i] = s
		}
		var next atomic.Int64
		b.ReportAllocs()
		// Several client goroutines per core: coalescing serves
		// concurrent *clients*, not cores, and must show up even on a
		// single-CPU host.
		b.SetParallelism(concurrentSessions)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			s := sessions[int(next.Add(1))%len(sessions)]
			for pb.Next() {
				if _, err := s.Query(familyQuery); err != nil {
					// b.Fatal must not run off the benchmark goroutine.
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		if st := e.SchedulerStats(); st.FactScans > 0 {
			b.ReportMetric(st.CoalesceRatio, "queries/scan")
		}
	})
}

// BenchmarkResultCacheHit measures the content-keyed result cache: the same
// personalized query repeated against an unchanged view must cost a map
// lookup, not a fact scan.
func BenchmarkResultCacheHit(b *testing.B) {
	env := getBenchEnv(b, 200000)
	users, err := NewSalesUserStore(map[string]string{"alice": "RegionalSalesManager"})
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(env.ds.Cube, users, EngineOptions{ResultCacheBytes: 32 << 20})
	defer e.Close()
	s, err := e.StartSession("alice", env.ds.CityLocs[0])
	if err != nil {
		b.Fatal(err)
	}
	// Prime twice: the admission doorkeeper only caches a fingerprint's
	// result from its second request on.
	for i := 0; i < 2; i++ {
		if _, err := s.Query(familyQuery); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(familyQuery); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := e.SchedulerStats()
	if st.CacheHits < int64(b.N) {
		b.Fatalf("cache hits = %d, want >= %d", st.CacheHits, b.N)
	}
}

// BenchmarkAblationRuleOptimizer measures the DESIGN.md §6 ablation of the
// radius-query rule plan: Example 5.2's rule executed through the R-tree
// fast path vs the generic compiled loop.
func BenchmarkAblationRuleOptimizer(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "optimized"
		if disable {
			name = "interpreted"
		}
		for _, stores := range []int{10000, 100000} {
			b.Run(fmt.Sprintf("%s/stores=%d", name, stores), func(b *testing.B) {
				cfg := DefaultDataConfig()
				cfg.Stores = stores
				cfg.Sales = 1000
				ds, err := GenerateData(cfg)
				if err != nil {
					b.Fatal(err)
				}
				users, err := NewSalesUserStore(map[string]string{"u": "RegionalSalesManager"})
				if err != nil {
					b.Fatal(err)
				}
				e := NewEngine(ds.Cube, users, EngineOptions{DisableRuleOptimizer: disable})
				if _, err := e.AddRules(`Rule:near When SessionStart do
  Foreach s in (GeoMD.Store)
    If (Distance(s.geometry, SUS.DecisionMaker.dm2session.s2location.geometry) < 5km) then
      SelectInstance(s)
    endIf
  endForeach
endWhen`); err != nil {
					b.Fatal(err)
				}
				loc := ds.CityLocs[0]
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s, err := e.StartSession("u", loc)
					if err != nil {
						b.Fatal(err)
					}
					if err := e.EndSession(s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationGeodeticVsPlanar measures the ablation of DESIGN.md §6:
// the geodetic (haversine) Distance operator vs the naive planar-degrees
// one, over the Example 5.2 rule evaluation.
func BenchmarkAblationGeodeticVsPlanar(b *testing.B) {
	for _, planar := range []bool{false, true} {
		name := "geodetic"
		if planar {
			name = "planar"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultDataConfig()
			cfg.Stores = 10000
			cfg.Sales = 1000
			ds, err := GenerateData(cfg)
			if err != nil {
				b.Fatal(err)
			}
			users, err := NewSalesUserStore(map[string]string{"u": "RegionalSalesManager"})
			if err != nil {
				b.Fatal(err)
			}
			e := NewEngine(ds.Cube, users, EngineOptions{Planar: planar})
			if _, err := e.AddRules(`Rule:near When SessionStart do
  Foreach s in (GeoMD.Store)
    If (Distance(s.geometry, SUS.DecisionMaker.dm2session.s2location.geometry) < 5km) then
      SelectInstance(s)
    endIf
  endForeach
endWhen`); err != nil {
				b.Fatal(err)
			}
			loc := ds.CityLocs[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := e.StartSession("u", loc)
				if err != nil {
					b.Fatal(err)
				}
				if err := e.EndSession(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedScan measures the sharded fact-table executor: the same
// eight-query dashboard batch answered by the single-table engine
// (FactShards 1 — exactly the pre-shard path) vs scatter-gather over
// hash-partitioned shards. Results are identical across rows; the win is
// per-shard parallelism (on multi-CPU hosts) and per-shard ingest locks.
func BenchmarkShardedScan(b *testing.B) {
	env := getBenchEnv(b, 200000)
	var qs []Query
	for _, level := range []string{"Store", "City", "State", "Country"} {
		for _, measure := range []string{"UnitSales", "StoreSales"} {
			qs = append(qs, Query{
				Fact:       "Sales",
				GroupBy:    []LevelRef{{Dimension: "Store", Level: level}},
				Aggregates: []MeasureAgg{{Measure: measure, Agg: SUM}},
			})
		}
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			users, err := NewSalesUserStore(map[string]string{"alice": "RegionalSalesManager"})
			if err != nil {
				b.Fatal(err)
			}
			e := NewEngine(env.ds.Cube, users, EngineOptions{FactShards: shards})
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.ExecuteBatch(qs, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceOverhead measures the query-lifecycle telemetry at its
// three settings over the same personalized query: off (TraceSampleRate
// 0 — no tracer exists and queries carry no trace, the default
// production path), sampled (1% — the recommended deployed setting),
// and always (rate 1 — every query builds and retains its span tree).
// The subsystem's claim is that not using it costs nothing: compare the
// off row's ns/op across artifacts on one host.
// Latency histograms are unconditionally on in all three modes, so the
// off row also prices the metrics path.
func BenchmarkTraceOverhead(b *testing.B) {
	env := getBenchEnv(b, 20000)
	for _, mode := range []struct {
		name string
		rate float64
	}{{"off", 0}, {"sampled", 0.01}, {"always", 1}} {
		b.Run(mode.name, func(b *testing.B) {
			users, err := NewSalesUserStore(map[string]string{"alice": "RegionalSalesManager"})
			if err != nil {
				b.Fatal(err)
			}
			e := NewEngine(env.ds.Cube, users, EngineOptions{TraceSampleRate: mode.rate})
			defer e.Close()
			s, err := e.StartSession("alice", env.ds.CityLocs[0])
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// What the HTTP layer does per request: start a trace (nil
				// when tracing is off), ride it in on the context, finish it.
				tr := e.Tracer().Start("")
				ctx := obs.NewContext(context.Background(), tr)
				if _, err := s.QueryCtx(ctx, familyQuery); err != nil {
					b.Fatal(err)
				}
				tr.Finish(nil)
			}
		})
	}
}

// BenchmarkCostAccountingOverhead prices per-tenant cost accounting on a
// scan-bound query. The scheduler always meters (stage timings
// snapshotted, CPU split across the batch, tenant account and
// heavy-query profile updated per query), because fair admission charges
// the attributed CPU: off passes no accountant, so the scheduler
// attributes into a private one, and on wires one the caller reads. The
// two rows must stay level — reading the accounts costs nothing per
// query. The result cache stays off so every iteration pays a real scan.
func BenchmarkCostAccountingOverhead(b *testing.B) {
	env := getBenchEnv(b, 20000)
	for _, mode := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var acct *obs.Accountant
			if mode.on {
				acct = obs.NewAccountant(obs.AccountantOptions{})
			}
			s := qsched.New(env.ds.Cube, qsched.Options{Costs: acct})
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Submit(familyQuery, nil, "alice"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFairAdmissionOverhead measures what the cost-driven fair
// admission ledger adds to a scan-bound query: the same scheduler and
// query with one tenant (a single ledger entry, the common case) versus
// eight tenants submitting round-robin (every batch slot scans all eight
// scores, every settle updates a distinct ledger). Both modes pay the
// debit/settle protocol; the tenants=8 mode additionally pays the
// per-slot min-score scan. The fairness machinery's claim is that it
// prices admission, not queries — overhead must stay noise against a
// real scan. The result cache stays off so every iteration pays one.
func BenchmarkFairAdmissionOverhead(b *testing.B) {
	env := getBenchEnv(b, 20000)
	for _, tenants := range []int{1, 8} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			users := make([]string, tenants)
			for i := range users {
				users[i] = fmt.Sprintf("tenant%02d", i)
			}
			s := qsched.New(env.ds.Cube, qsched.Options{})
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Submit(familyQuery, nil, users[i%tenants]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkArtifactCacheHit measures the table's cross-batch artifact
// cache: a sharing-heavy batch repeated against an unchanged table must
// take its filter bitmap and key columns from the cache instead of
// re-materializing them every scan (warm = the same batch every
// iteration), against a cold dashboard whose filter constant is fresh
// every iteration (freshConst: its filter bitmap is built every scan).
func BenchmarkArtifactCacheHit(b *testing.B) {
	env := getBenchEnv(b, 200000)
	var qs []Query
	for _, level := range []string{"Store", "City", "State", "Country"} {
		for _, measure := range []string{"UnitSales", "StoreSales"} {
			qs = append(qs, Query{
				Fact:       "Sales",
				GroupBy:    []LevelRef{{Dimension: "Store", Level: level}},
				Aggregates: []MeasureAgg{{Measure: measure, Agg: SUM}},
			})
		}
	}
	filters := func(v float64) []AttrFilter {
		return []AttrFilter{{
			LevelRef: LevelRef{Dimension: "Store", Level: "City"},
			Attr:     "population", Op: OpGt, Value: v,
		}}
	}
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			users, err := NewSalesUserStore(map[string]string{"alice": "RegionalSalesManager"})
			if err != nil {
				b.Fatal(err)
			}
			e := NewEngine(env.ds.Cube, users, EngineOptions{})
			defer e.Close()
			// Prime twice: the admission doorkeeper only caches a
			// fingerprint offered at least twice (the warm arm needs the
			// second batch to actually populate the cache).
			setFilters(qs, filters(100000))
			for i := 0; i < 2; i++ {
				if _, err := e.ExecuteBatch(qs, nil); err != nil {
					b.Fatal(err)
				}
			}
			hits := e.SchedulerStats().ArtifactCache.Hits
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !warm {
					setFilters(qs, filters(freshConst(100000)))
				}
				if _, err := e.ExecuteBatch(qs, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if hits = e.SchedulerStats().ArtifactCache.Hits - hits; warm && hits < int64(b.N) {
				b.Fatalf("artifact cache hits = %d, want >= %d", hits, b.N)
			}
		})
	}
}

// BenchmarkPackedScan measures the compressed column layer on the hot
// single-query scan shape (Store.City SUM over the whole table): the
// monomorphic single-level SUM kernel over the dictionary-encoded
// bit-packed key column — the kernel must stay fast, not just correct.
func BenchmarkPackedScan(b *testing.B) {
	env := getBenchEnv(b, 200000)
	q := Query{
		Fact:       "Sales",
		GroupBy:    []LevelRef{{Dimension: "Store", Level: "City"}},
		Aggregates: []MeasureAgg{{Measure: "UnitSales", Agg: SUM}},
	}
	b.Run("packed=true", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := env.ds.Cube.Execute(q, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPackedPredicateKernel measures stage-1 predicate evaluation
// word-at-a-time: a batch whose queries share one numeric attribute
// filter, so the per-predicate planner materializes the filter bitmap
// once per scan, filling it with the SWAR range kernel over the
// bit-packed key column (64/width lanes per load). Each iteration takes a
// fresh filter constant (freshConst), so the bitmap is filled every scan
// rather than served from the table's artifact cache.
func BenchmarkPackedPredicateKernel(b *testing.B) {
	env := getBenchEnv(b, 200000)
	var qs []Query
	for _, level := range []string{"City", "State"} {
		qs = append(qs, Query{
			Fact:       "Sales",
			GroupBy:    []LevelRef{{Dimension: "Store", Level: level}},
			Aggregates: []MeasureAgg{{Measure: "UnitSales", Agg: SUM}},
		})
	}
	b.Run("packed=true", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			setFilters(qs, []AttrFilter{{
				LevelRef: LevelRef{Dimension: "Store", Level: "City"},
				Attr:     "population", Op: OpGt, Value: freshConst(100000),
			}})
			if _, _, err := executeBatch(env.ds.Cube, qs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLoneFilteredScan measures the explore shape — one filtered
// query nobody shares, serial — through its own stage-1 bitmap: sparse is
// Customer.age < 50 (a scattered code set, the lane-probe kernel), range a
// contiguous run of customer codes (the SWAR compare kernel), twoPreds
// ANDs a second predicate in from the scratch bitmap. The view arms price
// the executor's sparse-view constant: denseView (one product family, a
// fifth of the facts) fills the bitmap and ANDs the view in, sparseView
// (30 of 2 000 stores, 1.5%) tests the filter per visible fact instead.
func BenchmarkLoneFilteredScan(b *testing.B) {
	env := getBenchEnv(b, 200000)
	c := env.ds.Cube
	age := AttrFilter{LevelRef: LevelRef{Dimension: "Customer", Level: "Customer"},
		Attr: "age", Op: OpLt, Value: float64(50)}
	names := AttrFilter{LevelRef: LevelRef{Dimension: "Customer", Level: "Customer"},
		Attr: "name", Op: OpLt, Value: "Customer00250"}
	pop := AttrFilter{LevelRef: LevelRef{Dimension: "Store", Level: "City"},
		Attr: "population", Op: OpGe, Value: float64(200000)}
	dense := cube.NewView(c).Builder()
	if err := dense.SelectMember("Product", "Family", 0); err != nil {
		b.Fatal(err)
	}
	sparse := cube.NewView(c).Builder()
	for s := int32(0); s < 30; s++ {
		if err := sparse.SelectMember("Store", "Store", s); err != nil {
			b.Fatal(err)
		}
	}
	arms := []struct {
		name    string
		filters []AttrFilter
		v       *View
	}{
		{"sparse", []AttrFilter{age}, nil},
		{"range", []AttrFilter{names}, nil},
		{"twoPreds", []AttrFilter{age, pop}, nil},
		{"denseView", []AttrFilter{age}, dense.View()},
		{"sparseView", []AttrFilter{age}, sparse.View()},
	}
	for _, arm := range arms {
		q := Query{
			Fact:       "Sales",
			GroupBy:    []LevelRef{{Dimension: "Store", Level: "City"}},
			Aggregates: []MeasureAgg{{Measure: "UnitSales", Agg: SUM}},
			Filters:    arm.filters,
		}
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Execute(q, arm.v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDashboardBatch measures the dashboard workload's miss batch:
// its twelve tiles (4 group-bys x 3 aggregates) share a Customer.age
// floor with a fresh constant every run (freshConst, so no artifact cache
// holds its bitmap), and each aggregate adds its own second predicate,
// so the batch has three filter sets of four users each. Every tile looks
// through one view of a fifth of the facts (one product family), so stage
// 3 walks three set mask ∩ view intersections, four kernel plans each.
func BenchmarkDashboardBatch(b *testing.B) {
	env := getBenchEnv(b, 200000)
	c := env.ds.Cube
	vb := cube.NewView(c).Builder()
	if err := vb.SelectMember("Product", "Family", 0); err != nil {
		b.Fatal(err)
	}
	v := vb.View()
	lv := func(dim, level string) LevelRef { return LevelRef{Dimension: dim, Level: level} }
	city := lv("Store", "City")
	groupBys := [][]LevelRef{{city}, {city, lv("Product", "Family")}, {city, lv("Time", "Month")}, {lv("Product", "Product")}}
	aggs := []MeasureAgg{{Measure: "UnitSales", Agg: SUM}, {Measure: "StoreSales", Agg: AVG}, {Agg: COUNT}}
	extra := []*AttrFilter{nil,
		{LevelRef: city, Attr: "population", Op: OpGe, Value: float64(200000)},
		{LevelRef: lv("Product", "Product"), Attr: "brand", Op: OpNe, Value: "Brand03"}}
	vs := make([]*View, len(groupBys)*len(aggs))
	for k := range vs {
		vs[k] = v
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		age := AttrFilter{LevelRef: lv("Customer", "Customer"), Attr: "age", Op: OpLt, Value: freshConst(40)}
		var cqs []*cube.CompiledQuery
		for _, gb := range groupBys {
			for a, agg := range aggs {
				q := Query{Fact: "Sales", GroupBy: gb, Aggregates: []MeasureAgg{agg}, Filters: []AttrFilter{age}}
				if extra[a] != nil {
					q.Filters = append(q.Filters, *extra[a])
				}
				cq, err := c.Compile(q)
				if err != nil {
					b.Fatal(err)
				}
				cqs = append(cqs, cq)
			}
		}
		if _, _, err := c.ExecuteBatchCompiledOpt(cqs, vs, BatchOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiLevelGroupBy measures the dense composite-key group table
// on two-level group-bys: Store x Family materializes 10 000 rows (the
// drilldown shape — result materialization shows), City x Month a few
// hundred (accumulation dominates). serial is Cube.Execute, batch
// Cube.ExecuteBatchCompiledOpt on a batch of one — what the scheduler runs for a
// lone query; both drive the one batch executor. StoreXFamily/filtered is
// the drilldown workload's query itself: a fresh City.population floor
// every run, so the lone query fills its own stage-1 bitmap and
// accumulates off it. allocs/op is the gated number: finalize allocates
// per Result, not per row.
func BenchmarkMultiLevelGroupBy(b *testing.B) {
	env := getBenchEnv(b, 200000)
	storeXFamily := []LevelRef{{Dimension: "Store", Level: "Store"}, {Dimension: "Product", Level: "Family"}}
	shapes := []struct {
		name    string
		groupBy []LevelRef
	}{
		{"StoreXFamily", storeXFamily},
		{"CityXMonth", []LevelRef{{Dimension: "Store", Level: "City"}, {Dimension: "Time", Level: "Month"}}},
	}
	b.Run("StoreXFamily/filtered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := Query{
				Fact:       "Sales",
				GroupBy:    storeXFamily,
				Aggregates: []MeasureAgg{{Measure: "UnitSales", Agg: SUM}},
				Filters: []AttrFilter{{LevelRef: LevelRef{Dimension: "Store", Level: "City"},
					Attr: "population", Op: OpGe, Value: freshConst(200000)}},
				OrderBy: &cube.OrderBy{Agg: 0, Desc: true},
			}
			if _, err := env.ds.Cube.Execute(q, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, sh := range shapes {
		q := Query{
			Fact:       "Sales",
			GroupBy:    sh.groupBy,
			Aggregates: []MeasureAgg{{Measure: "UnitSales", Agg: SUM}},
			OrderBy:    &cube.OrderBy{Agg: 0, Desc: true},
		}
		b.Run(sh.name+"/serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := env.ds.Cube.Execute(q, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sh.name+"/batch", func(b *testing.B) {
			qs := []Query{q}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := executeBatch(env.ds.Cube, qs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeResult measures a drilldown answer's wire encoding:
// webapi.AppendResult over a Store x Family result of about 10 000 rows,
// into a reused buffer as the server's pooled one is. SUM sums an integer
// measure, so its values take the integer path; AVG's are fractions, the
// shortest-float path. Bytes equal json.Encoder's (internal/webapi pins
// them), and the encoder allocates nothing once the buffer is warm.
func BenchmarkEncodeResult(b *testing.B) {
	env := getBenchEnv(b, 200000)
	for _, arm := range []struct {
		name string
		agg  MeasureAgg
	}{
		{"sum", MeasureAgg{Measure: "UnitSales", Agg: SUM}},
		{"avg", MeasureAgg{Measure: "StoreSales", Agg: AVG}},
	} {
		res, err := env.ds.Cube.Execute(Query{
			Fact:       "Sales",
			GroupBy:    []LevelRef{{Dimension: "Store", Level: "Store"}, {Dimension: "Product", Level: "Family"}},
			Aggregates: []MeasureAgg{arm.agg},
			OrderBy:    &cube.OrderBy{Agg: 0, Desc: true},
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) < 9000 {
			b.Fatalf("answer has %d rows, want about 10 000", len(res.Rows))
		}
		b.Run(arm.name, func(b *testing.B) {
			buf, err := webapi.AppendResult(nil, res) // warms the buffer
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, err = webapi.AppendResult(buf[:0], res); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"time"

	"sdwp/internal/cube"
	"sdwp/internal/geom"
)

// The benchmark's frozen parameters. They are constants, never derived at
// run time, so two runs of two commits offer the same load. solapd is
// started with these and -addr only: every tuning flag stays at its default.
const (
	dataSeed   = 1
	dataStores = 2000
	dataSales  = 400000
	// benchUsers RegionalSalesManager users u00..u15 exist in every solapd
	// the benchmark starts. personalize assigns them round-robin, so two
	// sessions of one user are 1.6 s apart and never overlap.
	benchUsers = 16
	// Open-loop offered rates, operations per second, and the keep-alive
	// connections an open loop's operations are spread over.
	dashboardRate   = 100.0
	personalizeRate = 10.0
	openLoopConns   = 8
	// dashboardSessions logged-in sessions share dashboardParams filter
	// parameters. One dashboard's twelve results charge the result cache
	// 59.4 KB, so the default 32 MiB cache holds dashboardsCached of the
	// sessions x params = 5120 dashboards: the distinct-result working set
	// is 290 MiB, 9 times the cache, which under Zipf(1.1) is what puts
	// the hit ratio near 0.85 (twice the cache gives well over 0.9).
	dashboardSessions = 8
	dashboardParams   = 640
	dashboardsCached  = 565
	// tracedPrefill is how many of the hottest dashboards each lane of the
	// traced run caches before it replays.
	tracedPrefill = 40
	// The paper's Example 5.3 selection (cities within some km of an
	// airport); at 20 km it fires the IntAirportCity tracking rule.
	airportTarget    = "GeoMD.Store.City"
	airportPredicate = "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < %dkm"
)

// scale sizes the dataset and the dashboard pool, and says how often an
// operation is checked against serial Cube.Execute: full for the
// benchmark, small and often for the smoke test.
type scale struct {
	stores, sales, dashParams, oracleEvery int
}

var fullScale = scale{stores: dataStores, sales: dataSales, dashParams: dashboardParams, oracleEvery: 50}

// Wire forms of internal/webapi's request bodies. The benchmark speaks the
// HTTP API, so these follow the JSON contract, not webapi's Go types.
type levelRef struct {
	Dimension string `json:"dimension"`
	Level     string `json:"level"`
}

type measureAgg struct {
	Measure string `json:"measure,omitempty"`
	Agg     string `json:"agg"`
}

type attrFilter struct {
	Dimension string `json:"dimension"`
	Level     string `json:"level"`
	Attr      string `json:"attr"`
	Op        string `json:"op"`
	Value     any    `json:"value"`
}

type orderBy struct {
	Agg  int  `json:"agg"`
	Desc bool `json:"desc,omitempty"`
}

type querySpec struct {
	Fact       string       `json:"fact"`
	GroupBy    []levelRef   `json:"groupBy,omitempty"`
	Aggregates []measureAgg `json:"aggregates"`
	Filters    []attrFilter `json:"filters,omitempty"`
	OrderBy    *orderBy     `json:"orderBy,omitempty"`
	Baseline   bool         `json:"baseline,omitempty"`
}

var filterOps = map[string]cube.FilterOp{
	"=": cube.OpEq, "<>": cube.OpNe, "<": cube.OpLt, "<=": cube.OpLe, ">": cube.OpGt, ">=": cube.OpGe,
}

// cubeQuery is the query the wire form denotes, for the in-process oracle
// and the traced run.
func (qs querySpec) cubeQuery() cube.Query {
	q := cube.Query{Fact: qs.Fact}
	for _, g := range qs.GroupBy {
		q.GroupBy = append(q.GroupBy, cube.LevelRef{Dimension: g.Dimension, Level: g.Level})
	}
	for _, a := range qs.Aggregates {
		agg, err := cube.ParseAgg(a.Agg)
		if err != nil {
			panic(err) // the benchmark generates only valid aggregates
		}
		q.Aggregates = append(q.Aggregates, cube.MeasureAgg{Measure: a.Measure, Agg: agg})
	}
	for _, f := range qs.Filters {
		q.Filters = append(q.Filters, cube.AttrFilter{
			LevelRef: cube.LevelRef{Dimension: f.Dimension, Level: f.Level},
			Attr:     f.Attr, Op: filterOps[f.Op], Value: f.Value,
		})
	}
	if qs.OrderBy != nil {
		q.OrderBy = &cube.OrderBy{Agg: qs.OrderBy.Agg, Desc: qs.OrderBy.Desc}
	}
	return q
}

// stepKind names one HTTP request of an operation.
type stepKind int

const (
	stepLogin stepKind = iota
	stepSchema
	stepSelect
	stepQuery
	stepBatch
	stepGeoJSON
	stepMapSVG
	stepLogout
	numStepKinds
)

var stepNames = [numStepKinds]string{"login", "schema", "select", "query", "batch", "geojson", "mapsvg", "logout"}

// step is one request of an operation, typed so that the same stream can be
// sent over HTTP, served on a recorder or called into the engine.
type step struct {
	kind      stepKind
	user      string     // login
	loc       geom.Point // login
	predicate string     // select
	queries   []querySpec
}

// op is one benchmark operation: a single request on a standing session, or
// (session < 0) a whole session script that logs in and out itself.
type op struct {
	session int
	steps   []step
	due     time.Duration // open loop: offset from the start of the phase
}

// wire renders the step as an HTTP request for the given session token.
func (st step) wire(token string) (method, path string, body []byte) {
	post := func(path string, v any) (string, string, []byte) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // plain structs of strings and numbers
		}
		return "POST", path, b
	}
	get := func(path string) (string, string, []byte) {
		return "GET", path + "?session=" + url.QueryEscape(token), nil
	}
	switch st.kind {
	case stepLogin:
		return post("/api/login", map[string]string{"user": st.user, "locationWKT": wkt(st.loc)})
	case stepSchema:
		return get("/api/schema")
	case stepSelect:
		return post("/api/select", map[string]string{"session": token, "target": airportTarget, "predicate": st.predicate})
	case stepQuery:
		return post("/api/query", struct {
			Session string `json:"session"`
			querySpec
		}{token, st.queries[0]})
	case stepBatch:
		return post("/api/query/batch", struct {
			Session string      `json:"session"`
			Queries []querySpec `json:"queries"`
		}{token, st.queries})
	case stepGeoJSON:
		return get("/api/geojson")
	case stepMapSVG:
		return get("/api/map.svg")
	case stepLogout:
		return post("/api/logout", map[string]string{"session": token})
	}
	panic("bench: unknown step kind")
}

func wkt(p geom.Point) string { return fmt.Sprintf("POINT (%.6f %.6f)", p.X, p.Y) }

func userName(i int) string { return fmt.Sprintf("u%02d", i%benchUsers) }

// usersFlag is solapd's -users value for the benchmark's users.
func usersFlag() string {
	s := ""
	for i := 0; i < benchUsers; i++ {
		if i > 0 {
			s += ","
		}
		s += userName(i) + "=RegionalSalesManager"
	}
	return s
}

func selectStep(km int) step {
	return step{kind: stepSelect, predicate: fmt.Sprintf(airportPredicate, km)}
}

// geo is what the generators need to know about the fixed dataset.
type geo struct {
	cities []geom.Point
	stores []geom.Point
}

// nearCity is a location within about 300 m of a city centre, so 5kmStores
// selects that city's stores.
func (g geo) nearCity(rng *rand.Rand) geom.Point {
	c := g.cities[rng.Intn(len(g.cities))]
	return geom.Pt(c.X+(rng.Float64()-0.5)*0.005, c.Y+(rng.Float64()-0.5)*0.005)
}

// farFromStores is a location with no store within 5 km: 5kmStores selects
// nothing and the session's view starts unrestricted.
func (g geo) farFromStores(rng *rand.Rand) geom.Point {
	for {
		p := geom.Pt(-9+rng.Float64()*12, 36+rng.Float64()*7.5)
		far := true
		for _, s := range g.stores {
			if geom.Haversine(p, s) < 10 {
				far = false
				break
			}
		}
		if far {
			return p
		}
	}
}

// plan is one workload instantiated for a seed: the standing sessions, the
// operations that prepare server state, and the request stream.
type plan struct {
	// sessions are logged in (steps run in order) before any load and stay
	// logged in; op.session indexes them.
	sessions [][]step
	// prime operations run once, in order, before the standing sessions log
	// in; prefill operations run once after, on every connection at once.
	// Neither is timed.
	prime   []op
	prefill []op
	// next draws client's next operation. Closed-loop clients each own an
	// rng; the open loop draws every operation from one.
	next func(rng *rand.Rand, client int) op
}

// workload is one named traffic mix.
type workload struct {
	name string
	// rate > 0 makes the loop open at that many operations per second;
	// 0 is a closed loop with zero think time, of clients clients (0: one
	// per CPU).
	rate    float64
	clients int
	// The traced run replays tracedOps operations of the stream after
	// tracedWarm untraced ones: few enough to fit its time, fixed so that
	// counts repeat exactly.
	tracedOps, tracedWarm int
	build                 func(g geo, sc scale, clients int, seed int64) plan
}

var workloads = []workload{
	{name: "explore", tracedOps: 300, tracedWarm: 30, build: buildExplore},
	{name: "dashboard", rate: dashboardRate, tracedOps: 100, build: buildDashboard},
	// One client: two drift in and out of lock-step (responses of 500 KB
	// desynchronise them, the coalescing window resynchronises them), and
	// throughput and p95 then differ by a tenth from run to run.
	{name: "drilldown", clients: 1, tracedOps: 50, tracedWarm: 5, build: buildDrilldown},
	{name: "personalize", rate: personalizeRate, tracedOps: 30, tracedWarm: 3, build: buildPersonalize},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

var (
	lvCity    = levelRef{"Store", "City"}
	lvState   = levelRef{"Store", "State"}
	lvFamily  = levelRef{"Product", "Family"}
	lvProduct = levelRef{"Product", "Product"}
	lvMonth   = levelRef{"Time", "Month"}
	lvStore   = levelRef{"Store", "Store"}

	threeAgg = []measureAgg{{Measure: "UnitSales", Agg: "SUM"}, {Measure: "StoreSales", Agg: "AVG"}, {Agg: "COUNT"}}
)

func ageBelow(v float64) attrFilter {
	return attrFilter{"Customer", "Customer", "age", "<", v}
}

func populationAtLeast(v float64) attrFilter {
	return attrFilter{"Store", "City", "population", ">=", v}
}

// citySessions logs each client in near a city centre on its own user.
func citySessions(g geo, clients int, rng *rand.Rand) [][]step {
	out := make([][]step, clients)
	for i := range out {
		out[i] = []step{{kind: stepLogin, user: userName(i), loc: g.nearCity(rng)}}
	}
	return out
}

// buildExplore: one query per operation with a filter constant never seen
// before, so neither the result cache nor its doorkeeper ever helps and the
// scan is the work. One query in four goes through the session's view (a
// few thousand facts), three bypass it (all 400 k): the two kinds cost
// several-fold differently, and an even split would put the median in the
// gap between them where it cannot repeat.
func buildExplore(g geo, _ scale, clients int, seed int64) plan {
	levels := []levelRef{lvCity, lvState, lvFamily, lvMonth}
	return plan{
		sessions: citySessions(g, clients, rand.New(rand.NewSource(seed))),
		next: func(rng *rand.Rand, client int) op {
			q := querySpec{
				Fact:       "Sales",
				GroupBy:    []levelRef{levels[rng.Intn(len(levels))]},
				Aggregates: []measureAgg{threeAgg[rng.Intn(len(threeAgg))]},
				Filters:    []attrFilter{ageBelow(30 + 40*rng.Float64())},
				Baseline:   rng.Intn(4) != 0,
			}
			return op{session: client, steps: []step{{kind: stepQuery, queries: []querySpec{q}}}}
		},
	}
}

// buildDrilldown: the same 400 k-fact scan as explore, but grouped at
// Store x Family (10 000 rows, 500 KB of JSON) and ordered by the
// aggregate. Of the shapes tried this gives finalize, encode and the socket
// write their largest share of the round trip, about a fifth; the
// multi-level accumulate is still the rest (see README.md).
func buildDrilldown(g geo, _ scale, clients int, seed int64) plan {
	return plan{
		sessions: citySessions(g, clients, rand.New(rand.NewSource(seed))),
		next: func(rng *rand.Rand, client int) op {
			q := querySpec{
				Fact:       "Sales",
				GroupBy:    []levelRef{lvStore, lvFamily},
				Aggregates: []measureAgg{threeAgg[rng.Intn(len(threeAgg))]},
				Filters:    []attrFilter{populationAtLeast(20000 + 980000*rng.Float64())},
				OrderBy:    &orderBy{Agg: 0, Desc: true},
				Baseline:   true,
			}
			return op{session: client, steps: []step{{kind: stepQuery, queries: []querySpec{q}}}}
		},
	}
}

// dashboardTiles is one dashboard: 4 group-bys x 3 aggregates. All twelve
// filter on the dashboard's parameter; each aggregate adds its own second
// predicate, so the filter sets overlap without being equal and the scan
// shares per-predicate bitmaps.
func dashboardTiles(param float64) []querySpec {
	groupBys := [][]levelRef{{lvCity}, {lvCity, lvFamily}, {lvCity, lvMonth}, {lvProduct}}
	extra := []*attrFilter{nil, {"Store", "City", "population", ">=", 200000.0}, {"Product", "Product", "brand", "<>", "Brand03"}}
	var tiles []querySpec
	for _, gb := range groupBys {
		for a, agg := range threeAgg {
			q := querySpec{Fact: "Sales", GroupBy: gb, Aggregates: []measureAgg{agg},
				Filters: []attrFilter{ageBelow(param)}}
			if extra[a] != nil {
				q.Filters = append(q.Filters, *extra[a])
			}
			tiles = append(tiles, q)
		}
	}
	return tiles
}

// dashboardParam is the i-th filter parameter of the pool; rank 0 is the
// hottest.
func dashboardParam(i int) float64 { return 30.25 + 0.0625*float64(i) }

// buildDashboard: every operation refreshes one dashboard, drawn Zipf(1.1)
// from sessions x params. Sessions log in where 5kmStores selects nothing
// and then select the airport cities, so each has its own view (its own
// result-cache keys) over the same fifth of the facts.
func buildDashboard(g geo, sc scale, _ int, seed int64) plan {
	rng := rand.New(rand.NewSource(seed))
	p := plan{sessions: make([][]step, dashboardSessions)}
	for i := range p.sessions {
		p.sessions[i] = []step{{kind: stepLogin, user: userName(i), loc: g.farFromStores(rng)}, selectStep(20)}
	}
	// Fill the cache with the hottest dashboards it can hold, coldest
	// first, so the timed window starts from the steady state instead of
	// drifting towards it. The result cache admits a query the second time
	// it sees its fingerprint, whichever session asks: the first dashboard
	// of each parameter is requested twice.
	pool := dashboardSessions * sc.dashParams
	for rank := min(dashboardsCached, pool) - 1; rank >= 0; rank-- {
		p.prefill = append(p.prefill, dashboardOp(rank))
		if rank%dashboardSessions == dashboardSessions-1 {
			p.prefill = append(p.prefill, dashboardOp(rank))
		}
	}
	deck := newZipfDeck(pool, 1.1)
	p.next = func(rng *rand.Rand, _ int) op { return dashboardOp(deck.draw(rng)) }
	return p
}

// zipfDeck deals ranks 0..n-1 with probability proportional to
// (rank+1)^-s, a block at a time. A block holds every stratum of the
// distribution once — the inverse CDF at (i+u)/deckBlock for one random u —
// in random order. Hot and cold ranks thus make up the same share of every
// window whatever the seed, which decides only which and when; independent
// draws would move the cold share, and with it every metric, by a tenth.
type zipfDeck struct {
	cdf   []float64
	block []int
}

const deckBlock = 500

func newZipfDeck(n int, s float64) *zipfDeck {
	d := &zipfDeck{cdf: make([]float64, n)}
	sum := 0.0
	for r := range d.cdf {
		sum += math.Pow(float64(r+1), -s)
		d.cdf[r] = sum
	}
	for r := range d.cdf {
		d.cdf[r] /= sum
	}
	return d
}

func (d *zipfDeck) draw(rng *rand.Rand) int {
	if len(d.block) == 0 {
		u := rng.Float64()
		for i := 0; i < deckBlock; i++ {
			q := (float64(i) + u) / deckBlock
			d.block = append(d.block, min(sort.SearchFloat64s(d.cdf, q), len(d.cdf)-1))
		}
		rng.Shuffle(len(d.block), func(i, j int) { d.block[i], d.block[j] = d.block[j], d.block[i] })
	}
	rank := d.block[len(d.block)-1]
	d.block = d.block[:len(d.block)-1]
	return rank
}

// dashboardOp is the dashboard of the given popularity rank.
func dashboardOp(rank int) op {
	return op{session: rank % dashboardSessions, steps: []step{{
		kind: stepBatch, queries: dashboardTiles(dashboardParam(rank / dashboardSessions))}}}
}

// buildPersonalize: one operation is a decision maker's whole session.
// Priming selects three times per user, which pushes every user's
// airport-city degree past the threshold of 2, so each timed login also
// runs TrainAirportCity's triple Foreach.
func buildPersonalize(g geo, _ scale, _ int, seed int64) plan {
	var p plan
	for u := 0; u < benchUsers; u++ {
		rng := rand.New(rand.NewSource(seed + int64(u)))
		p.prime = append(p.prime, op{session: -1, steps: []step{
			{kind: stepLogin, user: userName(u), loc: g.nearCity(rng)},
			selectStep(20), selectStep(20), selectStep(20),
			{kind: stepLogout},
		}})
	}
	hot := dashboardTiles(dashboardParam(0))
	tiles := []querySpec{hot[0], hot[3], hot[9], hot[0]}
	tiles[3].Baseline = true
	seq := 0
	p.next = func(rng *rand.Rand, _ int) op {
		user := userName(seq)
		seq++
		return op{session: -1, steps: []step{
			{kind: stepLogin, user: user, loc: g.nearCity(rng)},
			{kind: stepSchema},
			selectStep(20),
			{kind: stepBatch, queries: tiles},
			{kind: stepGeoJSON},
			{kind: stepMapSVG},
			{kind: stepLogout},
		}}
	}
	return p
}

// arrivals schedules n open-loop operations at rate per second: evenly
// spaced, each moved by up to a quarter interval either way.
func arrivals(rng *rand.Rand, n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		slot := (float64(i) + 0.5 + (rng.Float64()-0.5)*0.5) / rate
		out[i] = time.Duration(slot * float64(time.Second))
	}
	return out
}

// streamSeed derives a client's stream seed from the run's seed.
func streamSeed(seed int64, client int) int64 { return seed*7919 + int64(client) + 1 }

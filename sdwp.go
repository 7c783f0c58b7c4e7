// Package sdwp is the public facade of the spatial-data-warehouse
// personalization library — a from-scratch Go reproduction of Glorio,
// Mazón, Garrigós & Trujillo, "Using Web-based Personalization on Spatial
// Data Warehouses" (EDBT 2010).
//
// The implementation lives in internal packages; this package re-exports
// the types and constructors a downstream application needs:
//
//   - model the warehouse conceptually (NewSchemaBuilder → MD model, WrapGeo
//     → GeoMD model) and load instances into a Cube;
//   - declare the spatial-aware user model (NewProfile) and its users
//     (NewUserStore);
//   - write PRML personalization rules (plain text, see ParseRules) and
//     register them on an Engine;
//   - start per-user Sessions: schema rules personalize the GeoMD schema,
//     instance rules personalize the cube view, and spatial selections fire
//     tracking rules that learn the user's interests;
//   - query at scale: Session.QueryBatch / Engine.ExecuteBatch /
//     Cube.ExecuteBatchCompiledOpt answer many queries in one shared scan
//     per fact table, run on the goroutine that dispatches it; every
//     Session query routes through the engine's scheduler
//     (internal/qsched), which coalesces concurrent queries into shared
//     scans under cost-driven fair admission (each
//     tenant's share of batch slots tracks its attributed scan cost per
//     unit EngineOptions.TenantWeights weight, so a heavy tenant is
//     boundedly isolated), sheds over-share tenants under overload
//     (EngineOptions.MaxQueueDepth / TargetQueueWait → HTTP 429 +
//     Retry-After) before the EngineOptions.QueryTimeout deadline drops
//     stale queued work (per-request contexts via Session.QueryCtx), and
//     fronts everything with a result cache keyed by view content, so
//     sessions with equal selections share answers; a query that finds a
//     free scan slot starts scanning at once, and queries arriving while
//     every slot is busy coalesce into the next shared scan, whose hot
//     filter bitmaps, roll-up key columns and view masks each fact table
//     keeps alive between scans in a cross-batch artifact cache sized from
//     the table (20 bytes per fact; no option) — see
//     EngineOptions.MaxInFlightScans / ResultCacheBytes and
//     Engine.SchedulerStats
//     (docs/ARCHITECTURE.md has the architecture, docs/OPERATIONS.md the
//     operator guide);
//   - shard for write and scan scale: EngineOptions.FactShards
//     hash-partitions every fact table behind the scheduler
//     (internal/shard) — scatter-gather scans over per-shard locks with
//     results identical to the unsharded engine and routed ingest via
//     Engine.AddFact (each shard keeps its own artifact cache);
//   - optionally serve everything over HTTP with NewHTTPServer.
//
// See examples/quickstart for a complete program.
package sdwp

import (
	"sdwp/internal/core"
	"sdwp/internal/cube"
	"sdwp/internal/datagen"
	"sdwp/internal/geom"
	"sdwp/internal/geomd"
	"sdwp/internal/mdmodel"
	"sdwp/internal/prml"
	"sdwp/internal/qsched"
	"sdwp/internal/usermodel"
	"sdwp/internal/webapi"
)

// Geometry substrate.
type (
	// Geometry is any of the four geometric primitives.
	Geometry = geom.Geometry
	// Point is a lon/lat POINT.
	Point = geom.Point
	// Line is a LINE polyline.
	Line = geom.Line
	// Polygon is a POLYGON with optional holes.
	Polygon = geom.Polygon
	// Collection is a COLLECTION of geometries.
	Collection = geom.Collection
	// GeometryType enumerates POINT, LINE, POLYGON, COLLECTION.
	GeometryType = geom.Type
)

// Geometry type constants (the paper's GeometricTypes enumeration).
const (
	POINT      = geom.TypePoint
	LINE       = geom.TypeLine
	POLYGON    = geom.TypePolygon
	COLLECTION = geom.TypeCollection
)

// Pt constructs a point from longitude and latitude.
func Pt(lon, lat float64) Point { return geom.Pt(lon, lat) }

// ParseWKT parses Well-Known Text into a Geometry.
func ParseWKT(s string) (Geometry, error) { return geom.ParseWKT(s) }

// HaversineKm returns the great-circle distance between two lon/lat points
// in kilometres.
func HaversineKm(a, b Point) float64 { return geom.Haversine(a, b) }

// Conceptual models.
type (
	// MDSchema is a multidimensional model (facts, dimensions, hierarchies).
	MDSchema = mdmodel.Schema
	// SchemaBuilder assembles an MDSchema fluently.
	SchemaBuilder = mdmodel.Builder
	// GeoSchema is a GeoMD model: an MDSchema plus spatial levels and
	// thematic layers.
	GeoSchema = geomd.Schema
	// Profile is the spatial-aware user model definition (SUS, Fig. 3).
	Profile = usermodel.Profile
	// UserStore holds user profile instances.
	UserStore = usermodel.Store
	// UserEntity is one node of a user's profile graph.
	UserEntity = usermodel.Entity
)

// NewSchemaBuilder starts a multidimensional schema.
func NewSchemaBuilder(name string) *SchemaBuilder { return mdmodel.NewBuilder(name) }

// WrapGeo wraps a validated MD schema as an (initially non-spatial) GeoMD
// schema; personalization rules add the spatiality per user.
func WrapGeo(md *MDSchema) *GeoSchema { return geomd.New(md) }

// NewProfile starts an empty SUS profile definition.
func NewProfile() *Profile { return usermodel.NewProfile() }

// NewUserStore creates a profile store over a validated profile.
func NewUserStore(p *Profile) (*UserStore, error) { return usermodel.NewStore(p) }

// Warehouse storage and queries.
type (
	// Cube stores dimension members, facts and the geographic catalog.
	Cube = cube.Cube
	// Query is an OLAP aggregation request.
	Query = cube.Query
	// Result is a query result table with scan statistics.
	Result = cube.Result
	// LevelRef names a dimension level in queries.
	LevelRef = cube.LevelRef
	// MeasureAgg is one aggregate column of a query.
	MeasureAgg = cube.MeasureAgg
	// AttrFilter restricts facts by a dimension attribute at some level.
	AttrFilter = cube.AttrFilter
	// FilterOp enumerates attribute comparison operators.
	FilterOp = cube.FilterOp
	// View is a personalized window over a cube.
	View = cube.View
	// BatchOptions configures one shared batch scan
	// (Cube.ExecuteBatchCompiledOpt): an optional per-stage scan trace.
	BatchOptions = cube.BatchOptions
	// SharingStats reports how much cross-query stage work one batch scan
	// shared (filter bitmaps — per set and per predicate — and group-key
	// columns).
	SharingStats = cube.SharingStats
)

// Aggregation functions.
const (
	SUM   = cube.AggSum
	COUNT = cube.AggCount
	AVG   = cube.AggAvg
	MIN   = cube.AggMin
	MAX   = cube.AggMax
)

// Filter comparison operators (AttrFilter.Op).
const (
	OpEq = cube.OpEq
	OpNe = cube.OpNe
	OpLt = cube.OpLt
	OpLe = cube.OpLe
	OpGt = cube.OpGt
	OpGe = cube.OpGe
)

// NewCube creates an empty cube for a GeoMD schema.
func NewCube(s *GeoSchema) *Cube { return cube.New(s) }

// Rules and the engine.
type (
	// Rule is a parsed PRML personalization rule.
	Rule = prml.Rule
	// RuleValue is a PRML runtime value (used for designer parameters).
	RuleValue = prml.Value
	// Engine is the personalization engine.
	Engine = core.Engine
	// EngineOptions configures an Engine.
	EngineOptions = core.Options
	// Session is one decision maker's personalized analysis session.
	Session = core.Session
	// SelectionResult reports a spatial selection's effect.
	SelectionResult = core.SelectionResult
	// SchedulerStats snapshots the engine's query-scheduler counters:
	// coalesce ratio, cache hit rate, queue depth, admission timeouts,
	// overload-shed counters and per-tenant fair shares (snapshotted
	// atomically with the queue state), the cross-query
	// subexpression-sharing ratios, the artifact-cache counters and — on a
	// sharded engine — shard fan-out (Engine.SchedulerStats,
	// GET /api/stats).
	SchedulerStats = qsched.Stats
	// TenantShare is one tenant's fair-share ledger position
	// (SchedulerStats.FairShares).
	TenantShare = qsched.TenantShare
	// ArtifactCacheStats sums the fact tables' cross-batch artifact caches
	// (SchedulerStats.ArtifactCache, Cube.ArtifactCacheStats).
	ArtifactCacheStats = cube.ArtifactCacheStats
	// PackedStats reports the compressed-column storage footprint
	// (SchedulerStats.Packed, Cube.PackedStats).
	PackedStats = cube.PackedStats
)

// Scheduler errors, re-exported for callers that match on them.
var (
	// ErrOverloaded is the base error of queries shed by the scheduler's
	// overload controller (EngineOptions.MaxQueueDepth / TargetQueueWait;
	// match with errors.Is — the web layer serves it as HTTP 429).
	ErrOverloaded = qsched.ErrOverloaded
	// ErrQueryTimeout is the base error of queries dropped from the
	// admission queue past their deadline (EngineOptions.QueryTimeout;
	// HTTP 504 at the web layer).
	ErrQueryTimeout = qsched.ErrTimeout
)

// OverloadError is the structured form of an overload shed (errors.As):
// the reason, the queue depth at the decision, and the drain-rate-derived
// Retry-After hint.
type OverloadError = qsched.OverloadError

// ParseRules parses PRML source into rules (without registering them).
func ParseRules(src string) ([]*Rule, error) { return prml.Parse(src) }

// FormatRules renders rules in canonical PRML text.
func FormatRules(rules ...*Rule) string { return prml.Format(rules...) }

// Number wraps a float64 as a rule parameter value.
func Number(f float64) RuleValue { return prml.NumberVal(f) }

// String wraps a string as a rule parameter value.
func String(s string) RuleValue { return prml.StringVal(s) }

// NewEngine creates a personalization engine over a loaded cube and user
// store.
func NewEngine(c *Cube, users *UserStore, opts EngineOptions) *Engine {
	return core.NewEngine(c, users, opts)
}

// Web layer.

// HTTPServer serves the personalization API over HTTP.
type HTTPServer = webapi.Server

// NewHTTPServer builds the HTTP handler for an engine.
func NewHTTPServer(e *Engine) *HTTPServer { return webapi.NewServer(e) }

// Synthetic data (the examples' and benchmarks' workload source).
type (
	// DataConfig sizes a synthetic warehouse.
	DataConfig = datagen.Config
	// Dataset is a generated warehouse with ground-truth locations.
	Dataset = datagen.Dataset
)

// DefaultDataConfig returns the example-sized synthetic warehouse
// configuration.
func DefaultDataConfig() DataConfig { return datagen.Default() }

// GenerateData builds a synthetic warehouse.
func GenerateData(cfg DataConfig) (*Dataset, error) { return datagen.Generate(cfg) }

// SalesSchema returns the paper's Fig. 2 sales analysis schema.
func SalesSchema() *GeoSchema { return datagen.SalesSchema() }

// Fig4Profile returns the paper's Fig. 4 spatial-aware user model.
func Fig4Profile() (*Profile, error) { return datagen.Fig4Profile() }

// NewSalesUserStore creates a Fig. 4 user store with the given user→role
// assignments.
func NewSalesUserStore(roles map[string]string) (*UserStore, error) {
	return datagen.NewUserStore(roles)
}

// PaperRules is the PRML source of the paper's Section 5 sample rules,
// verbatim: the addSpatiality schema rule (Example 5.1), the 5kmStores
// instance rule (Example 5.2), and the IntAirportCity/TrainAirportCity
// interest rules (Example 5.3). Engines using TrainAirportCity must declare
// the "threshold" parameter.
const PaperRules = `
Rule:addSpatiality When SessionStart do
  If (SUS.DecisionMaker.dm2role.name = 'RegionalSalesManager') then
    AddLayer('Airport', POINT)
    BecomeSpatial(MD.Sales.Store.geometry, POINT)
  endIf
endWhen

Rule:5kmStores When SessionStart do
  Foreach s in (GeoMD.Store)
    If (Distance(s.geometry, SUS.DecisionMaker.dm2session.s2location.geometry) < 5km) then
      SelectInstance(s)
    endIf
  endForeach
endWhen

Rule:IntAirportCity When SpatialSelection(GeoMD.Store.City,
    Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km) do
  SetContent(SUS.DecisionMaker.dm2airportcity.degree,
    SUS.DecisionMaker.dm2airportcity.degree + 1)
endWhen

Rule:TrainAirportCity When SessionStart do
  If (SUS.DecisionMaker.dm2airportcity.degree > threshold) then
    AddLayer('Train', LINE)
    Foreach t, c, a in (GeoMD.Train, GeoMD.Store.City, GeoMD.Airport)
      If (Distance(Intersection(Intersection(t.geometry, c.geometry), a.geometry)) < 50km) then
        SelectInstance(c)
      endIf
    endForeach
  endIf
endWhen
`

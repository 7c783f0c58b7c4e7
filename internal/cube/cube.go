// Package cube is the spatial OLAP storage and query engine underneath the
// personalization layer — the substrate the paper assumes ("any BI tool")
// but which this reproduction builds from scratch.
//
// Storage is columnar: each dimension level keeps parallel arrays of member
// descriptors, attribute columns, parent pointers into the next coarser
// level, and (for spatial levels) geometries. Facts keep one int32 key
// column per dimension (referencing the finest level) plus one float64
// column per measure. Thematic layers (external geographic data, paper
// Fig. 6) keep named geometry objects with an R-tree over point layers.
//
// Queries aggregate measures grouped by arbitrary hierarchy levels, under
// attribute filters and under the selection masks produced by the paper's
// SelectInstance personalization action (package core builds those masks).
package cube

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"sdwp/internal/geoidx"
	"sdwp/internal/geom"
	"sdwp/internal/geomd"
	"sdwp/internal/mdmodel"
)

// NoParent marks a member of the coarsest level (or an unset parent).
const NoParent int32 = -1

// LevelData stores the members of one hierarchy level.
type LevelData struct {
	level   *mdmodel.Level
	names   []string         // descriptor column (display names)
	attrs   map[string][]any // other attribute columns
	parents []int32          // index into the next coarser level
	geoms   []geomSlot       // nil until the level becomes spatial

	byName map[string]int32 // descriptor → member index (first wins)

	// gen counts the mutations the derived values below depend on —
	// AddMember, a descriptor SetMemberAttr, SetMemberGeometry — so each
	// is rebuilt once it moves.
	gen     atomic.Uint64
	ptIndex derived[*geoidx.PointIndex] // R-tree over all-point geometries
	text    derived[*TextSlab]          // map feature text (FeatureText)
}

// Len returns the member count.
func (ld *LevelData) Len() int { return len(ld.names) }

// Name returns the descriptor of member i.
func (ld *LevelData) Name(i int32) string { return ld.names[i] }

// Parent returns the parent member index (NoParent at the top level).
func (ld *LevelData) Parent(i int32) int32 {
	if int(i) >= len(ld.parents) {
		return NoParent
	}
	return ld.parents[i]
}

// Geometry returns member i's geometry (nil if not spatial or unset).
func (ld *LevelData) Geometry(i int32) geom.Geometry {
	if int(i) >= len(ld.geoms) {
		return nil
	}
	return ld.geoms[i].load()
}

// geomSlot holds one member's geometry. SetMemberGeometry may replace an
// existing member's geometry while sessions read it (a live correction of
// one city's outline), so the slot is an atomic pointer.
type geomSlot struct{ p atomic.Pointer[geom.Geometry] }

func (s *geomSlot) load() geom.Geometry {
	if g := s.p.Load(); g != nil {
		return *g
	}
	return nil
}

// Attr returns the named attribute of member i (the descriptor is exposed
// under its declared attribute name too).
func (ld *LevelData) Attr(name string, i int32) (any, bool) {
	for _, a := range ld.level.Attributes {
		if a.Name == name && a.Kind == mdmodel.KindDescriptor {
			return ld.names[i], true
		}
	}
	col, ok := ld.attrs[name]
	if !ok || int(i) >= len(col) {
		return nil, false
	}
	return col[i], true
}

// IndexOf returns the member index with the given descriptor, or -1.
func (ld *LevelData) IndexOf(name string) int32 {
	if i, ok := ld.byName[name]; ok {
		return i
	}
	return -1
}

// FeatureText returns per-member text appendText derives from the members'
// descriptors and geometries, built on first use and rebuilt after the
// level changes. The level keeps one slab, so every caller must pass an
// equivalent appendText (package export is the one caller).
func (ld *LevelData) FeatureText(appendText func(dst []byte, member int32) []byte) *TextSlab {
	return ld.text.get(&ld.gen, func() *TextSlab { return newTextSlab(ld.Len(), appendText) })
}

// DimData stores one dimension's level tables, finest first.
type DimData struct {
	dim    *mdmodel.Dimension
	levels []*LevelData

	// ancMu guards ancCache: per target level, the ancestor of every
	// finest-level member (computed lazily; queries then resolve roll-ups
	// with one array lookup instead of climbing the parent chain per fact).
	// It also guards rankCache: per level, the members' name-order ranks
	// (nameRanks), so result ordering compares integers, not strings; and
	// keyTermCache: per (level, stride), the roll-up scaled into a dense
	// plan's group-key term (keyTerms).
	ancMu        sync.Mutex
	ancCache     map[int][]int32
	rankCache    map[int][]int32
	keyTermCache map[[2]int32][]int32
}

// Level returns the level table by name, or nil.
func (dd *DimData) Level(name string) *LevelData {
	i := dd.dim.LevelIndex(name)
	if i < 0 {
		return nil
	}
	return dd.levels[i]
}

// LevelAt returns the level table by hierarchy position.
func (dd *DimData) LevelAt(i int) *LevelData { return dd.levels[i] }

// LevelName returns the name of the level at hierarchy position i.
func (dd *DimData) LevelName(i int) string { return dd.dim.Levels[i].Name }

// LevelIndex returns the hierarchy position of the named level, or -1.
func (dd *DimData) LevelIndex(name string) int { return dd.dim.LevelIndex(name) }

// NumLevels returns the hierarchy depth.
func (dd *DimData) NumLevels() int { return len(dd.levels) }

// Ancestor climbs from a member of the level at position from to its
// ancestor at position to (from ≤ to). Returns NoParent if any link is
// missing.
func (dd *DimData) Ancestor(from, to int, member int32) int32 {
	cur := member
	for l := from; l < to; l++ {
		if cur == NoParent {
			return NoParent
		}
		cur = dd.levels[l].Parent(cur)
	}
	return cur
}

// ancestorsFromFinest returns (building on first use) the ancestor at level
// position to for every member of the finest level.
func (dd *DimData) ancestorsFromFinest(to int) []int32 {
	dd.ancMu.Lock()
	defer dd.ancMu.Unlock()
	return dd.ancestorsLocked(to)
}

// keyTerms returns (building on first use) the roll-up to level position
// li scaled into a dense plan's group-key term: (ancestor+1)·stride for
// every finest-level member, so a member without an ancestor there adds
// slot 0's zero. A plan sums one term per level and fact.
func (dd *DimData) keyTerms(li int, stride int32) []int32 {
	dd.ancMu.Lock()
	defer dd.ancMu.Unlock()
	key := [2]int32{int32(li), stride}
	if cached, ok := dd.keyTermCache[key]; ok {
		return cached
	}
	anc := dd.ancestorsLocked(li)
	out := make([]int32, len(anc))
	for i, a := range anc {
		out[i] = (a + 1) * stride
	}
	if dd.keyTermCache == nil {
		dd.keyTermCache = map[[2]int32][]int32{}
	}
	dd.keyTermCache[key] = out
	return out
}

// ancestorsLocked is ancestorsFromFinest with dd.ancMu held.
func (dd *DimData) ancestorsLocked(to int) []int32 {
	if cached, ok := dd.ancCache[to]; ok {
		return cached
	}
	finest := dd.levels[0]
	out := make([]int32, finest.Len())
	for i := range out {
		out[i] = dd.Ancestor(0, to, int32(i))
	}
	if dd.ancCache == nil {
		dd.ancCache = map[int][]int32{}
	}
	dd.ancCache[to] = out
	return out
}

// nameRanks returns (building on first use) the name-order rank of every
// group slot of the level at position li: slot m+1 is member m and slot 0
// the "(none)" group of facts without an ancestor there. Equal names get
// equal ranks, so comparing ranks is exactly comparing names.
func (dd *DimData) nameRanks(li int) []int32 {
	dd.ancMu.Lock()
	defer dd.ancMu.Unlock()
	if cached, ok := dd.rankCache[li]; ok {
		return cached
	}
	names := dd.levels[li].names
	name := func(slot int32) string { return slotName(names, slot) }
	slots := make([]int32, len(names)+1)
	for i := range slots {
		slots[i] = int32(i)
	}
	slices.SortFunc(slots, func(a, b int32) int { return strings.Compare(name(a), name(b)) })
	rank := make([]int32, len(slots))
	for pos := 1; pos < len(slots); pos++ {
		rank[slots[pos]] = rank[slots[pos-1]]
		if name(slots[pos]) != name(slots[pos-1]) {
			rank[slots[pos]]++
		}
	}
	if dd.rankCache == nil {
		dd.rankCache = map[int][]int32{}
	}
	dd.rankCache[li] = rank
	return rank
}

// invalidateDerived drops the roll-up, key-term and name-rank caches after
// membership or descriptor changes.
func (dd *DimData) invalidateDerived() {
	dd.ancMu.Lock()
	dd.ancCache = nil
	dd.rankCache = nil
	dd.keyTermCache = nil
	dd.ancMu.Unlock()
}

// FactData stores one fact table.
type FactData struct {
	fact     *mdmodel.Fact
	n        int
	dimKeys  map[string][]int32
	measures map[string][]float64

	// packed mirrors dimKeys in bit-packed form (packed.go): one
	// dictionary-coded column per dimension at ceil(log2(cardinality))
	// bits per key, maintained incrementally by AddFact alongside the
	// unpacked column. The unpacked column stays authoritative — it is
	// what snapshots serialize and what the per-fact match and group-key
	// decode read — while compiled plans snapshot packed views for the
	// word-at-a-time predicate kernels.
	packed map[string]*packedColumn

	// version counts mutations that can change what a scan over this table
	// computes: AddFact appends, and member/attribute mutations on any
	// dimension the warehouse shares (those move roll-up ancestors and
	// filter attribute values). It is the invalidation key of artifacts —
	// a cached filter bitmap or key column is only served while the
	// version it was built under is still current.
	version atomic.Uint64

	// artifacts is the table's cross-batch artifact cache (exec_cache.go):
	// hot filter bitmaps and roll-up key columns that outlive the scan
	// that built them, within artifactBytesPerFact bytes per fact.
	artifacts artifactCache

	// colPool and maskPool recycle the batch executor's scan-scoped
	// artifacts (roll-up key columns and filter/visibility bitmaps, all
	// sized to n) so high-rate coalesced batches do not churn the GC; see
	// exec_shared.go. Entries of a stale size (n grew via AddFact) are
	// discarded on Get.
	colPool  sync.Pool
	maskPool sync.Pool

	// postMu guards posts: per dimension, the member→facts postings that
	// View.Materialize builds view masks from (postings.go), built on
	// first use and rebuilt once version moves.
	postMu sync.Mutex
	posts  map[string]*postings

	// partialPool recycles partial aggregation tables (and the
	// cell stores behind them) across queries and batches; see
	// FactData.getPartial in exec.go. A partial is rebound (fully reset) to
	// its new plan on Get, so pooled entries may carry arbitrary state from
	// any earlier query over this table.
	partialPool sync.Pool
}

// newFactData creates an empty table for fact f.
func newFactData(f *mdmodel.Fact) *FactData {
	fd := &FactData{fact: f, dimKeys: map[string][]int32{},
		measures: map[string][]float64{}, packed: map[string]*packedColumn{}}
	for _, dn := range f.Dimensions {
		fd.dimKeys[dn] = nil
		fd.packed[dn] = &packedColumn{}
	}
	for _, m := range f.Measures {
		fd.measures[m.Name] = nil
	}
	return fd
}

// Version returns the table's mutation counter (see the field comment).
func (fd *FactData) Version() uint64 { return fd.version.Load() }

// FactVersion returns fact table fact's mutation counter
// (FactData.Version), 0 for an unknown fact.
func (c *Cube) FactVersion(fact string) uint64 {
	if fd := c.facts[fact]; fd != nil {
		return fd.Version()
	}
	return 0
}

// Len returns the number of fact instances.
func (fd *FactData) Len() int { return fd.n }

// Measure returns the named measure of fact instance i and whether the
// measure exists.
func (fd *FactData) Measure(name string, i int32) (float64, bool) {
	col, ok := fd.measures[name]
	if !ok || int(i) >= len(col) {
		return 0, ok && false
	}
	return col[i], true
}

// DimKey returns fact instance i's member index into the named dimension's
// finest level and whether the fact uses that dimension.
func (fd *FactData) DimKey(dim string, i int32) (int32, bool) {
	col, ok := fd.dimKeys[dim]
	if !ok || int(i) >= len(col) {
		return NoParent, false
	}
	return col[i], true
}

// LayerData stores the objects of one thematic layer.
type LayerData struct {
	layer geomd.Layer
	names []string
	geoms []geom.Geometry

	gen     atomic.Uint64 // AddLayerObject calls (see LevelData.gen)
	ptIndex derived[*geoidx.PointIndex]
	text    derived[*TextSlab]
}

// Len returns the object count.
func (ld *LayerData) Len() int { return len(ld.names) }

// Name returns object i's name.
func (ld *LayerData) Name(i int32) string { return ld.names[i] }

// Geometry returns object i's geometry.
func (ld *LayerData) Geometry(i int32) geom.Geometry { return ld.geoms[i] }

// Type returns the layer's declared geometry type.
func (ld *LayerData) Type() geom.Type { return ld.layer.Geom }

// FeatureText is LevelData.FeatureText for the layer's objects.
func (ld *LayerData) FeatureText(appendText func(dst []byte, obj int32) []byte) *TextSlab {
	return ld.text.get(&ld.gen, func() *TextSlab { return newTextSlab(ld.Len(), appendText) })
}

// Cube is the warehouse instance store for one GeoMD schema. The schema
// held here is the designer's base model; per-session personalized schemas
// are clones that reference the same instance data.
type Cube struct {
	schema *geomd.Schema
	dims   map[string]*DimData
	facts  map[string]*FactData
	layers map[string]*LayerData // the geographic catalog: all loadable layers

	// shardParent is non-nil on a cube created by NewFactShard: the cube
	// whose dimension and layer data this shard shares. Rebind uses it to
	// verify a compiled plan and its rebinding target describe the same
	// warehouse metadata.
	shardParent *Cube
	// shardMu guards shardKids: the shards derived from this cube.
	// Member/attribute mutations on the parent must bump every shard's
	// fact-table versions too — shard scans validate cross-batch artifacts
	// against their own FactData's version, and shards share the parent's
	// member data by reference.
	shardMu   sync.Mutex
	shardKids []*Cube

	// dataGen is the dimension-data generation: it counts the mutations of
	// member and layer data — AddMember, SetMemberAttr (any attribute),
	// SetMemberGeometry, RegisterLayer and AddLayerObject — once for the
	// whole shard family, which shares that data (DataGen reads the
	// parent's). Each mutator bumps it after its write, so a reader that
	// loads a generation sees every write counted up to it. It keys the
	// memo of rule loops that read only warehouse data (prml's pure
	// Foreach): a loop whose outcome was recorded at this generation is
	// replayed, not re-run.
	dataGen atomic.Uint64
}

// New creates an empty cube for the schema.
func New(s *geomd.Schema) *Cube {
	c := &Cube{
		schema: s,
		dims:   map[string]*DimData{},
		facts:  map[string]*FactData{},
		layers: map[string]*LayerData{},
	}
	for _, d := range s.MD.Dimensions {
		dd := &DimData{dim: d}
		for _, l := range d.Levels {
			dd.levels = append(dd.levels, &LevelData{
				level:  l,
				attrs:  map[string][]any{},
				byName: map[string]int32{},
			})
		}
		c.dims[d.Name] = dd
	}
	for _, f := range s.MD.Facts {
		c.facts[f.Name] = newFactData(f)
	}
	return c
}

// Schema returns the cube's base GeoMD schema.
func (c *Cube) Schema() *geomd.Schema { return c.schema }

// NewFactShard derives a shard cube: it shares this cube's schema,
// dimension tables and layer catalog by reference but starts with empty
// fact tables of its own. The shard subsystem (internal/shard) uses it to
// hash-partition one logical fact table into independent scan units — each
// shard has its own fact columns, bitset pools and table version, so
// ingest into one shard never contends with scans over another, while
// roll-up caches and member attributes stay shared (dimension data is
// identical across shards by construction).
//
// Member and attribute loading must be complete before shards are derived:
// shards share the parent's live LevelData/DimData, so later member
// mutations affect all shards at once and must not race in-flight scans
// (the same discipline CompiledQuery already documents).
func (c *Cube) NewFactShard() *Cube {
	parent := c
	if c.shardParent != nil {
		parent = c.shardParent
	}
	s := &Cube{
		schema:      c.schema,
		dims:        c.dims,
		facts:       map[string]*FactData{},
		layers:      c.layers,
		shardParent: parent,
	}
	for _, f := range c.schema.MD.Facts {
		s.facts[f.Name] = newFactData(f)
	}
	parent.shardMu.Lock()
	parent.shardKids = append(parent.shardKids, s)
	parent.shardMu.Unlock()
	return s
}

// bumpFactVersions invalidates every fact table's artifact-cache version
// after a member or attribute mutation (roll-up ancestors and filter
// attribute columns feed every table's scans). Shards share the mutated
// member data by reference and validate artifacts against their own
// FactData versions, so the bump fans out across the whole shard family —
// whichever family member the mutation came in through.
func (c *Cube) bumpFactVersions() {
	root := c.family()
	for _, fd := range root.facts {
		fd.version.Add(1)
	}
	root.shardMu.Lock()
	kids := append([]*Cube(nil), root.shardKids...)
	root.shardMu.Unlock()
	for _, kid := range kids {
		for _, fd := range kid.facts {
			fd.version.Add(1)
		}
	}
}

// family returns the cube whose dimension and layer data this one shares:
// its shard parent, or itself.
func (c *Cube) family() *Cube {
	if c.shardParent != nil {
		return c.shardParent
	}
	return c
}

// DataGen returns the dimension-data generation (see Cube.dataGen).
func (c *Cube) DataGen() uint64 { return c.family().dataGen.Load() }

func (c *Cube) bumpDataGen() { c.family().dataGen.Add(1) }

// Dimension returns a dimension's data, or nil.
func (c *Cube) Dimension(name string) *DimData { return c.dims[name] }

// Fact returns a fact's data, or nil.
func (c *Cube) FactData(name string) *FactData { return c.facts[name] }

// Layer returns a catalog layer's data, or nil.
func (c *Cube) Layer(name string) *LayerData { return c.layers[name] }

// AddMember appends a member to a level. parent indexes the next coarser
// level (NoParent at the coarsest level). Members must therefore be loaded
// coarse-to-fine. Returns the new member's index.
func (c *Cube) AddMember(dim, level, descriptor string, parent int32) (int32, error) {
	dd := c.dims[dim]
	if dd == nil {
		return 0, fmt.Errorf("cube: unknown dimension %q", dim)
	}
	li := dd.dim.LevelIndex(level)
	if li < 0 {
		return 0, fmt.Errorf("cube: dimension %q has no level %q", dim, level)
	}
	ld := dd.levels[li]
	if li == dd.NumLevels()-1 {
		if parent != NoParent {
			return 0, fmt.Errorf("cube: member of top level %s.%s cannot have a parent", dim, level)
		}
	} else {
		up := dd.levels[li+1]
		if parent == NoParent || int(parent) >= up.Len() {
			return 0, fmt.Errorf("cube: member %q of %s.%s has invalid parent %d (next level has %d members)",
				descriptor, dim, level, parent, up.Len())
		}
	}
	dd.invalidateDerived()
	c.bumpFactVersions()
	idx := int32(ld.Len())
	ld.names = append(ld.names, descriptor)
	ld.parents = append(ld.parents, parent)
	if ld.geoms != nil {
		ld.geoms = append(ld.geoms, geomSlot{})
	}
	for k := range ld.attrs {
		ld.attrs[k] = append(ld.attrs[k], nil)
	}
	if _, dup := ld.byName[descriptor]; !dup {
		ld.byName[descriptor] = idx
	}
	ld.gen.Add(1)
	c.bumpDataGen()
	return idx, nil
}

// SetMemberAttr sets a declared attribute value on a member.
func (c *Cube) SetMemberAttr(dim, level string, member int32, attr string, v any) error {
	ld, err := c.levelData(dim, level)
	if err != nil {
		return err
	}
	a := ld.level.Attribute(attr)
	if a == nil {
		return fmt.Errorf("cube: level %s.%s has no attribute %q", dim, level, attr)
	}
	if int(member) >= ld.Len() {
		return fmt.Errorf("cube: member %d out of range for %s.%s", member, dim, level)
	}
	c.bumpFactVersions()
	if a.Kind == mdmodel.KindDescriptor {
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("cube: descriptor %q wants string", attr)
		}
		ld.names[member] = s
		ld.gen.Add(1)
		c.dims[dim].invalidateDerived()
		c.bumpDataGen()
		return nil
	}
	col := ld.attrs[attr]
	if col == nil {
		col = make([]any, ld.Len())
	}
	for len(col) < ld.Len() {
		col = append(col, nil)
	}
	col[member] = v
	ld.attrs[attr] = col
	c.bumpDataGen()
	return nil
}

// SetMemberGeometry attaches a geometry to a member. The level need not be
// spatial in the base schema — BecomeSpatial may promote it later; data can
// be staged eagerly (the usual deployment loads geometry for candidate
// levels and lets rules decide which users see it). Replacing the
// geometry of a member whose level already holds one per member is safe
// against concurrent readers; growing the level's geometry column is
// loading and must not race them.
func (c *Cube) SetMemberGeometry(dim, level string, member int32, g geom.Geometry) error {
	ld, err := c.levelData(dim, level)
	if err != nil {
		return err
	}
	if int(member) >= ld.Len() {
		return fmt.Errorf("cube: member %d out of range for %s.%s", member, dim, level)
	}
	if ld.geoms == nil {
		ld.geoms = make([]geomSlot, ld.Len())
	}
	for len(ld.geoms) < ld.Len() {
		ld.geoms = append(ld.geoms, geomSlot{})
	}
	ld.geoms[member].p.Store(&g)
	ld.gen.Add(1)
	c.bumpDataGen()
	return nil
}

func (c *Cube) levelData(dim, level string) (*LevelData, error) {
	dd := c.dims[dim]
	if dd == nil {
		return nil, fmt.Errorf("cube: unknown dimension %q", dim)
	}
	ld := dd.Level(level)
	if ld == nil {
		return nil, fmt.Errorf("cube: dimension %q has no level %q", dim, level)
	}
	return ld, nil
}

// AddFact appends a fact instance. keys maps every fact dimension to a
// member index of that dimension's finest level; measures maps measure
// names to values (missing measures default to 0).
func (c *Cube) AddFact(fact string, keys map[string]int32, measures map[string]float64) error {
	fd := c.facts[fact]
	if fd == nil {
		return fmt.Errorf("cube: unknown fact %q", fact)
	}
	for _, dn := range fd.fact.Dimensions {
		k, ok := keys[dn]
		if !ok {
			return fmt.Errorf("cube: fact %q instance missing key for dimension %q", fact, dn)
		}
		finest := c.dims[dn].levels[0]
		if k < 0 || int(k) >= finest.Len() {
			return fmt.Errorf("cube: fact %q key %d out of range for %s (%d members)",
				fact, k, dn, finest.Len())
		}
	}
	for mn := range measures {
		if fd.fact.Measure(mn) == nil {
			return fmt.Errorf("cube: fact %q has no measure %q", fact, mn)
		}
	}
	for _, dn := range fd.fact.Dimensions {
		fd.dimKeys[dn] = append(fd.dimKeys[dn], keys[dn])
		fd.packed[dn].append(keys[dn])
	}
	for _, m := range fd.fact.Measures {
		fd.measures[m.Name] = append(fd.measures[m.Name], measures[m.Name])
	}
	fd.n++
	fd.version.Add(1)
	return nil
}

// RegisterLayer declares a layer in the geographic catalog (the pool of
// external spatial data AddLayer rules may pull in) and returns its data
// holder for object loading.
func (c *Cube) RegisterLayer(name string, t geom.Type) (*LayerData, error) {
	if name == "" {
		return nil, fmt.Errorf("cube: empty layer name")
	}
	if _, ok := c.layers[name]; ok {
		return nil, fmt.Errorf("cube: layer %q already registered", name)
	}
	ld := &LayerData{layer: geomd.Layer{Name: name, Geom: t}}
	c.layers[name] = ld
	c.bumpDataGen()
	return ld, nil
}

// AddLayerObject appends a named geometry to a catalog layer; the geometry
// type must match the layer declaration.
func (c *Cube) AddLayerObject(layer, name string, g geom.Geometry) (int32, error) {
	ld := c.layers[layer]
	if ld == nil {
		return 0, fmt.Errorf("cube: unknown layer %q", layer)
	}
	if g == nil || g.Type() != ld.layer.Geom {
		return 0, fmt.Errorf("cube: layer %q wants %s objects", layer, ld.layer.Geom)
	}
	idx := int32(ld.Len())
	ld.names = append(ld.names, name)
	ld.geoms = append(ld.geoms, g)
	ld.gen.Add(1)
	c.bumpDataGen()
	return idx, nil
}

// Layers returns the catalog layer names (unordered).
func (c *Cube) Layers() []string {
	out := make([]string, 0, len(c.layers))
	for n := range c.layers {
		out = append(out, n)
	}
	return out
}

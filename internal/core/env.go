package core

import (
	"fmt"

	"sdwp/internal/cube"
	"sdwp/internal/geom"
	"sdwp/internal/prml"
	"sdwp/internal/usermodel"
)

// sessionEnv binds the PRML evaluator to one session. It implements
// prml.Env.
//
// Model-path semantics (Section 4.2.2 of the paper, operationalized):
//
//   - SUS.<UserClass>.<role/prop>... resolves over the decision maker's
//     profile graph.
//   - MD./GeoMD. paths name warehouse elements: an optional fact segment,
//     then a dimension (its finest level) optionally refined by a level
//     name, or a thematic layer of the session's personalized schema.
//   - A trailing "geometry" segment on an *unbound* element denotes the
//     COLLECTION of all its instance geometries, so
//     Distance(x, GeoMD.Airport.geometry) reads "distance from x to the
//     nearest airport" — the paper's "near an airport" idiom. Unbound
//     level geometry requires the level to be spatial in the session
//     schema (i.e. a BecomeSpatial rule ran); unbound layer geometry
//     requires the layer to have been added by an AddLayer rule.
//   - During SpatialSelect and tracking-event evaluation, the selection's
//     target element is *bound* to the instance under consideration, so the
//     same path denotes that instance's own geometry (the paper's
//     Example 5.3 event condition).
type sessionEnv struct {
	s *Session
	// sel holds the phase's selections until publish.
	sel *cube.ViewBuilder

	bound     bool
	boundElem elemRef
	boundInst prml.Instance
}

// elemRef identifies a warehouse element a path resolves to.
type elemRef struct {
	kind  elemKind
	fact  string // elemFact
	dim   string // elemLevel
	level string // elemLevel
	layer string // elemLayer
}

type elemKind uint8

const (
	elemLevel elemKind = iota + 1
	elemLayer
	elemFact
)

func (e elemRef) String() string {
	switch e.kind {
	case elemLevel:
		return e.dim + "." + e.level
	case elemLayer:
		return "layer " + e.layer
	case elemFact:
		return "fact " + e.fact
	}
	return "?"
}

// bind sets the current instance binding for the element denoted by path.
func (env *sessionEnv) bind(p *prml.PathExpr, inst prml.Instance) {
	if elem, _, err := env.resolveElem(p); err == nil {
		env.bound = true
		env.boundElem = elem
		env.boundInst = inst
	}
}

func (env *sessionEnv) unbind() { env.bound = false }

// resolveElem maps a model path to the element it denotes plus trailing
// segments (attribute / geometry / nothing).
func (env *sessionEnv) resolveElem(p *prml.PathExpr) (elemRef, []string, error) {
	segs := p.Segs
	if len(segs) == 0 {
		return elemRef{}, nil, fmt.Errorf("core: path %s needs at least one segment", p.Root)
	}
	schema := env.s.Schema()
	md := schema.MD

	i := 0
	var fact string
	// Layers are visible only once an AddLayer rule put them in the
	// session's schema (GeoMD prefix; the plain MD model has no layers).
	if p.Root == prml.RootGeoMD {
		if _, ok := schema.Layer(segs[0]); ok {
			return elemRef{kind: elemLayer, layer: segs[0]}, segs[1:], nil
		}
	}
	if f := md.Fact(segs[i]); f != nil {
		fact = f.Name
		i++
		if i == len(segs) {
			return elemRef{kind: elemFact, fact: fact}, nil, nil
		}
	}
	d := md.Dimension(segs[i])
	if d == nil {
		return elemRef{}, nil, fmt.Errorf("core: %s does not name a layer, fact or dimension", p)
	}
	level := d.Finest().Name
	i++
	for i < len(segs) && d.Level(segs[i]) != nil {
		level = segs[i]
		i++
	}
	return elemRef{kind: elemLevel, dim: d.Name, level: level}, segs[i:], nil
}

// ResolvePath implements prml.Env.
func (env *sessionEnv) ResolvePath(p *prml.PathExpr) (prml.Value, error) {
	switch p.Root {
	case prml.RootSUS:
		return env.resolveSUS(p)
	case prml.RootMD, prml.RootGeoMD:
		return env.resolveModel(p)
	}
	return prml.Value{}, fmt.Errorf("core: unknown path root %q", p.Root)
}

func (env *sessionEnv) resolveSUS(p *prml.PathExpr) (prml.Value, error) {
	userClass := env.s.user.Class().Name
	if len(p.Segs) == 0 || p.Segs[0] != userClass {
		return prml.Value{}, fmt.Errorf("core: SUS path must start with the user class %q, got %s", userClass, p)
	}
	v, err := env.s.user.Resolve(p.Segs[1:])
	if err != nil {
		return prml.Value{}, err
	}
	if _, isEntity := v.(*usermodel.Entity); isEntity {
		return prml.Value{}, fmt.Errorf("core: %s resolves to an entity, not a value", p)
	}
	return prml.FromAny(v)
}

func (env *sessionEnv) resolveModel(p *prml.PathExpr) (prml.Value, error) {
	elem, rest, err := env.resolveElem(p)
	if err != nil {
		return prml.Value{}, err
	}
	// Bound element: the path denotes the instance under consideration.
	if env.bound && elem == env.boundElem {
		if len(rest) == 0 {
			return prml.InstVal(env.boundInst), nil
		}
		return env.Field(env.boundInst, rest)
	}
	// Unbound geometry: the collection of all instance geometries.
	if len(rest) == 1 && rest[0] == "geometry" {
		return env.elementGeometry(elem)
	}
	if len(rest) == 0 {
		return prml.Value{}, fmt.Errorf("core: %s denotes the element %s; use it in Foreach or a selection target", p, elem)
	}
	return prml.Value{}, fmt.Errorf("core: %s: attribute %q needs an instance context (Foreach variable or selection binding)", p, rest[0])
}

// elementGeometry gathers all geometries of a level or layer.
func (env *sessionEnv) elementGeometry(elem elemRef) (prml.Value, error) {
	c := env.s.engine.cube
	schema := env.s.Schema()
	switch elem.kind {
	case elemLayer:
		ld := c.Layer(elem.layer)
		if ld == nil {
			return prml.Value{}, fmt.Errorf("core: layer %q has no catalog data", elem.layer)
		}
		geoms := make([]geom.Geometry, ld.Len())
		for i := int32(0); int(i) < ld.Len(); i++ {
			geoms[i] = ld.Geometry(i)
		}
		return prml.GeomVal(geom.Collection{Geoms: geoms}), nil
	case elemLevel:
		if !schema.IsSpatial(elem.dim, elem.level) {
			return prml.Value{}, fmt.Errorf("core: level %s is not spatial in this session's schema (no BecomeSpatial rule fired)", elem)
		}
		dd := c.Dimension(elem.dim)
		ld := dd.Level(elem.level)
		var geoms []geom.Geometry
		for i := int32(0); int(i) < ld.Len(); i++ {
			if g := ld.Geometry(i); g != nil {
				geoms = append(geoms, g)
			}
		}
		return prml.GeomVal(geom.Collection{Geoms: geoms}), nil
	}
	return prml.Value{}, fmt.Errorf("core: %s has no geometry", elem)
}

// Field implements prml.Env: navigation from a loop-bound instance.
func (env *sessionEnv) Field(inst prml.Instance, segs []string) (prml.Value, error) {
	if len(segs) == 0 {
		return prml.InstVal(inst), nil
	}
	c := env.s.engine.cube
	switch inst.Kind {
	case prml.InstMember:
		dd := c.Dimension(inst.Dimension)
		if dd == nil {
			return prml.Value{}, fmt.Errorf("core: instance %s references unknown dimension", inst)
		}
		ld := dd.Level(inst.Level)
		if ld == nil {
			return prml.Value{}, fmt.Errorf("core: instance %s references unknown level", inst)
		}
		seg := segs[0]
		if seg == "geometry" {
			g := ld.Geometry(inst.Index)
			if g == nil {
				return prml.Value{}, fmt.Errorf("core: member %s has no geometry loaded", inst)
			}
			if len(segs) > 1 {
				return prml.Value{}, fmt.Errorf("core: cannot navigate beyond geometry")
			}
			return prml.GeomVal(g), nil
		}
		// Roll-up navigation: s.City.name climbs to the ancestor member.
		from := dd.LevelIndex(inst.Level)
		if to := dd.LevelIndex(seg); to > from && from >= 0 {
			anc := dd.Ancestor(from, to, inst.Index)
			if anc < 0 {
				return prml.Value{}, fmt.Errorf("core: member %s has no ancestor at level %s", inst, seg)
			}
			up := prml.Instance{Kind: prml.InstMember, Dimension: inst.Dimension,
				Level: seg, Index: anc}
			return env.Field(up, segs[1:])
		}
		if len(segs) > 1 {
			return prml.Value{}, fmt.Errorf("core: cannot navigate through attribute %q", seg)
		}
		v, ok := ld.Attr(seg, inst.Index)
		if !ok {
			return prml.Value{}, fmt.Errorf("core: level %s.%s has no attribute %q", inst.Dimension, inst.Level, seg)
		}
		return prml.FromAny(v)

	case prml.InstLayerObject:
		ld := c.Layer(inst.Layer)
		if ld == nil {
			return prml.Value{}, fmt.Errorf("core: instance %s references unknown layer", inst)
		}
		if len(segs) > 1 {
			return prml.Value{}, fmt.Errorf("core: cannot navigate beyond layer object fields")
		}
		switch segs[0] {
		case "geometry":
			return prml.GeomVal(ld.Geometry(inst.Index)), nil
		case "name":
			return prml.StringVal(ld.Name(inst.Index)), nil
		}
		return prml.Value{}, fmt.Errorf("core: layer objects have geometry and name, not %q", segs[0])

	case prml.InstFact:
		return env.factField(inst, segs)
	}
	return prml.Value{}, fmt.Errorf("core: cannot navigate from %s", inst)
}

// factField navigates from a fact instance: a measure name yields its
// value; a dimension name yields the fact's member at that dimension's
// finest level (navigation may continue from there).
func (env *sessionEnv) factField(inst prml.Instance, segs []string) (prml.Value, error) {
	c := env.s.engine.cube
	fd := c.FactData(inst.Fact)
	if fd == nil {
		return prml.Value{}, fmt.Errorf("core: instance %s references unknown fact", inst)
	}
	seg := segs[0]
	if v, ok := fd.Measure(seg, inst.Index); ok {
		if len(segs) > 1 {
			return prml.Value{}, fmt.Errorf("core: cannot navigate through measure %q", seg)
		}
		return prml.NumberVal(v), nil
	}
	if key, ok := fd.DimKey(seg, inst.Index); ok {
		dd := c.Dimension(seg)
		member := prml.Instance{Kind: prml.InstMember, Dimension: seg,
			Level: dd.LevelName(0), Index: key}
		return env.Field(member, segs[1:])
	}
	return prml.Value{}, fmt.Errorf("core: fact %s has no measure or dimension %q", inst.Fact, seg)
}

// SetContent implements prml.Env: acquisition into the user model.
func (env *sessionEnv) SetContent(target *prml.PathExpr, v prml.Value) error {
	if target.Root != prml.RootSUS {
		return fmt.Errorf("core: SetContent targets the user model; %s is not a SUS path", target)
	}
	userClass := env.s.user.Class().Name
	if len(target.Segs) < 2 || target.Segs[0] != userClass {
		return fmt.Errorf("core: SetContent target must be SUS.%s.<path>, got %s", userClass, target)
	}
	return env.s.user.SetPath(target.Segs[1:], v.ToAny())
}

// SelectInstance implements prml.Env: adds the instance to the phase's
// selections, which publish adds to the session's personalized view.
func (env *sessionEnv) SelectInstance(v prml.Value) error {
	if v.Kind != prml.KindInstance {
		return fmt.Errorf("core: SelectInstance needs an instance, got %s", v.Kind)
	}
	if env.sel == nil {
		env.sel = env.s.View().Builder()
	}
	inst := v.Inst
	switch inst.Kind {
	case prml.InstMember:
		return env.sel.SelectMember(inst.Dimension, inst.Level, inst.Index)
	case prml.InstFact:
		return env.sel.SelectFact(inst.Fact, inst.Index)
	}
	return fmt.Errorf("core: cannot select %s (layer objects are reference data, not warehouse instances)", inst)
}

// exec runs one compiled rule body under the user's rule-run lock; its
// selections join the phase's.
func (env *sessionEnv) exec(p *prml.Plan) (prml.Stats, error) {
	env.s.rulesMu.Lock()
	defer env.s.rulesMu.Unlock()
	return prml.NewEvaluator(env).ExecPlan(p)
}

// publish adds the phase's selections to the session's view in one step,
// ORed into the view of any phase that published meanwhile.
func (env *sessionEnv) publish() {
	if env.sel != nil {
		env.s.mu.Lock()
		env.s.view = env.sel.Onto(env.s.view)
		env.s.mu.Unlock()
	}
}

// BecomeSpatial implements prml.Env: promotes a level of the session's
// schema.
func (env *sessionEnv) BecomeSpatial(target *prml.PathExpr, g geom.Type) error {
	elem, rest, err := env.resolveElem(target)
	if err != nil {
		return err
	}
	if elem.kind != elemLevel {
		return fmt.Errorf("core: BecomeSpatial target %s is not a dimension level", target)
	}
	if len(rest) > 1 || (len(rest) == 1 && rest[0] != "geometry") {
		return fmt.Errorf("core: BecomeSpatial target %s has trailing segments %v", target, rest)
	}
	s := env.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.schema.BecomeSpatial(elem.dim, elem.level, g)
}

// AddLayer implements prml.Env: makes a catalog layer visible in the
// session's schema. The layer's data must exist in the geographic catalog
// (the engine's stand-in for the external spatial data sources of the
// paper's Section 1 — geoportals, OSM, etc.).
func (env *sessionEnv) AddLayer(name string, g geom.Type) error {
	ld := env.s.engine.cube.Layer(name)
	if ld == nil {
		return fmt.Errorf("core: layer %q is not available in the geographic catalog", name)
	}
	if ld.Type() != g {
		return fmt.Errorf("core: catalog layer %q has type %s, rule wants %s", name, ld.Type(), g)
	}
	s := env.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.schema.AddLayer(name, g)
}

// Iterate implements prml.Env: Foreach domains.
func (env *sessionEnv) Iterate(p *prml.PathExpr, fn func(prml.Instance) error) error {
	elem, rest, err := env.resolveElem(p)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("core: cannot iterate %s (trailing %v)", p, rest)
	}
	c := env.s.engine.cube
	switch elem.kind {
	case elemLayer:
		ld := c.Layer(elem.layer)
		if ld == nil {
			return fmt.Errorf("core: layer %q has no catalog data", elem.layer)
		}
		for i := int32(0); int(i) < ld.Len(); i++ {
			if err := fn(prml.Instance{Kind: prml.InstLayerObject, Layer: elem.layer, Index: i}); err != nil {
				return err
			}
		}
		return nil
	case elemLevel:
		ld := c.Dimension(elem.dim).Level(elem.level)
		for i := int32(0); int(i) < ld.Len(); i++ {
			if err := fn(prml.Instance{Kind: prml.InstMember, Dimension: elem.dim, Level: elem.level, Index: i}); err != nil {
				return err
			}
		}
		return nil
	case elemFact:
		fd := c.FactData(elem.fact)
		for i := int32(0); int(i) < fd.Len(); i++ {
			if err := fn(prml.Instance{Kind: prml.InstFact, Fact: elem.fact, Index: i}); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("core: cannot iterate %s", p)
}

// LoopData implements prml.Env. Each source must resolve, through the
// session's schema, to a member level or a catalog layer with no trailing
// segments: the key is then the engine (its cube and distance metric),
// the cube's dimension-data generation and the resolved elements. A fact
// domain, a source that does not resolve or one with trailing segments
// has no key; the loop then runs (and errors) as it would without one.
func (env *sessionEnv) LoopData(sources []*prml.PathExpr) (prml.LoopKey, bool) {
	e := env.s.engine
	key := prml.LoopKey{Store: e, Gen: e.cube.DataGen(), Domains: make([]string, len(sources))}
	for i, p := range sources {
		elem, rest, err := env.resolveElem(p)
		if err != nil || len(rest) != 0 || elem.kind == elemFact {
			return prml.LoopKey{}, false
		}
		key.Domains[i] = elem.String()
	}
	return key, true
}

// Param implements prml.Env.
func (env *sessionEnv) Param(name string) (prml.Value, bool) {
	return env.s.engine.Param(name)
}

// DistanceKm implements prml.Env.
func (env *sessionEnv) DistanceKm(a, b geom.Geometry) float64 {
	if env.s.engine.opts.Planar {
		return geom.Distance(a, b)
	}
	return geom.GeodeticDistance(a, b)
}

// LengthKm implements prml.Env.
func (env *sessionEnv) LengthKm(g geom.Geometry) float64 {
	if env.s.engine.opts.Planar {
		return geom.MinLength(g)
	}
	return geom.GeodeticMinLength(g)
}

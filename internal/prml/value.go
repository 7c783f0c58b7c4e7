package prml

import (
	"fmt"
	"slices"

	"sdwp/internal/geom"
)

// Kind enumerates runtime value kinds.
type Kind uint8

const (
	KindNull Kind = iota
	KindBool
	KindNumber
	KindString
	KindGeom
	KindInstance
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindGeom:
		return "geometry"
	case KindInstance:
		return "instance"
	default:
		return "?"
	}
}

// InstanceKind distinguishes what an Instance value refers to.
type InstanceKind uint8

const (
	// InstMember is a member of a dimension level.
	InstMember InstanceKind = iota + 1
	// InstLayerObject is an object of a thematic layer.
	InstLayerObject
	// InstFact is a fact instance.
	InstFact
)

// Instance is a reference to a warehouse instance — what Foreach variables
// bind to and what SelectInstance receives. The Env owns the meaning of the
// reference.
type Instance struct {
	Kind      InstanceKind
	Dimension string // InstMember
	Level     string // InstMember
	Layer     string // InstLayerObject
	Fact      string // InstFact
	Index     int32
}

// String renders the reference for diagnostics.
func (i Instance) String() string {
	switch i.Kind {
	case InstMember:
		return fmt.Sprintf("%s.%s[%d]", i.Dimension, i.Level, i.Index)
	case InstLayerObject:
		return fmt.Sprintf("layer %s[%d]", i.Layer, i.Index)
	case InstFact:
		return fmt.Sprintf("fact %s[%d]", i.Fact, i.Index)
	default:
		return "instance(?)"
	}
}

// Value is a PRML runtime value.
type Value struct {
	Kind Kind
	Bool bool
	Num  float64
	Str  string
	Geom geom.Geometry
	Inst Instance
}

// Null returns the null value.
func Null() Value { return Value{} }

// BoolVal wraps a bool.
func BoolVal(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// NumberVal wraps a number.
func NumberVal(f float64) Value { return Value{Kind: KindNumber, Num: f} }

// StringVal wraps a string.
func StringVal(s string) Value { return Value{Kind: KindString, Str: s} }

// GeomVal wraps a geometry.
func GeomVal(g geom.Geometry) Value { return Value{Kind: KindGeom, Geom: g} }

// InstVal wraps an instance reference.
func InstVal(i Instance) Value { return Value{Kind: KindInstance, Inst: i} }

// FromAny converts a dynamically typed Go value (as stored by the user
// model) into a Value.
func FromAny(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return Null(), nil
	case bool:
		return BoolVal(x), nil
	case float64:
		return NumberVal(x), nil
	case float32:
		return NumberVal(float64(x)), nil
	case int:
		return NumberVal(float64(x)), nil
	case int32:
		return NumberVal(float64(x)), nil
	case int64:
		return NumberVal(float64(x)), nil
	case string:
		return StringVal(x), nil
	case geom.Geometry:
		return GeomVal(x), nil
	case Value:
		return x, nil
	case Instance:
		return InstVal(x), nil
	}
	return Value{}, fmt.Errorf("prml: cannot convert %T to a PRML value", v)
}

// ToAny converts a Value back to a dynamically typed Go value.
func (v Value) ToAny() any {
	switch v.Kind {
	case KindBool:
		return v.Bool
	case KindNumber:
		return v.Num
	case KindString:
		return v.Str
	case KindGeom:
		return v.Geom
	case KindInstance:
		return v.Inst
	default:
		return nil
	}
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "null"
	case KindBool:
		return fmt.Sprintf("%v", v.Bool)
	case KindNumber:
		return trimFloat(v.Num)
	case KindString:
		return fmt.Sprintf("%q", v.Str)
	case KindGeom:
		if v.Geom == nil {
			return "geometry(nil)"
		}
		return v.Geom.WKT()
	case KindInstance:
		return v.Inst.String()
	default:
		return "?"
	}
}

// LoopKey identifies the data a pure Foreach reads (Env.LoopData).
type LoopKey struct {
	// Store is the Env's identity for the warehouse and its distance
	// metric; it must be comparable.
	Store any
	// Gen is the warehouse's data generation: it moves with every change
	// to the data the loop may read.
	Gen uint64
	// Domains names the element each source resolved to.
	Domains []string
}

func (k *LoopKey) equal(o *LoopKey) bool {
	return k.Store == o.Store && k.Gen == o.Gen && slices.Equal(k.Domains, o.Domains)
}

// Env binds the rule evaluator to the warehouse: path resolution over the
// three conceptual models (SUS, MD, GeoMD), iteration domains for Foreach,
// designer parameters, the four personalization actions, and the distance
// metric (geodetic kilometres in the reference engine).
type Env interface {
	// ResolvePath resolves a model-rooted path to a value.
	ResolvePath(p *PathExpr) (Value, error)
	// Field resolves trailing path segments from a loop-bound instance
	// (e.g. s.geometry, c.name).
	Field(inst Instance, segs []string) (Value, error)
	// Iterate enumerates the instances denoted by a model path for Foreach.
	Iterate(p *PathExpr, fn func(Instance) error) error
	// Param returns a designer-defined constant (e.g. threshold).
	Param(name string) (Value, bool)
	// LoopData names the data a pure Foreach over sources reads (see
	// plan.go): the instances the sources denote, their fields and the
	// distance metric. Equal keys must mean equal data. ok is false when
	// the Env cannot name it; the loop then runs.
	LoopData(sources []*PathExpr) (key LoopKey, ok bool)

	// SetContent performs the acquisition action.
	SetContent(target *PathExpr, v Value) error
	// SelectInstance performs the instance-selection action.
	SelectInstance(v Value) error
	// BecomeSpatial performs the schema promotion action.
	BecomeSpatial(target *PathExpr, g geom.Type) error
	// AddLayer performs the layer-addition action.
	AddLayer(name string, g geom.Type) error

	// DistanceKm returns the distance between two geometries in km.
	DistanceKm(a, b geom.Geometry) float64
	// LengthKm returns the unary Distance of a geometry in km (the paper's
	// Example 5.3 usage; see geom.GeodeticMinLength).
	LengthKm(g geom.Geometry) float64
}

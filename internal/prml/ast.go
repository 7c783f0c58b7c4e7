// Package prml implements the paper's spatial extension of PRML, the
// Personalization Rules Modeling Language: a rule-based Event-Condition-
// Action language originally defined for Web applications and adapted here
// to spatial data warehouses (paper Section 4.2 and Fig. 5).
//
// The package provides the full language pipeline: lexer, recursive-descent
// parser, AST (the executable counterpart of the Fig. 5 metamodel), a
// canonical printer, a static analyzer, a compiler from rules to
// executable plans (plan.go), and the evaluator that runs them against the
// warehouse through the Env interface (implemented by package core).
//
// The concrete syntax follows the paper's examples:
//
//	Rule:addSpatiality When SessionStart do
//	  If (SUS.DecisionMaker.dm2role.name = 'RegionalSalesManager') then
//	    AddLayer('Airport', POINT)
//	    BecomeSpatial(MD.Sales.Store.geometry, POINT)
//	  endIf
//	endWhen
package prml

import (
	"fmt"
	"strings"

	"sdwp/internal/geom"
)

// Pos is a source position (1-based line and column).
type Pos struct {
	Line, Col int
}

// String renders "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// EventKind enumerates the rule trigger events of the metamodel.
type EventKind uint8

const (
	// EvSessionStart fires when the user logs into an analysis session.
	EvSessionStart EventKind = iota + 1
	// EvSessionEnd fires when the analysis session terminates.
	EvSessionEnd
	// EvSpatialSelection fires when the user performs a spatial selection
	// matching the event's target element and spatial expression
	// (Section 4.2.1).
	EvSpatialSelection
)

// String names the event kind with the paper's spelling.
func (k EventKind) String() string {
	switch k {
	case EvSessionStart:
		return "SessionStart"
	case EvSessionEnd:
		return "SessionEnd"
	case EvSpatialSelection:
		return "SpatialSelection"
	default:
		return "?"
	}
}

// Event is a rule trigger. Target and Cond are set only for
// EvSpatialSelection.
type Event struct {
	Kind   EventKind
	Target *PathExpr // the GeoMD element whose instances were selected
	Cond   Expr      // the spatial expression of the selection
	Pos    Pos
}

// Rule is one PRML personalization rule.
type Rule struct {
	Name  string
	Event Event
	Body  []Stmt
	Pos   Pos
}

// Stmt is a statement in a rule body.
type Stmt interface {
	stmtNode()
	// StmtPos returns the statement's source position.
	StmtPos() Pos
}

// IfStmt is "If (cond) then ... [else ...] endIf".
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Pos  Pos
}

// ForeachStmt is "Foreach v1, v2 in (src1, src2) ... endForeach". Multiple
// variables iterate the cartesian product of their sources, as in the
// paper's Example 5.3 (Foreach t, c, a in (GeoMD.Train, GeoMD.Store.City,
// GeoMD.Airport)).
type ForeachStmt struct {
	Vars    []string
	Sources []*PathExpr
	Body    []Stmt
	Pos     Pos
}

// SetContentStmt is the acquisition action SetContent(property, value).
type SetContentStmt struct {
	Target *PathExpr
	Value  Expr
	Pos    Pos
}

// SelectInstanceStmt is the instance action SelectInstance(i).
type SelectInstanceStmt struct {
	Target Expr
	Pos    Pos
}

// BecomeSpatialStmt is the schema action BecomeSpatial(element, type).
type BecomeSpatialStmt struct {
	Target *PathExpr
	Geom   geom.Type
	Pos    Pos
}

// AddLayerStmt is the schema action AddLayer('name', type).
type AddLayerStmt struct {
	Layer string
	Geom  geom.Type
	Pos   Pos
}

func (*IfStmt) stmtNode()             {}
func (*ForeachStmt) stmtNode()        {}
func (*SetContentStmt) stmtNode()     {}
func (*SelectInstanceStmt) stmtNode() {}
func (*BecomeSpatialStmt) stmtNode()  {}
func (*AddLayerStmt) stmtNode()       {}

func (s *IfStmt) StmtPos() Pos             { return s.Pos }
func (s *ForeachStmt) StmtPos() Pos        { return s.Pos }
func (s *SetContentStmt) StmtPos() Pos     { return s.Pos }
func (s *SelectInstanceStmt) StmtPos() Pos { return s.Pos }
func (s *BecomeSpatialStmt) StmtPos() Pos  { return s.Pos }
func (s *AddLayerStmt) StmtPos() Pos       { return s.Pos }

// Expr is an expression node.
type Expr interface {
	exprNode()
	// ExprPos returns the expression's source position.
	ExprPos() Pos
}

// NumberLit is a numeric literal, possibly carrying a distance unit. Value
// is stored canonically in the unit system of the Distance operator
// (kilometres): "5km" has Value 5, "500m" has Value 0.5.
type NumberLit struct {
	Value float64
	Unit  string // "", "km" or "m"
	Pos   Pos
}

// StringLit is a quoted string literal.
type StringLit struct {
	Value string
	Pos   Pos
}

// BoolLit is true or false.
type BoolLit struct {
	Value bool
	Pos   Pos
}

// Path roots recognized by the language (Section 4.2.2).
const (
	RootSUS   = "SUS"   // the spatial-aware user model
	RootMD    = "MD"    // the multidimensional model
	RootGeoMD = "GeoMD" // the geographic multidimensional model
)

// PathExpr is a dotted path expression. Root is SUS, MD or GeoMD for model
// paths, or a loop-variable/parameter name otherwise.
type PathExpr struct {
	Root string
	Segs []string
	Pos  Pos
}

// IsModelPath reports whether the path is rooted at one of the three model
// prefixes.
func (p *PathExpr) IsModelPath() bool {
	return p.Root == RootSUS || p.Root == RootMD || p.Root == RootGeoMD
}

// String renders the dotted path.
func (p *PathExpr) String() string {
	if len(p.Segs) == 0 {
		return p.Root
	}
	return p.Root + "." + strings.Join(p.Segs, ".")
}

// BinOp enumerates binary operators.
type BinOp uint8

const (
	OpEq BinOp = iota + 1 // =
	OpNe                  // <>
	OpLt                  // <
	OpLe                  // <=
	OpGt                  // >
	OpGe                  // >=
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpAnd
	OpOr
)

// String renders the operator's concrete syntax.
func (o BinOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	default:
		return "?"
	}
}

// BinaryExpr is "L op R".
type BinaryExpr struct {
	Op   BinOp
	L, R Expr
	Pos  Pos
}

// UnOp enumerates unary operators.
type UnOp uint8

const (
	OpNot UnOp = iota + 1
	OpNeg
)

// UnaryExpr is "not X" or "-X".
type UnaryExpr struct {
	Op  UnOp
	X   Expr
	Pos Pos
}

// SpatialOp enumerates the spatial operators the paper adds to PRML
// (Section 4.2.3): the five boolean topological relations, numeric
// Distance, and geometric Intersection.
type SpatialOp uint8

const (
	SpIntersect SpatialOp = iota + 1
	SpDisjoint
	SpCross
	SpInside
	SpEquals
	SpDistance
	SpIntersection
)

// String names the operator with the paper's spelling.
func (o SpatialOp) String() string {
	switch o {
	case SpIntersect:
		return "Intersect"
	case SpDisjoint:
		return "Disjoint"
	case SpCross:
		return "Cross"
	case SpInside:
		return "Inside"
	case SpEquals:
		return "Equals"
	case SpDistance:
		return "Distance"
	case SpIntersection:
		return "Intersection"
	default:
		return "?"
	}
}

// spatialOpByName maps concrete syntax to operators.
var spatialOpByName = map[string]SpatialOp{
	"Intersect":    SpIntersect,
	"Disjoint":     SpDisjoint,
	"Cross":        SpCross,
	"Inside":       SpInside,
	"Equals":       SpEquals,
	"Distance":     SpDistance,
	"Intersection": SpIntersection,
}

// CallExpr is a spatial operator application.
type CallExpr struct {
	Op   SpatialOp
	Args []Expr
	Pos  Pos
}

func (*NumberLit) exprNode()  {}
func (*StringLit) exprNode()  {}
func (*BoolLit) exprNode()    {}
func (*PathExpr) exprNode()   {}
func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}

func (e *NumberLit) ExprPos() Pos  { return e.Pos }
func (e *StringLit) ExprPos() Pos  { return e.Pos }
func (e *BoolLit) ExprPos() Pos    { return e.Pos }
func (e *PathExpr) ExprPos() Pos   { return e.Pos }
func (e *BinaryExpr) ExprPos() Pos { return e.Pos }
func (e *UnaryExpr) ExprPos() Pos  { return e.Pos }
func (e *CallExpr) ExprPos() Pos   { return e.Pos }

// RuleKind classifies rules for the two-phase personalization process of
// Fig. 1: schema rules reshape the model, instance rules select data, and
// tracking rules acquire user knowledge from selection events.
type RuleKind uint8

const (
	// RuleSchema rules contain BecomeSpatial or AddLayer actions.
	RuleSchema RuleKind = iota + 1
	// RuleInstance rules select instances but do not reshape the schema.
	RuleInstance
	// RuleTracking rules are triggered by SpatialSelection events and only
	// acquire knowledge (SetContent).
	RuleTracking
	// RuleOther rules do none of the above (pure acquisition on session
	// events).
	RuleOther
)

// String names the rule kind.
func (k RuleKind) String() string {
	switch k {
	case RuleSchema:
		return "schema"
	case RuleInstance:
		return "instance"
	case RuleTracking:
		return "tracking"
	case RuleOther:
		return "other"
	default:
		return "?"
	}
}

// Classify determines a rule's kind. Rules that both reshape the schema and
// select instances classify as schema rules (they must run in the schema
// phase; their selections apply afterwards), mirroring the paper's process
// where TrainAirportCity adds a layer and then selects cities.
func Classify(r *Rule) RuleKind {
	if r.Event.Kind == EvSpatialSelection {
		return RuleTracking
	}
	var hasSchema, hasSelect bool
	walkStmts(r.Body, func(s Stmt) {
		switch s.(type) {
		case *BecomeSpatialStmt, *AddLayerStmt:
			hasSchema = true
		case *SelectInstanceStmt:
			hasSelect = true
		}
	})
	switch {
	case hasSchema:
		return RuleSchema
	case hasSelect:
		return RuleInstance
	default:
		return RuleOther
	}
}

// walkStmts visits every statement in a body, recursively.
func walkStmts(body []Stmt, fn func(Stmt)) {
	for _, s := range body {
		fn(s)
		switch st := s.(type) {
		case *IfStmt:
			walkStmts(st.Then, fn)
			walkStmts(st.Else, fn)
		case *ForeachStmt:
			walkStmts(st.Body, fn)
		}
	}
}

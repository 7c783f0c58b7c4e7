package prml

import (
	"fmt"

	"sdwp/internal/geom"
)

// Parse parses PRML source containing any number of rules.
func Parse(src string) ([]*Rule, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var rules []*Rule
	for !p.at(tokEOF) {
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("prml: no rules in input")
	}
	return rules, nil
}

// ParseRule parses source containing exactly one rule.
func ParseRule(src string) (*Rule, error) {
	rules, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(rules) != 1 {
		return nil, fmt.Errorf("prml: expected exactly one rule, got %d", len(rules))
	}
	return rules[0], nil
}

// ParseExpr parses a standalone expression (used for ad-hoc spatial
// predicates supplied over the web API).
func ParseExpr(src string) (Expr, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseTopExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF) {
		return nil, p.errHere("trailing input after expression")
	}
	return e, nil
}

type parser struct {
	toks  []token
	i     int
	depth int // nesting levels open at the current token (nest)
}

// maxNesting bounds how deeply PRML source nests: statement lists,
// parenthesized groups and call arguments, not and unary minus. The
// parser recurses once per level, and rule sources arrive from web
// clients: a source nesting hundreds of thousands of levels would exhaust
// the goroutine stack, which Go cannot recover from. The paper's rules
// nest a handful of levels.
const maxNesting = 256

// nest opens one nesting level, or fails past maxNesting. Callers defer
// p.depth-- once it succeeds.
func (p *parser) nest() error {
	if p.depth == maxNesting {
		return p.errHere("nesting deeper than %d levels", maxNesting)
	}
	p.depth++
	return nil
}

// parseTopExpr parses an expression standing alone — a statement's,
// an event's or ParseExpr's — and bounds its operator depth so that
// Format's output for it parses back within maxNesting. Format wraps every
// binary operator in parentheses (one level) and a not operand of any
// other operator in parentheses too (two levels with the not), so an
// expression of operator depth d, parsed at nesting c, formats to text
// nesting at most c + 2d. Binary operator chains such as 1 + 1 + ... are
// parsed by loops, not recursion; the bound also keeps the evaluators
// that do recurse over them shallow.
func (p *parser) parseTopExpr() (Expr, error) {
	pos := p.cur().pos
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if limit := (maxNesting - p.depth - 1) / 2; deeper(e, limit) {
		return nil, fmt.Errorf("prml: %s: expression nests more than %d operators deep", pos, limit)
	}
	return e, nil
}

// deeper reports whether e nests more than limit operators (binary,
// unary, call) deep. It recurses at most limit+1 levels.
func deeper(e Expr, limit int) bool {
	if limit < 0 {
		return true
	}
	switch ex := e.(type) {
	case *BinaryExpr:
		return deeper(ex.L, limit-1) || deeper(ex.R, limit-1)
	case *UnaryExpr:
		return deeper(ex.X, limit-1)
	case *CallExpr:
		for _, a := range ex.Args {
			if deeper(a, limit-1) {
				return true
			}
		}
	}
	return false
}

func (p *parser) cur() token { return p.toks[p.i] }
func (p *parser) peek() token { // one token of lookahead
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) at(k tokKind) bool { return p.cur().kind == k }

func (p *parser) atIdent(name string) bool {
	return p.cur().kind == tokIdent && p.cur().text == name
}

func (p *parser) advance() token {
	t := p.cur()
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errHere(format string, args ...any) error {
	return fmt.Errorf("prml: %s: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokKind) (token, error) {
	if !p.at(k) {
		return token{}, p.errHere("expected %s, found %s", k, p.describeCur())
	}
	return p.advance(), nil
}

func (p *parser) expectIdent(name string) error {
	if !p.atIdent(name) {
		return p.errHere("expected %q, found %s", name, p.describeCur())
	}
	p.advance()
	return nil
}

func (p *parser) describeCur() string {
	t := p.cur()
	switch t.kind {
	case tokIdent:
		return fmt.Sprintf("%q", t.text)
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	case tokNumber:
		return fmt.Sprintf("number %v", t.num)
	default:
		return t.kind.String()
	}
}

// parseRule parses "Rule:name When event do body endWhen".
func (p *parser) parseRule() (*Rule, error) {
	start := p.cur().pos
	if err := p.expectIdent("Rule"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon); err != nil {
		return nil, err
	}
	name, err := p.parseRuleName()
	if err != nil {
		return nil, err
	}
	if err := p.expectIdent("When"); err != nil {
		return nil, err
	}
	ev, err := p.parseEvent()
	if err != nil {
		return nil, err
	}
	if err := p.expectIdent("do"); err != nil {
		return nil, err
	}
	body, err := p.parseStmts("endWhen")
	if err != nil {
		return nil, err
	}
	if err := p.expectIdent("endWhen"); err != nil {
		return nil, err
	}
	return &Rule{Name: name, Event: ev, Body: body, Pos: start}, nil
}

// parseRuleName accepts an identifier, optionally preceded by an adjacent
// number token — the paper names one of its rules "5kmStores", which a
// conventional identifier lexer would reject.
func (p *parser) parseRuleName() (string, error) {
	if p.at(tokNumber) {
		num := p.cur()
		next := p.peek()
		adjacent := next.kind == tokIdent &&
			next.pos.Line == num.pos.Line &&
			next.pos.Col == num.pos.Col+len(num.text)
		if adjacent {
			p.advance()
			p.advance()
			return num.text + next.text, nil
		}
		return "", p.errHere("rule name cannot be a bare number")
	}
	t, err := p.expect(tokIdent)
	if err != nil {
		return "", err
	}
	return t.text, nil
}

func (p *parser) parseEvent() (Event, error) {
	pos := p.cur().pos
	t, err := p.expect(tokIdent)
	if err != nil {
		return Event{}, err
	}
	switch t.text {
	case "SessionStart":
		return Event{Kind: EvSessionStart, Pos: pos}, nil
	case "SessionEnd":
		return Event{Kind: EvSessionEnd, Pos: pos}, nil
	case "SpatialSelection":
		if _, err := p.expect(tokLParen); err != nil {
			return Event{}, err
		}
		target, err := p.parsePath()
		if err != nil {
			return Event{}, err
		}
		if _, err := p.expect(tokComma); err != nil {
			return Event{}, err
		}
		cond, err := p.parseTopExpr()
		if err != nil {
			return Event{}, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return Event{}, err
		}
		return Event{Kind: EvSpatialSelection, Target: target, Cond: cond, Pos: pos}, nil
	}
	return Event{}, fmt.Errorf("prml: %s: unknown event %q", pos, t.text)
}

// stmtTerminators is the set of identifiers that end a statement list.
var stmtTerminators = map[string]bool{
	"endWhen": true, "endIf": true, "endForeach": true, "else": true,
}

func (p *parser) parseStmts(terminator string) ([]Stmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	var out []Stmt
	for {
		if p.at(tokEOF) {
			return nil, p.errHere("expected %q before end of input", terminator)
		}
		if p.cur().kind == tokIdent && stmtTerminators[p.cur().text] {
			return out, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

func (p *parser) parseStmt() (Stmt, error) {
	pos := p.cur().pos
	if !p.at(tokIdent) {
		return nil, p.errHere("expected a statement, found %s", p.describeCur())
	}
	switch p.cur().text {
	case "If":
		return p.parseIf()
	case "Foreach":
		return p.parseForeach()
	case "SetContent":
		p.advance()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		target, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokComma); err != nil {
			return nil, err
		}
		val, err := p.parseTopExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &SetContentStmt{Target: target, Value: val, Pos: pos}, nil
	case "SelectInstance":
		p.advance()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		target, err := p.parseTopExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &SelectInstanceStmt{Target: target, Pos: pos}, nil
	case "BecomeSpatial":
		p.advance()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		target, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokComma); err != nil {
			return nil, err
		}
		g, err := p.parseGeomType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &BecomeSpatialStmt{Target: target, Geom: g, Pos: pos}, nil
	case "AddLayer":
		p.advance()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		name, err := p.expect(tokString)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokComma); err != nil {
			return nil, err
		}
		g, err := p.parseGeomType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &AddLayerStmt{Layer: name.text, Geom: g, Pos: pos}, nil
	}
	return nil, p.errHere("unknown statement %q", p.cur().text)
}

func (p *parser) parseIf() (Stmt, error) {
	pos := p.cur().pos
	p.advance() // If
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseTopExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if err := p.expectIdent("then"); err != nil {
		return nil, err
	}
	thenBody, err := p.parseStmts("endIf")
	if err != nil {
		return nil, err
	}
	var elseBody []Stmt
	if p.atIdent("else") {
		p.advance()
		elseBody, err = p.parseStmts("endIf")
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectIdent("endIf"); err != nil {
		return nil, err
	}
	return &IfStmt{Cond: cond, Then: thenBody, Else: elseBody, Pos: pos}, nil
}

func (p *parser) parseForeach() (Stmt, error) {
	pos := p.cur().pos
	p.advance() // Foreach
	var vars []string
	for {
		v, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if v.text == "in" {
			return nil, fmt.Errorf("prml: %s: missing loop variable before 'in'", v.pos)
		}
		vars = append(vars, v.text)
		if p.at(tokComma) {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectIdent("in"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var sources []*PathExpr
	for {
		src, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		sources = append(sources, src)
		if p.at(tokComma) {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if len(vars) != len(sources) {
		return nil, fmt.Errorf("prml: %s: Foreach has %d variables but %d sources", pos, len(vars), len(sources))
	}
	body, err := p.parseStmts("endForeach")
	if err != nil {
		return nil, err
	}
	if err := p.expectIdent("endForeach"); err != nil {
		return nil, err
	}
	return &ForeachStmt{Vars: vars, Sources: sources, Body: body, Pos: pos}, nil
}

func (p *parser) parseGeomType() (geom.Type, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return geom.TypeInvalid, err
	}
	g, err := geom.ParseType(t.text)
	if err != nil {
		return geom.TypeInvalid, fmt.Errorf("prml: %s: %w", t.pos, err)
	}
	return g, nil
}

func (p *parser) parsePath() (*PathExpr, error) {
	root, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	pe := &PathExpr{Root: root.text, Pos: root.pos}
	for p.at(tokDot) {
		p.advance()
		seg, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		pe.Segs = append(pe.Segs, seg.text)
	}
	return pe, nil
}

// Expression grammar (loosest to tightest): or → and → not → comparison →
// additive → multiplicative → unary minus → primary.
func (p *parser) parseExpr() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	return p.parseOr()
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atIdent("or") {
		pos := p.cur().pos
		p.advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpOr, L: l, R: r, Pos: pos}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atIdent("and") {
		pos := p.cur().pos
		p.advance()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpAnd, L: l, R: r, Pos: pos}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.atIdent("not") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer func() { p.depth-- }()
		pos := p.cur().pos
		p.advance()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: OpNot, X: x, Pos: pos}, nil
	}
	return p.parseComparison()
}

var cmpOps = map[tokKind]BinOp{
	tokEq: OpEq, tokNe: OpNe, tokLt: OpLt, tokLe: OpLe, tokGt: OpGt, tokGe: OpGe,
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if op, ok := cmpOps[p.cur().kind]; ok {
		pos := p.cur().pos
		p.advance()
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: op, L: l, R: r, Pos: pos}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.at(tokPlus) || p.at(tokMinus) {
		op := OpAdd
		if p.at(tokMinus) {
			op = OpSub
		}
		pos := p.cur().pos
		p.advance()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r, Pos: pos}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(tokStar) || p.at(tokSlash) {
		op := OpMul
		if p.at(tokSlash) {
			op = OpDiv
		}
		pos := p.cur().pos
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r, Pos: pos}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.at(tokMinus) {
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer func() { p.depth-- }()
		pos := p.cur().pos
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: OpNeg, X: x, Pos: pos}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.advance()
		return &NumberLit{Value: t.num, Unit: t.unit, Pos: t.pos}, nil
	case tokString:
		p.advance()
		return &StringLit{Value: t.text, Pos: t.pos}, nil
	case tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		switch t.text {
		case "true":
			p.advance()
			return &BoolLit{Value: true, Pos: t.pos}, nil
		case "false":
			p.advance()
			return &BoolLit{Value: false, Pos: t.pos}, nil
		}
		// Spatial operator call?
		if op, ok := spatialOpByName[t.text]; ok && p.peek().kind == tokLParen {
			p.advance() // name
			p.advance() // (
			var args []Expr
			if !p.at(tokRParen) {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.at(tokComma) {
						p.advance()
						continue
					}
					break
				}
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return &CallExpr{Op: op, Args: args, Pos: t.pos}, nil
		}
		return p.parsePath()
	}
	return nil, p.errHere("expected an expression, found %s", p.describeCur())
}

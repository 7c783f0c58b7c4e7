package prml

import (
	"fmt"
	"strconv"
	"strings"
)

// Format renders rules in canonical PRML concrete syntax. Parsing the output
// yields a structurally identical AST (round-trip property, tested).
func Format(rules ...*Rule) string {
	var b strings.Builder
	for i, r := range rules {
		if i > 0 {
			b.WriteByte('\n')
		}
		formatRule(&b, r)
	}
	return b.String()
}

func formatRule(b *strings.Builder, r *Rule) {
	fmt.Fprintf(b, "Rule:%s When %s do\n", r.Name, formatEvent(r.Event))
	formatStmts(b, r.Body, 1)
	b.WriteString("endWhen\n")
}

func formatEvent(e Event) string {
	if e.Kind == EvSpatialSelection {
		return fmt.Sprintf("SpatialSelection(%s, %s)", e.Target, FormatExpr(e.Cond))
	}
	return e.Kind.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func formatStmts(b *strings.Builder, stmts []Stmt, depth int) {
	for _, s := range stmts {
		formatStmt(b, s, depth)
	}
}

func formatStmt(b *strings.Builder, s Stmt, depth int) {
	indent(b, depth)
	switch st := s.(type) {
	case *IfStmt:
		fmt.Fprintf(b, "If (%s) then\n", FormatExpr(st.Cond))
		formatStmts(b, st.Then, depth+1)
		if len(st.Else) > 0 {
			indent(b, depth)
			b.WriteString("else\n")
			formatStmts(b, st.Else, depth+1)
		}
		indent(b, depth)
		b.WriteString("endIf\n")
	case *ForeachStmt:
		srcs := make([]string, len(st.Sources))
		for i, s := range st.Sources {
			srcs[i] = s.String()
		}
		fmt.Fprintf(b, "Foreach %s in (%s)\n", strings.Join(st.Vars, ", "), strings.Join(srcs, ", "))
		formatStmts(b, st.Body, depth+1)
		indent(b, depth)
		b.WriteString("endForeach\n")
	case *SetContentStmt:
		fmt.Fprintf(b, "SetContent(%s, %s)\n", st.Target, FormatExpr(st.Value))
	case *SelectInstanceStmt:
		fmt.Fprintf(b, "SelectInstance(%s)\n", FormatExpr(st.Target))
	case *BecomeSpatialStmt:
		fmt.Fprintf(b, "BecomeSpatial(%s, %s)\n", st.Target, st.Geom)
	case *AddLayerStmt:
		fmt.Fprintf(b, "AddLayer('%s', %s)\n", escapeString(st.Layer, '\''), st.Geom)
	}
}

// FormatExpr renders an expression in canonical syntax, parenthesizing
// binary sub-expressions so operator precedence never needs to be
// reconstructed.
func FormatExpr(e Expr) string {
	switch ex := e.(type) {
	case *NumberLit:
		switch ex.Unit {
		case "km":
			return trimFloat(ex.Value) + "km"
		case "m":
			return trimFloat(ex.Value*1000) + "m"
		default:
			return trimFloat(ex.Value)
		}
	case *StringLit:
		return "'" + escapeString(ex.Value, '\'') + "'"
	case *BoolLit:
		if ex.Value {
			return "true"
		}
		return "false"
	case *PathExpr:
		return ex.String()
	case *BinaryExpr:
		l, r := FormatExpr(ex.L), FormatExpr(ex.R)
		if ex.Op != OpAnd && ex.Op != OpOr {
			l, r = formatOperand(ex.L, l), formatOperand(ex.R, r)
		}
		return "(" + l + " " + ex.Op.String() + " " + r + ")"
	case *UnaryExpr:
		if ex.Op == OpNot {
			return "not " + FormatExpr(ex.X)
		}
		return "-" + formatOperand(ex.X, FormatExpr(ex.X))
	case *CallExpr:
		args := make([]string, len(ex.Args))
		for i, a := range ex.Args {
			args[i] = FormatExpr(a)
		}
		return ex.Op.String() + "(" + strings.Join(args, ", ") + ")"
	}
	return "<?expr>"
}

// formatOperand parenthesizes the formatted operand s of a comparison,
// arithmetic or minus operator when e is a not: not binds looser than
// those operators, so bare "a + not b" would not parse back.
func formatOperand(e Expr, s string) string {
	if u, ok := e.(*UnaryExpr); ok && u.Op == OpNot {
		return "(" + s + ")"
	}
	return s
}

func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

func escapeString(s string, quote byte) string {
	return strings.ReplaceAll(s, string(quote), string(quote)+string(quote))
}

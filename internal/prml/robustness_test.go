package prml

import (
	"math/rand"
	"strings"
	"testing"
)

// The parser must never panic, whatever bytes arrive: web clients submit
// rule sources directly (POST /api/rules).

func TestParseNeverPanicsOnGarbage(t *testing.T) {
	inputs := []string{
		"", " ", "\n\n\n", "((((((((",
		")))))", "Rule", "Rule:", "Rule:x", "Rule:x When",
		"When do endWhen", "endWhen endWhen endWhen",
		"Rule:x When SessionStart do If If If endWhen",
		"Rule:x When SessionStart do Foreach Foreach endWhen",
		"'unterminated", `"unterminated`,
		"Rule:x When SessionStart do SelectInstance(((((1)))) endWhen",
		"Rule:x When SpatialSelection(,) do endWhen",
		"1 + 2", ".....", ",,,,,", "km km km", "5km5km5km",
		strings.Repeat("If (", 1000),
		strings.Repeat("Rule:x When SessionStart do endWhen\n", 50) + "Rule:",
	}
	for _, src := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			_, _ = Parse(src)
			_, _ = ParseExpr(src)
		}()
	}
}

func TestParseNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabet := []byte("Rule:xWhenSessionStartdoIfthenendIfForeachin()<>=+-*/.,'\"5km GeoMD.SUS\n\t")
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(200)
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		src := string(b)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			_, _ = Parse(src)
		}()
	}
}

// TestParseNeverPanicsOnMutatedRules mutates the paper's rules byte-wise:
// deletions, substitutions, truncations.
func TestParseNeverPanicsOnMutatedRules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := ruleAddSpatiality + rule5kmStores + ruleTrainAirportCity
	for trial := 0; trial < 2000; trial++ {
		b := []byte(base)
		switch rng.Intn(3) {
		case 0: // delete a span
			if len(b) > 10 {
				i := rng.Intn(len(b) - 5)
				b = append(b[:i], b[i+rng.Intn(5):]...)
			}
		case 1: // substitute bytes
			for k := 0; k < 5; k++ {
				b[rng.Intn(len(b))] = byte(rng.Intn(128))
			}
		case 2: // truncate
			b = b[:rng.Intn(len(b))]
		}
		src := string(b)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutation %d: %v\n%s", trial, r, src)
				}
			}()
			if rules, err := Parse(src); err == nil {
				// Whatever parses must also print and re-parse.
				if _, err := Parse(Format(rules...)); err != nil {
					t.Fatalf("mutation %d: printed form fails to re-parse: %v", trial, err)
				}
			}
		}()
	}
}

// Analyzer must be panic-free on arbitrary (parseable) rules too.
func TestAnalyzeNeverPanics(t *testing.T) {
	srcs := []string{
		"Rule:a When SessionStart do SelectInstance(GeoMD.X) endWhen",
		"Rule:b When SpatialSelection(GeoMD.A.b, Distance(GeoMD.A.b) < 1) do SetContent(SUS.U.x, 1) endWhen",
		"Rule:c When SessionEnd do If (not not not true) then AddLayer('x', COLLECTION) endIf endWhen",
	}
	for _, src := range srcs {
		rules, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("analyze panic on %q: %v", src, r)
				}
			}()
			_ = Analyze(rules, AnalyzeOptions{})
		}()
	}
}

// TestParseNestingCap pins the nesting bound: every kind of nesting past
// maxNesting is an error instead of unbounded recursion — including a
// source far too deep to recurse through — while maxNesting levels of
// parentheses still parse.
func TestParseNestingCap(t *testing.T) {
	rule := func(body string) string { return "Rule:x When SessionStart do " + body + " endWhen" }
	parens := func(levels int) string {
		return strings.Repeat("(", levels) + "1" + strings.Repeat(")", levels)
	}
	// The statement list and SetContent's argument hold two levels.
	if _, err := Parse(rule("SetContent(SUS.U.x, " + parens(maxNesting-2) + ")")); err != nil {
		t.Fatalf("%d nested parentheses: %v", maxNesting-2, err)
	}
	ifs := func(levels int) string {
		return strings.Repeat("If (true) then ", levels) + "SelectInstance(a)" + strings.Repeat(" endIf", levels)
	}
	chain := func(op string, terms int) string {
		return "1" + strings.Repeat(" "+op+" 1", terms-1)
	}
	for name, src := range map[string]string{
		"parentheses":         rule("SetContent(SUS.U.x, " + parens(maxNesting) + ")"),
		"400000 parentheses":  rule("SetContent(SUS.U.x, " + parens(400_000) + ")"),
		"If bodies":           rule(ifs(maxNesting)),
		"not chain":           rule("If (" + strings.Repeat("not ", maxNesting) + "true) then endIf"),
		"minus chain":         rule("SetContent(SUS.U.x, " + strings.Repeat("- ", maxNesting) + "1)"),
		"call arguments":      rule("SetContent(SUS.U.x, " + strings.Repeat("Distance(", maxNesting) + "1" + strings.Repeat(")", maxNesting) + ")"),
		"operator chain":      rule("SetContent(SUS.U.x, " + chain("+", maxNesting) + ")"),
		"standalone operator": chain("*", maxNesting),
	} {
		_, err := Parse(src)
		if name == "standalone operator" {
			_, err = ParseExpr(src)
		}
		if err == nil || !strings.Contains(err.Error(), "nest") {
			t.Errorf("%s: err = %v, want a nesting error", name, err)
		}
	}
}

// FuzzPRMLParse feeds arbitrary source to the rule parser (web clients
// POST it to /api/rules): it must never panic, and whatever it accepts
// must format to source that parses back and formats the same.
func FuzzPRMLParse(f *testing.F) {
	for _, s := range []string{
		ruleAddSpatiality, rule5kmStores, ruleIntAirportCity, ruleTrainAirportCity,
		"Rule:k When SessionEnd do If (not (1 + 2 * 3 - 4 / 2 >= 5) or 'a' <> 'b' and true) then SetContent(SUS.U.x, -3.5) else SelectInstance(GeoMD.Store) endIf endWhen",
		"Rule:m When SessionStart do SetContent(SUS.U.d, 0.3m) AddLayer('Highway''s', POLYGON) endWhen",
		"Rule:n When SessionStart do SetContent(SUS.U.x, 1 + (not a)) endWhen",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		rules, err := Parse(src)
		if err != nil {
			return
		}
		printed := Format(rules...)
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q parsed, but its formatted form does not: %v\n%s", src, err, printed)
		}
		if again := Format(back...); again != printed {
			t.Fatalf("%q: formatted form is not stable:\n%s\nre-parses and formats to\n%s", src, printed, again)
		}
	})
}

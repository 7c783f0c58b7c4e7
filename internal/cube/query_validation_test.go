package cube

import (
	"strings"
	"testing"

	"sdwp/internal/geomd"
	"sdwp/internal/mdmodel"
)

// TestExecuteValidationErrors covers every validation error path of query
// compilation, through each executor entry point (the paths are shared by
// Execute and ExecuteBatch).
func TestExecuteValidationErrors(t *testing.T) {
	c := testWarehouse(t)
	count := []MeasureAgg{{Agg: AggCount}}
	cases := []struct {
		name string
		q    Query
		want string
	}{
		{"unknown fact", Query{Fact: "Ghost", Aggregates: count}, "unknown fact"},
		{"no aggregates", Query{Fact: "Sales"}, "at least one aggregate"},
		{"unknown group dimension",
			Query{Fact: "Sales", GroupBy: []LevelRef{{Dimension: "Ghost", Level: "X"}}, Aggregates: count},
			"unknown dimension"},
		{"unknown group level",
			Query{Fact: "Sales", GroupBy: []LevelRef{{Dimension: "Store", Level: "Ghost"}}, Aggregates: count},
			"no level"},
		{"invalid agg zero",
			Query{Fact: "Sales", Aggregates: []MeasureAgg{{Agg: 0}}},
			"invalid aggregation"},
		{"invalid agg out of range",
			Query{Fact: "Sales", Aggregates: []MeasureAgg{{Agg: AggMax + 1}}},
			"invalid aggregation"},
		{"unknown measure",
			Query{Fact: "Sales", Aggregates: []MeasureAgg{{Measure: "Ghost", Agg: AggSum}}},
			"no measure"},
		{"orderby agg negative",
			Query{Fact: "Sales", Aggregates: count, OrderBy: &OrderBy{Agg: -1}},
			"out of range"},
		{"orderby agg too large",
			Query{Fact: "Sales", Aggregates: count, OrderBy: &OrderBy{Agg: 1}},
			"out of range"},
		{"negative limit",
			Query{Fact: "Sales", Aggregates: count, Limit: -3},
			"negative Limit"},
		{"unknown filter dimension",
			Query{Fact: "Sales", Aggregates: count,
				Filters: []AttrFilter{{LevelRef: LevelRef{Dimension: "Ghost", Level: "X"}, Attr: "a", Op: OpEq, Value: 1}}},
			"unknown dimension"},
		{"unknown filter level",
			Query{Fact: "Sales", Aggregates: count,
				Filters: []AttrFilter{{LevelRef: LevelRef{Dimension: "Store", Level: "Ghost"}, Attr: "a", Op: OpEq, Value: 1}}},
			"no level"},
		{"unknown filter attribute",
			Query{Fact: "Sales", Aggregates: count,
				Filters: []AttrFilter{{LevelRef: LevelRef{Dimension: "Store", Level: "City"}, Attr: "ghost", Op: OpEq, Value: 1}}},
			"no attribute"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := c.Execute(tc.q, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Execute err = %v, want containing %q", err, tc.want)
			}
			if _, err := c.ExecuteBatch([]Query{tc.q}, nil, 0); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ExecuteBatch err = %v, want containing %q", err, tc.want)
			}
		})
	}

	// A dimension the fact does not use is rejected in group-by and in
	// filters (needs a schema with an unused dimension).
	b := mdmodel.NewBuilder("Probe")
	b.Dimension("Store").Level("Store", "name")
	b.Dimension("Extra").Level("Item", "name").Attr("weight", mdmodel.TypeNumber)
	b.Fact("Sales").Measure("UnitSales").Uses("Store")
	pc := New(geomd.New(b.MustBuild()))
	q := Query{Fact: "Sales", GroupBy: []LevelRef{{Dimension: "Extra", Level: "Item"}}, Aggregates: count}
	if _, err := pc.Execute(q, nil); err == nil || !strings.Contains(err.Error(), "has no dimension") {
		t.Errorf("group-by on unused dimension: err = %v", err)
	}
	q = Query{Fact: "Sales", Aggregates: count,
		Filters: []AttrFilter{{LevelRef: LevelRef{Dimension: "Extra", Level: "Item"}, Attr: "weight", Op: OpEq, Value: 1.0}}}
	if _, err := pc.Execute(q, nil); err == nil || !strings.Contains(err.Error(), "has no dimension") {
		t.Errorf("filter on unused dimension: err = %v", err)
	}
}

// TestCompareOperators covers the compare/toFloat helpers: numeric
// comparisons across Go numeric types, string and bool comparisons, and
// the unsupported combinations that must answer false.
func TestCompareOperators(t *testing.T) {
	cases := []struct {
		name string
		a    any
		op   FilterOp
		b    any
		want bool
	}{
		// Numeric: all operators, mixed numeric types normalize to float64.
		{"eq float", 2.0, OpEq, 2.0, true},
		{"eq int float", 2, OpEq, 2.0, true},
		{"eq int32 int64", int32(5), OpEq, int64(5), true},
		{"eq float32", float32(1.5), OpEq, 1.5, true},
		{"ne", 2.0, OpNe, 3.0, true},
		{"ne false", 2.0, OpNe, 2.0, false},
		{"lt", 2.0, OpLt, 3, true},
		{"lt false", 3.0, OpLt, 3, false},
		{"le", 3.0, OpLe, 3, true},
		{"gt", 4, OpGt, 3.0, true},
		{"ge", int64(3), OpGe, 3, true},
		{"ge false", 2, OpGe, 3, false},
		{"bad op numeric", 2.0, FilterOp(99), 2.0, false},
		// Strings: full operator set, lexicographic.
		{"str eq", "a", OpEq, "a", true},
		{"str ne", "a", OpNe, "b", true},
		{"str lt", "a", OpLt, "b", true},
		{"str le", "b", OpLe, "b", true},
		{"str gt", "c", OpGt, "b", true},
		{"str ge", "b", OpGe, "c", false},
		{"bad op string", "a", FilterOp(99), "a", false},
		// Bools: only equality operators.
		{"bool eq", true, OpEq, true, true},
		{"bool ne", true, OpNe, false, true},
		{"bool lt unsupported", true, OpLt, false, false},
		// Type mismatches answer false.
		{"string vs number", "2", OpEq, 2.0, false},
		{"nil vs number", nil, OpEq, 2.0, false},
		{"bool vs number", true, OpEq, 1.0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := compare(tc.a, tc.op, tc.b); got != tc.want {
				t.Errorf("compare(%v, %v, %v) = %v, want %v", tc.a, tc.op, tc.b, got, tc.want)
			}
		})
	}
}

func TestToFloat(t *testing.T) {
	cases := []struct {
		in   any
		want float64
		ok   bool
	}{
		{2.5, 2.5, true},
		{float32(1.5), 1.5, true},
		{7, 7, true},
		{int32(-3), -3, true},
		{int64(1 << 40), float64(int64(1) << 40), true},
		{"2.5", 0, false},
		{true, 0, false},
		{nil, 0, false},
	}
	for _, tc := range cases {
		got, ok := toFloat(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("toFloat(%#v) = %v, %v; want %v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

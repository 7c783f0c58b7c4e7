package cube

import (
	"fmt"
	"strings"

	"sdwp/internal/obs"
)

// Agg enumerates the aggregation functions.
type Agg uint8

const (
	AggSum Agg = iota + 1
	AggCount
	AggAvg
	AggMin
	AggMax
)

// String names the aggregation.
func (a Agg) String() string {
	switch a {
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return "?"
	}
}

// ParseAgg parses an aggregation name (case-insensitive).
func ParseAgg(s string) (Agg, error) {
	switch strings.ToUpper(s) {
	case "SUM":
		return AggSum, nil
	case "COUNT":
		return AggCount, nil
	case "AVG":
		return AggAvg, nil
	case "MIN":
		return AggMin, nil
	case "MAX":
		return AggMax, nil
	}
	return 0, fmt.Errorf("cube: unknown aggregation %q", s)
}

// LevelRef names a hierarchy level of a dimension.
type LevelRef struct {
	Dimension string `json:"dimension"`
	Level     string `json:"level"`
}

// String renders "Dimension.Level".
func (r LevelRef) String() string { return r.Dimension + "." + r.Level }

// MeasureAgg is one aggregate column of a query. Measure is ignored for
// AggCount.
type MeasureAgg struct {
	Measure string `json:"measure,omitempty"`
	Agg     Agg    `json:"agg"`
}

// FilterOp enumerates attribute comparison operators.
type FilterOp uint8

const (
	OpEq FilterOp = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// AttrFilter restricts facts by a dimension attribute at some level.
type AttrFilter struct {
	LevelRef
	Attr  string
	Op    FilterOp
	Value any
}

// OrderBy sorts result rows by one aggregate column.
type OrderBy struct {
	// Agg indexes Query.Aggregates.
	Agg int `json:"agg"`
	// Desc sorts descending (largest first).
	Desc bool `json:"desc,omitempty"`
}

// Query describes one OLAP aggregation over a fact.
type Query struct {
	Fact       string
	GroupBy    []LevelRef
	Aggregates []MeasureAgg
	Filters    []AttrFilter
	// OrderBy optionally replaces the default group-name ordering with an
	// aggregate-value ordering (ties broken by group names). −0 ties +0,
	// and a NaN value sorts after every number in either direction.
	OrderBy *OrderBy
	// Limit truncates the result to the first n rows when positive (top-n
	// with OrderBy).
	Limit int
}

// Row is one result group.
type Row struct {
	Groups []string  `json:"groups"`
	Values []float64 `json:"values"`
}

// Result is a query result: the grouped aggregate table plus the scan
// statistics the benchmark harness reports (experiment C1 measures
// ScannedFacts against MatchedFacts to quantify "avoiding exploring a large
// SDW").
type Result struct {
	GroupCols    []string `json:"groupCols"`
	AggCols      []string `json:"aggCols"`
	Rows         []Row    `json:"rows"`
	ScannedFacts int      `json:"scannedFacts"`
	MatchedFacts int      `json:"matchedFacts"`
	// Cost is the resource-consumption vector the executor measured for
	// this query: scan counters, its share of freshly materialized batch
	// artifacts, and — once the scheduler attributes the batch — CPU
	// time and sharing/caching credits.
	Cost obs.QueryCost `json:"cost"`
}

// Execute runs the query through the given view (nil view = the whole
// warehouse, the non-personalized baseline) on a single goroutine. See
// ExecuteParallel for the partitioned executor and ExecuteBatch for the
// shared-scan batch API; all three produce identical Results.
func (c *Cube) Execute(q Query, v *View) (*Result, error) {
	return c.ExecuteParallel(q, v, 1)
}

func appendInt32(b []byte, v int32) []byte {
	u := uint32(v)
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
}

// compare applies a filter operator. Numeric comparisons normalize both
// sides to float64; other types support only equality operators.
func compare(a any, op FilterOp, b any) bool {
	af, aNum := toFloat(a)
	bf, bNum := toFloat(b)
	if aNum && bNum {
		switch op {
		case OpEq:
			return af == bf
		case OpNe:
			return af != bf
		case OpLt:
			return af < bf
		case OpLe:
			return af <= bf
		case OpGt:
			return af > bf
		case OpGe:
			return af >= bf
		}
		return false
	}
	as, aok := a.(string)
	bs, bok := b.(string)
	if aok && bok {
		switch op {
		case OpEq:
			return as == bs
		case OpNe:
			return as != bs
		case OpLt:
			return as < bs
		case OpLe:
			return as <= bs
		case OpGt:
			return as > bs
		case OpGe:
			return as >= bs
		}
		return false
	}
	ab, aok2 := a.(bool)
	bb, bok2 := b.(bool)
	if aok2 && bok2 {
		switch op {
		case OpEq:
			return ab == bb
		case OpNe:
			return ab != bb
		}
	}
	return false
}

func toFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case float32:
		return float64(n), true
	case int:
		return float64(n), true
	case int32:
		return float64(n), true
	case int64:
		return float64(n), true
	}
	return 0, false
}

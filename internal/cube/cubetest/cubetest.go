// Package cubetest holds the executor-independent reference the cube,
// shard and core equivalence harnesses compare the executor against. Only
// _test.go files import it.
package cubetest

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"sdwp/internal/cube"
)

// NaiveExecute answers q over c through the view v (nil = the whole fact
// table) with one pass over the fact table through the public accessors
// only — no plans, partials, group tables, packed columns or kernels. It
// folds measures in fact order (the serial fold order, so SUM/AVG bits
// match whenever per-group sums are exact) and orders rows by the
// documented total order: OrderBy value, then group names level by level,
// then member indices. Result.Cost is left zero. q must be valid for c;
// filter values are compared as strings (= and <> only) or float64.
func NaiveExecute(c *cube.Cube, q cube.Query, v *cube.View) *cube.Result {
	fd := c.FactData(q.Fact)
	type level struct {
		dd *cube.DimData
		li int
	}
	resolve := func(r cube.LevelRef) level {
		dd := c.Dimension(r.Dimension)
		return level{dd, dd.LevelIndex(r.Level)}
	}
	ancestor := func(l level, dim string, i int32) int32 {
		key, _ := fd.DimKey(dim, i)
		return l.dd.Ancestor(0, l.li, key)
	}
	passes := func(f cube.AttrFilter, i int32) bool {
		l := resolve(f.LevelRef)
		anc := ancestor(l, f.Dimension, i)
		if anc == cube.NoParent {
			return false
		}
		val, ok := l.dd.LevelAt(l.li).Attr(f.Attr, anc)
		if !ok {
			return false
		}
		if s, isStr := val.(string); isStr {
			return (s == f.Value.(string)) == (f.Op == cube.OpEq)
		}
		a, b := val.(float64), f.Value.(float64)
		switch f.Op {
		case cube.OpEq:
			return a == b
		case cube.OpNe:
			return a != b
		case cube.OpLt:
			return a < b
		case cube.OpLe:
			return a <= b
		case cube.OpGt:
			return a > b
		default:
			return a >= b
		}
	}

	type group struct {
		members          []int32
		names            []string
		count            float64
		sums, mins, maxs []float64
	}
	res := &cube.Result{}
	groups := map[string]*group{}
	levels := make([]level, len(q.GroupBy))
	for gi, g := range q.GroupBy {
		levels[gi] = resolve(g)
		res.GroupCols = append(res.GroupCols, g.Dimension+"."+g.Level)
	}
	for _, a := range q.Aggregates {
		if a.Agg == cube.AggCount {
			res.AggCols = append(res.AggCols, "COUNT(*)")
		} else {
			res.AggCols = append(res.AggCols, fmt.Sprintf("%s(%s)", a.Agg, a.Measure))
		}
	}
facts:
	for i := int32(0); int(i) < fd.Len(); i++ {
		if v != nil && !v.FactVisible(q.Fact, i) {
			continue
		}
		res.ScannedFacts++
		for _, f := range q.Filters {
			if !passes(f, i) {
				continue facts
			}
		}
		res.MatchedFacts++
		members := make([]int32, len(levels))
		for gi, l := range levels {
			members[gi] = ancestor(l, q.GroupBy[gi].Dimension, i)
		}
		key := fmt.Sprint(members)
		g := groups[key]
		if g == nil {
			g = &group{members: members}
			for gi, l := range levels {
				name := "(none)"
				if members[gi] != cube.NoParent {
					name = l.dd.LevelAt(l.li).Name(members[gi])
				}
				g.names = append(g.names, name)
			}
			for range q.Aggregates {
				g.sums = append(g.sums, 0)
				g.mins = append(g.mins, math.Inf(1))
				g.maxs = append(g.maxs, math.Inf(-1))
			}
			groups[key] = g
		}
		g.count++
		for j, a := range q.Aggregates {
			if a.Agg == cube.AggCount {
				continue
			}
			mv, _ := fd.Measure(a.Measure, i)
			g.sums[j] += mv
			g.mins[j] = math.Min(g.mins[j], mv)
			g.maxs[j] = math.Max(g.maxs[j], mv)
		}
	}

	value := func(g *group, j int) float64 {
		switch q.Aggregates[j].Agg {
		case cube.AggSum:
			return g.sums[j]
		case cube.AggCount:
			return g.count
		case cube.AggAvg:
			return g.sums[j] / g.count
		case cube.AggMin:
			return g.mins[j]
		default:
			return g.maxs[j]
		}
	}
	ordered := make([]*group, 0, len(groups))
	for _, g := range groups {
		ordered = append(ordered, g)
	}
	sort.Slice(ordered, func(x, y int) bool {
		a, b := ordered[x], ordered[y]
		if ob := q.OrderBy; ob != nil {
			if va, vb := value(a, ob.Agg), value(b, ob.Agg); va != vb {
				return (va < vb) != ob.Desc
			}
		}
		if c := slices.Compare(a.names, b.names); c != 0 {
			return c < 0
		}
		return slices.Compare(a.members, b.members) < 0
	})
	if q.Limit > 0 && len(ordered) > q.Limit {
		ordered = ordered[:q.Limit]
	}
	for _, g := range ordered {
		row := cube.Row{Groups: g.names}
		for j := range q.Aggregates {
			row.Values = append(row.Values, value(g, j))
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

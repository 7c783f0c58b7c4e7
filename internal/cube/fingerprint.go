package cube

import (
	"fmt"
	"sort"
	"strings"
)

// Fingerprint returns a canonical textual key of the query plan: two
// queries with the same fingerprint compute the same result table over the
// same view state. The encoding is injective over the Query fields (each
// component is length- and type-tagged), so distinct plans never collide;
// it is intentionally order-sensitive on GroupBy/Aggregates/Filters —
// reordered but semantically equal queries simply occupy separate cache
// entries.
//
// The batch executor shares work at a finer grain than whole plans: see
// FilterFingerprint (the filter-set sub-fingerprint, order-insensitive)
// and GroupFingerprint (the group-by list sub-fingerprint).
func (q Query) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "f:%d:%s", len(q.Fact), q.Fact)
	for _, g := range q.GroupBy {
		b.WriteByte('|')
		g.appendFingerprint(&b)
	}
	for _, a := range q.Aggregates {
		fmt.Fprintf(&b, "|a:%d:%d:%s", a.Agg, len(a.Measure), a.Measure)
	}
	for _, f := range q.Filters {
		b.WriteByte('|')
		f.appendFingerprint(&b)
	}
	if q.OrderBy != nil {
		fmt.Fprintf(&b, "|o:%d:%t", q.OrderBy.Agg, q.OrderBy.Desc)
	}
	if q.Limit != 0 {
		fmt.Fprintf(&b, "|l:%d", q.Limit)
	}
	return b.String()
}

// appendFingerprint writes the injective encoding of one grouping.
func (r LevelRef) appendFingerprint(b *strings.Builder) {
	fmt.Fprintf(b, "g:%d:%s:%d:%s", len(r.Dimension), r.Dimension, len(r.Level), r.Level)
}

// GroupFingerprint returns the injective sub-fingerprint of the query's
// group-by list: the sharing key under which the batch executor
// materializes one composite roll-up key column per distinct list in a
// batch. It is order-sensitive — the composite key weighs levels by their
// position — and "" without group-by.
func (q Query) GroupFingerprint() string {
	var b strings.Builder
	for i, g := range q.GroupBy {
		if i > 0 {
			b.WriteByte('|')
		}
		g.appendFingerprint(&b)
	}
	return b.String()
}

// appendFingerprint writes the injective encoding of one filter.
func (f AttrFilter) appendFingerprint(b *strings.Builder) {
	v := fmt.Sprintf("%T=%v", f.Value, f.Value)
	fmt.Fprintf(b, "w:%d:%s:%d:%s:%d:%s:%d:%d:%s",
		len(f.Dimension), f.Dimension, len(f.Level), f.Level,
		len(f.Attr), f.Attr, f.Op, len(v), v)
}

// Fingerprint returns the injective sub-fingerprint of one filter
// predicate: the sharing key under which the batch executor materializes
// one bitmap per distinct single AttrFilter in a batch (each query's
// filter mask is then AND-composed from its predicate bitmaps). Every
// component is length- or type-tagged, so distinct predicates never
// collide.
func (f AttrFilter) Fingerprint() string {
	var b strings.Builder
	f.appendFingerprint(&b)
	return b.String()
}

// CombinePredicateFingerprints folds per-predicate sub-fingerprints into
// the filter-set sub-fingerprint: each is length-tagged and the list is
// sorted before joining, so reordered but equal sets share one key while
// distinct sets (including multisets differing only in repetition) never
// collide. This is the single point where the set keyspace is derived
// from the predicate keyspace — the two can never disagree. The input
// slice is not modified.
func CombinePredicateFingerprints(fps []string) string {
	encs := append([]string(nil), fps...)
	sort.Strings(encs)
	var b strings.Builder
	for _, e := range encs {
		fmt.Fprintf(&b, "%d:%s", len(e), e)
	}
	return b.String()
}

// FilterFingerprint returns the injective sub-fingerprint of the query's
// filter set: the sharing key under which the batch executor caches one
// composed filter bitmap per distinct set. A filter conjunction is
// order-insensitive (the set of passing facts does not depend on
// evaluation order), so the key is derived from the per-predicate
// AttrFilter.Fingerprint values via CombinePredicateFingerprints. Queries
// without filters fingerprint to "".
func (q Query) FilterFingerprint() string {
	if len(q.Filters) == 0 {
		return ""
	}
	fps := make([]string, len(q.Filters))
	for i, f := range q.Filters {
		fps[i] = f.Fingerprint()
	}
	return CombinePredicateFingerprints(fps)
}

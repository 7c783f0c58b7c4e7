package cube

// postings is a member→facts join index over one fact table and one
// dimension, in CSR form: the fact rows referencing finest-level member m
// are rows[offs[m]:offs[m+1]], ascending. View.Materialize drives view
// masks from it, so a personalized view costs its visible facts, not the
// table.
//
// An index is built lazily, the first time a view constrains its
// dimension — a counting sort over the key column, O(facts + members),
// 4 bytes per fact plus 4 per member (1.6 MB for 400 000 facts) — and is
// rebuilt on the next use once the table's length or the dimension's
// finest member count has moved (AddFact, AddMember): key columns are
// append-only, so nothing else can stale it, and ingest costs one O(n)
// rebuild per materialization at most, what the per-fact mask walk it
// replaced cost every time.
type postings struct {
	n    int
	offs []int32
	rows []int32
}

// member returns the fact rows of finest member m.
func (p *postings) member(m int) []int32 { return p.rows[p.offs[m]:p.offs[m+1]] }

// count returns how many fact rows reference finest member m.
func (p *postings) count(m int) int { return int(p.offs[m+1] - p.offs[m]) }

// postingsFor returns the current postings of one dimension, building
// them when absent or stale. members is the dimension's finest-level
// member count. Concurrent materializations (views read under the
// executor's read lock) share one build.
func (fd *FactData) postingsFor(dim string, members int) *postings {
	fd.postMu.Lock()
	defer fd.postMu.Unlock()
	if p := fd.posts[dim]; p != nil && p.n == fd.n && len(p.offs) == members+1 {
		return p
	}
	keys := fd.dimKeys[dim][:fd.n]
	p := &postings{n: fd.n,
		offs: make([]int32, members+1), rows: make([]int32, len(keys))}
	for _, k := range keys {
		p.offs[k+1]++
	}
	for m := 0; m < members; m++ {
		p.offs[m+1] += p.offs[m]
	}
	next := append([]int32(nil), p.offs[:members]...)
	for i, k := range keys {
		p.rows[next[k]] = int32(i)
		next[k]++
	}
	if fd.posts == nil {
		fd.posts = map[string]*postings{}
	}
	fd.posts[dim] = p
	return p
}

package cube

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"sdwp/internal/bitset"
)

// View is a personalized window over a cube: the accumulated effect of the
// paper's SelectInstance actions in one analysis session. A nil mask means
// "everything visible" (bitset's nil-as-universe convention).
//
// Selections compose by union within a level (repeated SelectInstance calls
// "also add" instances, per Example 5.3) and by intersection across levels
// and with the fact mask (a fact is visible only if every constrained
// coordinate is selected).
//
// A View is a value: it never changes once built. Selections go through a
// ViewBuilder taken from a view (Builder), whose View call returns a new
// View and computes its content key once. So any number of goroutines may
// read a view and its masks without a lock, a query sees exactly the
// content its view's key names, and a session moves to new content by
// replacing its view.
type View struct {
	cube *Cube
	// levelMasks maps "Dim.Level" to the selected members of that level.
	levelMasks map[string]*bitset.Set
	// factMasks maps fact names to directly selected fact instances.
	factMasks map[string]*bitset.Set
	key       string
}

// viewKeyPrefix starts every view key, apart from the artifact caches'
// set, predicate and grouping fingerprints (a digit, 'w', 'g').
const viewKeyPrefix = "v"

// NewView returns an unrestricted view over the cube.
func NewView(c *Cube) *View {
	v := &View{cube: c}
	v.key = v.contentKey()
	return v
}

// Key returns the view's content key: viewKeyPrefix and the SHA-256 of
// its canonical bytes (appendContent). Views with equal selections have
// equal keys, whatever session made them in whatever order, so the key
// names a view state in the result cache, the artifact cache
// (Materialize) and the shard splits.
func (v *View) Key() string { return v.key }

func (v *View) contentKey() string {
	var buf [512]byte // a login's selections fit: 2 000 stores are 250 B
	sum := sha256.Sum256(v.appendContent(buf[:0]))
	return viewKeyPrefix + string(sum[:])
}

// appendContent appends the view's canonical bytes: level selections,
// then direct fact selections, each in sorted order of its map key
// ("Dim.Level" or the fact name) as a tag, the length-prefixed key and
// the mask's words up to its last non-zero one (a selection made before
// its level or table grew keeps its content).
func (v *View) appendContent(b []byte) []byte {
	for _, sel := range [...]struct {
		tag   byte
		masks map[string]*bitset.Set
	}{{'L', v.levelMasks}, {'F', v.factMasks}} {
		keys := make([]string, 0, len(sel.masks))
		for k := range sel.masks {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			b = append(binary.AppendUvarint(append(b, sel.tag), uint64(len(k))), k...)
			words := sel.masks[k].Words()
			for len(words) > 0 && words[len(words)-1] == 0 {
				words = words[:len(words)-1]
			}
			b = binary.AppendUvarint(b, uint64(len(words)))
			for _, w := range words {
				b = binary.LittleEndian.AppendUint64(b, w)
			}
		}
	}
	return b
}

func levelKey(dim, level string) string { return dim + "." + level }

// ViewBuilder adds selections to a base view without changing it. The
// first write to a level or fact selection copies that one set; the
// others stay shared with the base. A builder is not safe for concurrent
// use.
type ViewBuilder struct {
	base *View
	// levels and facts hold the selections written since base: full
	// copies of base's sets with the new bits, owned by the builder.
	levels map[string]*bitset.Set
	facts  map[string]*bitset.Set
}

// Builder returns a builder over the view's selections.
func (v *View) Builder() *ViewBuilder { return &ViewBuilder{base: v} }

// SelectMember adds one member of a level to the selection. The first
// selection on a level restricts the level to exactly the selected
// members; later selections extend the set.
func (b *ViewBuilder) SelectMember(dim, level string, member int32) error {
	ld, err := b.base.cube.levelData(dim, level)
	if err != nil {
		return err
	}
	if member < 0 || int(member) >= ld.Len() {
		return fmt.Errorf("cube: member %d out of range for %s.%s", member, dim, level)
	}
	b.levels = selectBit(b.levels, b.base.levelMasks, levelKey(dim, level), int(member), ld.Len())
	return nil
}

// SelectFact adds one fact instance to the fact selection.
func (b *ViewBuilder) SelectFact(fact string, idx int32) error {
	fd := b.base.cube.facts[fact]
	if fd == nil {
		return fmt.Errorf("cube: unknown fact %q", fact)
	}
	if idx < 0 || int(idx) >= fd.n {
		return fmt.Errorf("cube: fact index %d out of range for %q", idx, fact)
	}
	b.facts = selectBit(b.facts, b.base.factMasks, fact, int(idx), fd.n)
	return nil
}

// selectBit sets bit i of the builder's selection key, whose level or
// table has n entries: a bit the base already holds needs no write, and
// the first write copies the base's set (or starts an empty one) at
// capacity n, as does one past a capacity the level or table has since
// outgrown. It returns own, allocated on first use.
func selectBit(own, base map[string]*bitset.Set, key string, i, n int) map[string]*bitset.Set {
	m := own[key]
	if m == nil {
		if bm := base[key]; bm != nil && bm.Test(i) {
			return own
		}
		m = resized(base[key], n)
		if own == nil {
			own = map[string]*bitset.Set{}
		}
		own[key] = m
	} else if i >= m.Len() {
		m = resized(m, n)
		own[key] = m
	}
	m.Set(i)
	return own
}

// resized returns a copy of m (nil copies as empty) at capacity n ≥ m.Len().
func resized(m *bitset.Set, n int) *bitset.Set {
	out := bitset.New(n)
	copy(out.Words(), m.Words())
	return out
}

// View returns the view holding the base's selections and the builder's,
// the base itself when nothing was selected. The builder then continues
// from the returned view: later selections copy again and never reach it.
func (b *ViewBuilder) View() *View { return b.Onto(b.base) }

// Onto returns cur with the selections written to the builder since it
// was taken or last built ORed in (cur itself when there are none): the
// built view when cur is the builder's base. Selections only add, so two
// builders taken from one view and built onto each other's results lose
// neither's selections. The builder then continues from the returned
// view.
func (b *ViewBuilder) Onto(cur *View) *View {
	if len(b.levels) == 0 && len(b.facts) == 0 {
		b.base = cur
		return cur
	}
	v := &View{cube: cur.cube, levelMasks: union(cur.levelMasks, b.levels), factMasks: union(cur.factMasks, b.facts)}
	v.key = v.contentKey()
	b.base, b.levels, b.facts = v, nil, nil
	return v
}

// union returns cur's selections with each of own's sets, ORed with
// cur's, in its place. own's sets pass to the result.
func union(cur, own map[string]*bitset.Set) map[string]*bitset.Set {
	if len(own) == 0 {
		return cur
	}
	out := make(map[string]*bitset.Set, len(cur)+len(own))
	for k, m := range cur {
		out[k] = m
	}
	for k, m := range own {
		if c := cur[k]; c != nil {
			if c.Len() > m.Len() {
				m = resized(m, c.Len())
			}
			w := m.Words()
			for i, x := range c.Words() {
				w[i] |= x
			}
		}
		out[k] = m
	}
	return out
}

// Materialize returns the combined, immutable visibility mask of one fact
// table (nil when the view leaves it unrestricted), sized at the table's
// length and cached in the table's artifact cache under the view's Key
// and the table's Version: views with equal selections share one build.
// Level selections admit appended rows; direct fact selections
// (SelectFact) do not, since they name rows.
//
// A miss builds the mask from the fact table's member→facts postings
// (postings.go), so it costs O(visible facts × constrained dimensions),
// not a walk over the whole table: per constrained dimension, the level
// masks are pushed down to the finest level and ANDed — one ancestor
// lookup per finest member — giving the dimension's admitted members; the
// dimension whose admitted members own the fewest fact rows drives, and
// each of its rows is kept when every other constrained coordinate is
// admitted and the direct fact mask holds it.
func (v *View) Materialize(fact string) *bitset.Set {
	fd := v.cube.facts[fact]
	if fd == nil || !v.restricts(fd) {
		return nil
	}
	version := fd.Version()
	if e := fd.artifacts.get(v.key, version); e != nil {
		return e.mask
	}
	m := v.materialize(fd)
	fd.offerMask(version, v.key, m)
	return m
}

// dimFilter is one constrained dimension of a materialization: the finest
// members its level masks admit, and the fact rows that reference them.
type dimFilter struct {
	dim     string
	allowed *bitset.Set
	keys    []int32 // the fact table's key column for the dimension
	post    *postings
	rows    int // fact rows of the admitted members
}

// materialize builds the visibility mask of a restricted fact table.
func (v *View) materialize(fd *FactData) *bitset.Set {
	fm := v.factMasks[fd.fact.Name]
	var dims []*dimFilter
	for key, mask := range v.levelMasks {
		dim, level, _ := strings.Cut(key, ".")
		dd := v.cube.dims[dim]
		if dd == nil || !fd.fact.HasDimension(dim) {
			continue
		}
		li := dd.dim.LevelIndex(level)
		if li < 0 {
			continue
		}
		var f *dimFilter
		for _, d := range dims {
			if d.dim == dim {
				f = d
			}
		}
		if f == nil {
			f = &dimFilter{dim: dim, allowed: bitset.Full(dd.levels[0].Len()), keys: fd.dimKeys[dim]}
			dims = append(dims, f)
		}
		for j, anc := range dd.ancestorsFromFinest(li) {
			if anc == NoParent || !mask.Test(int(anc)) {
				f.allowed.Clear(j)
			}
		}
	}
	if len(dims) == 0 {
		if fm == nil {
			return bitset.Full(fd.n)
		}
		return resized(fm, fd.n)
	}
	driver := 0
	for i, f := range dims {
		f.post = fd.postingsFor(f.dim, f.allowed.Len())
		f.allowed.ForEach(func(j int) bool {
			f.rows += f.post.count(j)
			return true
		})
		if f.rows < dims[driver].rows {
			driver = i
		}
	}
	out := bitset.New(fd.n)
	d := dims[driver]
	others := append(dims[:driver:driver], dims[driver+1:]...)
	d.allowed.ForEach(func(j int) bool {
		for _, r := range d.post.member(j) {
			if int(r) >= fd.n {
				break // rows ascend
			}
			if fm != nil && !fm.Test(int(r)) {
				continue
			}
			visible := true
			for _, o := range others {
				if !o.allowed.Test(int(o.keys[r])) {
					visible = false
					break
				}
			}
			if visible {
				out.Set(int(r))
			}
		}
		return true
	})
	return out
}

// restricts reports whether any selection constrains the fact.
func (v *View) restricts(fd *FactData) bool {
	if v.factMasks[fd.fact.Name] != nil {
		return true
	}
	for key := range v.levelMasks {
		dim, _, _ := strings.Cut(key, ".")
		if v.cube.dims[dim] != nil && fd.fact.HasDimension(dim) {
			return true
		}
	}
	return false
}

// LevelMask returns the selection of a level (nil = unrestricted).
func (v *View) LevelMask(dim, level string) *bitset.Set {
	return v.levelMasks[levelKey(dim, level)]
}

// FactMask returns the direct selection of a fact (nil = unrestricted).
func (v *View) FactMask(fact string) *bitset.Set {
	return v.factMasks[fact]
}

// FactVisible reports whether fact instance idx passes the fact mask and
// every level mask (its coordinates' ancestors must be selected at each
// constrained level).
func (v *View) FactVisible(fact string, idx int32) bool {
	fd := v.cube.facts[fact]
	if fd == nil {
		return false
	}
	if m := v.factMasks[fact]; m != nil && !m.Test(int(idx)) {
		return false
	}
	for key, mask := range v.levelMasks {
		dim, level, _ := strings.Cut(key, ".")
		dd := v.cube.dims[dim]
		if dd == nil || !fd.fact.HasDimension(dim) {
			continue
		}
		li := dd.dim.LevelIndex(level)
		if li < 0 {
			continue
		}
		anc := dd.Ancestor(0, li, fd.dimKeys[dim][idx])
		if anc == NoParent || !mask.Test(int(anc)) {
			return false
		}
	}
	return true
}

package cube

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"

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
// A View is safe for concurrent use: queries may run while the session
// mutates the view through new selections. A query that races with a
// selection sees either the view before or after that selection — never a
// torn state — because executors work from the immutable mask
// Materialize returns at query start (and the scheduler scans a Clone
// taken at admission).
type View struct {
	cube *Cube

	// mu guards the selections and the cached key. Level/fact masks
	// returned by the accessors are live sets: they must not be read
	// concurrently with new selections on the same view.
	mu sync.RWMutex
	// levelMasks maps "Dim.Level" to the selected members of that level.
	levelMasks map[string]*bitset.Set
	// factMasks maps fact names to directly selected fact instances.
	factMasks map[string]*bitset.Set
	// key caches Key; every mutation clears it.
	key string
}

// viewKeyPrefix starts every view key, apart from the artifact caches'
// set, predicate and grouping fingerprints (a digit, 'w', 'g').
const viewKeyPrefix = "v"

// NewView returns an unrestricted view over the cube.
func NewView(c *Cube) *View {
	return &View{
		cube:       c,
		levelMasks: map[string]*bitset.Set{},
		factMasks:  map[string]*bitset.Set{},
	}
}

// Key returns the view's content key: viewKeyPrefix and the SHA-256 of
// its canonical bytes (appendContentLocked), computed once after a
// mutation. Views with equal selections have equal keys, whatever session
// made them in whatever order, so the key names a view state in the
// result cache, the artifact cache (Materialize) and the shard splits.
func (v *View) Key() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.keyLocked()
}

// keyLocked is Key. Callers hold v.mu (write).
func (v *View) keyLocked() string {
	if v.key == "" {
		sum := sha256.Sum256(v.appendContentLocked(nil))
		v.key = viewKeyPrefix + string(sum[:])
	}
	return v.key
}

// appendContentLocked appends the view's canonical bytes: level
// selections, then direct fact selections, each in sorted order of its
// map key ("Dim.Level" or the fact name) as a tag, the length-prefixed
// key, for a fact selection its length, and the mask's words up to its
// last non-zero one (a level that grew since its first selection keeps
// its content). Callers hold v.mu.
func (v *View) appendContentLocked(b []byte) []byte {
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
			m := sel.masks[k]
			b = append(binary.AppendUvarint(append(b, sel.tag), uint64(len(k))), k...)
			if sel.tag == 'F' {
				b = binary.AppendUvarint(b, uint64(m.Len()))
			}
			words := m.Words()
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

// SelectMember adds one member of a level to the view's selection. The
// first selection on a level restricts the level to exactly the selected
// members; later selections extend the set.
func (v *View) SelectMember(dim, level string, member int32) error {
	ld, err := v.cube.levelData(dim, level)
	if err != nil {
		return err
	}
	if member < 0 || int(member) >= ld.Len() {
		return fmt.Errorf("cube: member %d out of range for %s.%s", member, dim, level)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if selectBit(v.levelMasks, levelKey(dim, level), int(member), ld.Len()) {
		v.key = ""
	}
	return nil
}

// SelectFact adds one fact instance to the view's fact selection.
func (v *View) SelectFact(fact string, idx int32) error {
	fd := v.cube.facts[fact]
	if fd == nil {
		return fmt.Errorf("cube: unknown fact %q", fact)
	}
	if idx < 0 || int(idx) >= fd.n {
		return fmt.Errorf("cube: fact index %d out of range for %q", idx, fact)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if selectBit(v.factMasks, fact, int(idx), fd.n) {
		v.key = ""
	}
	return nil
}

// selectBit sets bit i of masks[key], creating the selection with
// capacity n or regrowing it to n when its level or table grew since, and
// reports whether the content changed. Callers hold v.mu.
func selectBit(masks map[string]*bitset.Set, key string, i, n int) bool {
	m := masks[key]
	if m != nil && m.Test(i) {
		return false
	}
	if i >= m.Len() {
		grown := bitset.New(n)
		m.ForEach(func(j int) bool {
			grown.Set(j)
			return true
		})
		m = grown
		masks[key] = m
	}
	m.Set(i)
	return true
}

// Materialize returns the combined, immutable visibility mask of one fact
// table (nil when the view leaves it unrestricted), cached in the table's
// artifact cache under the view's Key and the table's Version: views with
// equal selections share one build. Level selections admit appended rows;
// direct fact selections (SelectFact) do not, since they name rows.
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
	if fd == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.restrictsLocked(fd) {
		return nil
	}
	key, version := v.keyLocked(), fd.Version()
	if e := fd.artifacts.get(key, version); e != nil {
		return e.mask
	}
	m := v.materializeLocked(fd)
	fd.offerMask(version, key, m)
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

// materializeLocked builds the visibility mask of a restricted fact table.
// Callers hold v.mu.
func (v *View) materializeLocked(fd *FactData) *bitset.Set {
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
		return fm.Clone()
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
	// A direct fact selection taken before later ingest is shorter than the
	// table; the mask keeps its capacity (facts past it are not visible).
	size := fd.n
	if fm != nil {
		size = fm.Len()
	}
	out := bitset.New(size)
	d := dims[driver]
	others := append(dims[:driver:driver], dims[driver+1:]...)
	d.allowed.ForEach(func(j int) bool {
		for _, r := range d.post.member(j) {
			if int(r) >= size {
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

// restrictsLocked reports whether any selection constrains the fact.
// Callers hold v.mu.
func (v *View) restrictsLocked(fd *FactData) bool {
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

// LevelMask returns the mask for a level (nil = unrestricted). The
// returned set is live: do not read it concurrently with new selections.
func (v *View) LevelMask(dim, level string) *bitset.Set {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.levelMasks[levelKey(dim, level)]
}

// FactMask returns the mask for a fact (nil = unrestricted).
func (v *View) FactMask(fact string) *bitset.Set {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.factMasks[fact]
}

// AppendLevelSelection appends the words of the level's selection mask
// (bitset word layout: member i is bit i%64 of word i/64) to dst, read
// once under the view's lock, and reports whether the level is
// restricted; an unrestricted level appends nothing. A caller testing many
// members so reads one selection state, at one lock for the level instead
// of one per member, and later selections do not touch its copy.
func (v *View) AppendLevelSelection(dst []uint64, dim, level string) ([]uint64, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	m := v.levelMasks[levelKey(dim, level)]
	if m == nil {
		return dst, false
	}
	return append(dst, m.Words()...), true
}

// FactVisible reports whether fact instance idx passes the fact mask and
// every level mask (its coordinates' ancestors must be selected at each
// constrained level).
func (v *View) FactVisible(fact string, idx int32) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.factVisibleLocked(fact, idx)
}

func (v *View) factVisibleLocked(fact string, idx int32) bool {
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

// Clone returns an independent copy of the view's selections. It has the
// original's content, so it shares the original's key and every entry
// cached under it.
func (v *View) Clone() *View {
	c := NewView(v.cube)
	v.mu.Lock()
	defer v.mu.Unlock()
	c.key = v.keyLocked()
	for k, m := range v.levelMasks {
		c.levelMasks[k] = m.Clone()
	}
	for k, m := range v.factMasks {
		c.factMasks[k] = m.Clone()
	}
	return c
}

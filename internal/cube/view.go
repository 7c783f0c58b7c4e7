package cube

import (
	"fmt"
	"sync"
	"sync/atomic"

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
// torn state — because executors work from the materialized snapshot mask
// taken at query start.
type View struct {
	cube *Cube
	// id is process-unique: result caches key entries by (view id, epoch)
	// so entries of a dead view can never alias a new one.
	id uint64

	// mu guards all mutable state below. Materialized snapshots are built
	// and replaced under the lock and never mutated in place afterwards,
	// so queries can iterate them lock-free. Level/fact masks returned by
	// the accessors are live sets: they must not be read concurrently
	// with new selections on the same view.
	mu sync.RWMutex
	// epoch counts selections applied to this view. Every mutation bumps
	// it, so an (id, epoch) pair names one immutable state of the view —
	// the invalidation key of the scheduler's result cache.
	epoch uint64
	// levelMasks maps "Dim.Level" to the selected members of that level.
	levelMasks map[string]*bitset.Set
	// factMasks maps fact names to directly selected fact instances.
	factMasks map[string]*bitset.Set
	// materialized caches the per-fact combination of all masks so queries
	// iterate only visible facts; invalidated on every new selection, and
	// rebuilt when the fact table's version moves past its stamp.
	materialized map[string]stampedMask
}

// stampedMask is a materialized view mask and the fact table version
// (FactData.Version) it was built under.
type stampedMask struct {
	m       *bitset.Set
	version uint64
}

// viewSeq issues process-unique view ids.
var viewSeq atomic.Uint64

// NewView returns an unrestricted view over the cube.
func NewView(c *Cube) *View {
	return &View{
		cube:       c,
		id:         viewSeq.Add(1),
		levelMasks: map[string]*bitset.Set{},
		factMasks:  map[string]*bitset.Set{},
	}
}

// Cube returns the underlying cube.
func (v *View) Cube() *Cube { return v.cube }

// ID returns the view's process-unique identity.
func (v *View) ID() uint64 { return v.id }

// Epoch returns the view's mutation counter. Two reads returning the same
// value bracket a window in which no selection was applied, so any result
// computed from the view in between reflects exactly that state — the
// property the scheduler's result cache relies on.
func (v *View) Epoch() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.epoch
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
	key := levelKey(dim, level)
	v.mu.Lock()
	defer v.mu.Unlock()
	m := v.levelMasks[key]
	if m == nil {
		m = bitset.New(ld.Len())
		v.levelMasks[key] = m
	}
	if m.Test(int(member)) {
		// Re-selecting an already-selected member changes nothing: keep
		// the epoch (and every cached result keyed by it) valid.
		return nil
	}
	m.Set(int(member))
	v.epoch++
	v.materialized = nil
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
	m := v.factMasks[fact]
	if m == nil {
		m = bitset.New(fd.n)
		v.factMasks[fact] = m
	}
	if m.Test(int(idx)) {
		return nil // no-op re-selection, see SelectMember
	}
	m.Set(int(idx))
	v.epoch++
	v.materialized = nil
	return nil
}

// Materialize returns the combined per-fact visibility mask for one fact
// table (nil when the view leaves that fact unrestricted). The result is
// cached until the next selection or the next change to the fact table
// (its Version), so the per-query cost of a personalized view is one
// bitset iteration instead of per-fact mask checks. The returned set is an
// immutable snapshot: later selections and appends build a new one. Level
// selections admit appended rows; direct fact selections (SelectFact) do
// not, since they name rows by index.
//
// The mask is built from the fact table's member→facts postings
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
	version := fd.Version()
	if sm, ok := v.materialized[fact]; ok && sm.version == version {
		return sm.m
	}
	m := v.materializeLocked(fd)
	if v.materialized == nil {
		v.materialized = map[string]stampedMask{}
	}
	v.materialized[fact] = stampedMask{m: m, version: version}
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
		dim, level := splitKey(key)
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
		dim, _ := splitKey(key)
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

// Restricted reports whether any selection has been applied.
func (v *View) Restricted() bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.levelMasks) > 0 || len(v.factMasks) > 0
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
		dim, level := splitKey(key)
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

func splitKey(key string) (dim, level string) {
	for i := 0; i < len(key); i++ {
		if key[i] == '.' {
			return key[:i], key[i+1:]
		}
	}
	return key, ""
}

// VisibleFactCount counts the fact instances visible through the view.
func (v *View) VisibleFactCount(fact string) int {
	fd := v.cube.facts[fact]
	if fd == nil {
		return 0
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	if len(v.levelMasks) == 0 && len(v.factMasks) == 0 {
		return fd.n
	}
	n := 0
	for i := int32(0); int(i) < fd.n; i++ {
		if v.factVisibleLocked(fact, i) {
			n++
		}
	}
	return n
}

// Clone returns an independent copy of the view's masks under a fresh view
// identity (cached results of the original never alias the clone).
func (v *View) Clone() *View {
	c := NewView(v.cube)
	v.mu.RLock()
	defer v.mu.RUnlock()
	c.epoch = v.epoch
	for k, m := range v.levelMasks {
		c.levelMasks[k] = m.Clone()
	}
	for k, m := range v.factMasks {
		c.factMasks[k] = m.Clone()
	}
	return c
}

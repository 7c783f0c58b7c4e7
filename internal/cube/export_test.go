package cube

// Test-only exports for the external (cube_test) harnesses.

// MaxDenseCells is the dense/hashed group-table boundary, so tests can
// assert which side of it a group-by falls on.
const MaxDenseCells = maxDenseCells

// SparseViewK is the sparse-view constant of the own-bitmap decision, so
// tests can build views on either side of it.
const SparseViewK = sparseViewK

// CodeSetKinds names the code-set class of each filter of a compiled
// query, so tests can assert which stage-1 kernels they reached.
func CodeSetKinds(cq *CompiledQuery) []string {
	kinds := make([]string, len(cq.p.filters))
	for i, fs := range cq.p.filters {
		kinds[i] = [...]string{csEmpty: "empty", csAll: "all", csRange: "range", csSparse: "sparse"}[fs.codes.kind]
	}
	return kinds
}

// OrphanMember cuts a member loose from its parent. The loading API never
// produces orphans (AddMember validates parents), so this is the only way
// to exercise the executor's NoParent group slots — facts rolling up
// through an orphan land in the "(none)" group of every coarser level.
func OrphanMember(c *Cube, dim, level string, member int32) {
	ld, err := c.levelData(dim, level)
	if err != nil {
		panic(err)
	}
	ld.parents[member] = NoParent
	c.dims[dim].invalidateDerived()
	c.bumpFactVersions()
}

// SetArtifactCacheLimits overrides fact table fact's artifact-cache byte
// budget and doorkeeper generation size (0 keeps the default of either).
func SetArtifactCacheLimits(c *Cube, fact string, budget int64, doorCap int) {
	ac := &c.facts[fact].artifacts
	ac.mu.Lock()
	ac.budget, ac.doorCap = budget, doorCap
	ac.mu.Unlock()
}

// ArtifactCacheBudget is fact table fact's current artifact-cache byte
// budget.
func ArtifactCacheBudget(c *Cube, fact string) int64 {
	fd := c.facts[fact]
	fd.artifacts.mu.Lock()
	defer fd.artifacts.mu.Unlock()
	return fd.artifacts.budgetLocked(fd.n)
}

// ResetArtifactCaches empties every artifact cache of the cube's fact
// tables and zeroes their counters and limits, so a test sharing a cube
// with earlier tests starts cold. No scan may run meanwhile.
func ResetArtifactCaches(c *Cube) {
	for _, fd := range c.facts {
		fd.artifacts = artifactCache{}
	}
}

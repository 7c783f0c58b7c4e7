//go:build race

package cube

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random quarter of its Puts, so a test cannot expect to Get back
// the buffer a scan just returned.
const raceEnabled = true

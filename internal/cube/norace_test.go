//go:build !race

package cube

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false

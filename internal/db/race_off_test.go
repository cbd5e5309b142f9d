//go:build !race

package db

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false

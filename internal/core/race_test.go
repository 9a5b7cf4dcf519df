//go:build race

package core

// raceEnabled reports a -race build, whose instrumentation changes heap
// accounting.
const raceEnabled = true

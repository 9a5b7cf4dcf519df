//go:build race

package netkv

// raceEnabled reports a -race build, whose instrumentation allocates and
// so voids allocation counts.
const raceEnabled = true

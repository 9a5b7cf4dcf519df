//go:build !race

package netkv

const raceEnabled = false

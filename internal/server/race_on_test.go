//go:build race

package server

// raceEnabled reports whether the race detector is compiled in; allocation
// guards skip under -race because race instrumentation itself allocates.
const raceEnabled = true

//go:build !race

package kifmm

// raceEnabled reports whether the race detector is active.
const raceEnabled = false

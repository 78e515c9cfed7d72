//go:build race

package kifmm

// raceEnabled reports whether the race detector is active; allocation-count
// tests skip under it, since race instrumentation inflates AllocsPerRun far
// past any meaningful budget.
const raceEnabled = true

//go:build !amd64 || purego

package kifmm

// hadamardVec is the vector kernel's stand-in on builds without one: it
// covers no elements, so hadamardPanels' Go loop does all the work.
func hadamardVec(ar, ai, tr, ti, sr, si []float64) int { return 0 }

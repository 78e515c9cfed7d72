//go:build !amd64 || purego

package linalg

// UseAVX2 and UseAVX512 are false on builds without the vector kernels;
// UseAVX512 is a variable, as on amd64, so the probe can clear it anywhere.
const UseAVX2 = false

var UseAVX512 = false

// packedVec is the vector kernel's stand-in: it covers no rows, so Packed's
// Go loop does all the work.
func packedVec(panels, x, y []float64, add bool) int { return 0 }

//go:build !purego

package kifmm

import "kifmm/internal/linalg"

// hadamardAVX2 is implemented in hadamard_amd64.s.
//
//go:noescape
func hadamardAVX2(ar, ai, tr, ti, sr, si *float64, n int)

// hadamardVec runs the vector kernel over the leading multiple of four
// elements of six equal-length panels and returns how many it covered; the
// caller's Go loop finishes the tail (or everything, on a CPU without AVX2;
// linalg.UseAVX2 is the one probe every vector kernel in the module reads).
//
//fmm:hotpath
func hadamardVec(ar, ai, tr, ti, sr, si []float64) int {
	n := len(ar) &^ 3
	if !linalg.UseAVX2 || n == 0 {
		return 0
	}
	hadamardAVX2(&ar[0], &ai[0], &tr[0], &ti[0], &sr[0], &si[0], n)
	return n
}

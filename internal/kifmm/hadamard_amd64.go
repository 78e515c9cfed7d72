//go:build !purego

package kifmm

import "kifmm/internal/linalg"

// hadamardListAVX512 and hadamardListAVX2 are implemented in
// hadamard_amd64.s.
//
//go:noescape
func hadamardListAVX512(ops *hadamardOp, nops, c0, n, hl int)

//go:noescape
func hadamardListAVX2(ops *hadamardOp, nops, c0, n, hl int)

// hadamardListVec runs the widest vector body the CPU has over the leading
// elements of [c0, c1) and returns how many it covered; the caller's Go loop
// finishes the tail (or everything, on a CPU without AVX2). Both flags come
// from linalg's CPU probe: one probe, two flags.
//
//fmm:hotpath
func hadamardListVec(ops []hadamardOp, c0, c1, hl int) int {
	switch {
	case linalg.UseAVX512:
		return hadamardList512(ops, c0, c1, hl)
	case linalg.UseAVX2:
		return hadamardList256(ops, c0, c1, hl)
	}
	return 0
}

// hadamardList512 is the AVX-512 body over the leading multiple of eight
// elements of [c0, c1).
//
//fmm:hotpath
func hadamardList512(ops []hadamardOp, c0, c1, hl int) int {
	n := (c1 - c0) &^ 7
	if n <= 0 || len(ops) == 0 {
		return 0
	}
	hadamardListAVX512(&ops[0], len(ops), c0, n, hl)
	return n
}

// hadamardList256 is the AVX2 body over the leading multiple of four
// elements of [c0, c1).
//
//fmm:hotpath
func hadamardList256(ops []hadamardOp, c0, c1, hl int) int {
	n := (c1 - c0) &^ 3
	if n <= 0 || len(ops) == 0 {
		return 0
	}
	hadamardListAVX2(&ops[0], len(ops), c0, n, hl)
	return n
}

// hadamardVecBodies lists this build's vector bodies, widest first, each
// with whether the CPU runs it, so that tests can run every body directly
// rather than only the one hadamardListVec picks.
var hadamardVecBodies = []hadamardBody{
	{"avx512", linalg.UseAVX512, hadamardList512},
	{"avx2", linalg.UseAVX2, hadamardList256},
}

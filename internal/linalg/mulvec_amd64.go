//go:build !purego

package linalg

// UseAVX2 and UseAVX512 are the module's CPU probe — one probe, two flags,
// resolved once for every vector kernel: the CPU has the instruction set and
// the OS saves its registers. UseAVX2 gates the packed matrix-vector kernel
// here, internal/kernel's panel kernels and internal/kifmm's V-list Hadamard
// kernel; UseAVX512 (AVX512F) gates the Hadamard kernel's eight-lane body.
var UseAVX2, UseAVX512 = cpuProbe()

// cpuProbe and packedAVX2 are implemented in mulvec_amd64.s.
func cpuProbe() (avx2, avx512 bool)

//go:noescape
func packedAVX2(pk, x, y *float64, groups, cols int, add bool)

// packedVec runs the vector kernel over the four-row panels of a Packed
// (len(y) rows, len(x) columns) and returns how many rows it covered: all
// of them, or none on a CPU without AVX2 or with no rows or no columns, in
// which case Packed's Go loop does the work.
func packedVec(panels, x, y []float64, add bool) int {
	rows, cols := len(y), len(x)
	if !UseAVX2 || rows == 0 || cols == 0 {
		return 0
	}
	// The kernel reads exactly rows·cols panel entries.
	panels = panels[:rows*cols]
	packedAVX2(&panels[0], &x[0], &y[0], rows/4, cols, add)
	return rows
}

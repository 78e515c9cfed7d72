package gpu

import (
	"sort"

	"kifmm/internal/diag"
	"kifmm/internal/kifmm"
	"kifmm/internal/stream"
)

// VLI runs the FFT-diagonalized V-list translation with the paper's labor
// split: the per-octant forward/inverse FFTs execute on the CPU, while the
// diagonal translation — the frequency-space Hadamard multiply-accumulate —
// streams on the device in single precision. This stage has the lowest
// compute-to-memory ratio of the accelerated phases ("the least efficient
// in the GPU"), which the cost model reproduces. Spectra are the Hermitian
// half-spectra of the real grids, so device uploads, launches, and
// accumulators all cover n·n·(n/2+1) frequencies instead of n³.
func (a *FMMAccel) VLI(e *kifmm.Engine) {
	a.requireLaplace(e)
	a.phase(diag.PhaseVList, func() { a.vli(e) })
}

// packDir packs a V-list direction (components in [-3, 3]) into a key.
func packDir(dx, dy, dz int) uint32 {
	return uint32(dx+3)<<16 | uint32(dy+3)<<8 | uint32(dz+3)
}

func dirBetween(e *kifmm.Engine, src, trg int32) (int, int, int) {
	sk := e.Tree.Nodes[src].Key
	tk := e.Tree.Nodes[trg].Key
	s := int64(sk.SideUnits())
	return int((int64(tk.X) - int64(sk.X)) / s),
		int((int64(tk.Y) - int64(sk.Y)) / s),
		int((int64(tk.Z) - int64(sk.Z)) / s)
}

// log2i returns ⌈log₂ n⌉ for n ≥ 1.
func log2i(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

// toC64 packs one SoA half-spectrum (re panel, im panel) into interleaved
// complex64, the device-resident format.
func toC64(re, im []float64) []complex64 {
	out := make([]complex64, len(re))
	for i := range re {
		out[i] = complex(float32(re[i]), float32(im[i]))
	}
	return out
}

func (a *FMMAccel) vli(e *kifmm.Engine) {
	t := e.Tree
	f := e.Ops.FFT()
	hl := f.HalfLen()

	// Group V-list targets by level (V interactions are same-level).
	byLevel := make(map[int][]int32)
	for i := range t.Nodes {
		if len(t.Nodes[i].V) > 0 {
			byLevel[t.Nodes[i].Key.Level()] = append(byLevel[t.Nodes[i].Key.Level()], int32(i))
		}
	}

	// translation spectrum, converted to single precision once per
	// direction and kept device-resident.
	tfFor := func(dx, dy, dz int) []complex64 {
		key := packDir(dx, dy, dz)
		if tf, ok := a.vliTF[key]; ok {
			return tf
		}
		spec := f.Translation(dx, dy, dz) // Laplace: one component pair
		tf := toC64(spec[:hl], spec[hl:2*hl])
		a.vliTF[key] = tf
		a.Dev.H2D(8 * hl)
		return tf
	}

	// Visit levels in ascending order: map order would perturb the flop
	// accumulation order across runs (same bug class PR 4 fixed in the
	// engine's own FFT V-list pass).
	levels := make([]int, 0, len(byLevel))
	for l := range byLevel {
		levels = append(levels, l)
	}
	sort.Ints(levels)

	const block = 256
	for _, l := range levels {
		targets := byLevel[l]
		for lo := 0; lo < len(targets); lo += block {
			hi := lo + block
			if hi > len(targets) {
				hi = len(targets)
			}
			blockTargets := targets[lo:hi]

			// CPU: forward FFTs of the needed sources; single-precision
			// spectra uploaded to the device.
			srcIdx := make(map[int32]int)
			var srcs []int32
			for _, ti := range blockTargets {
				for _, ai := range t.Nodes[ti].V {
					if _, ok := srcIdx[ai]; !ok {
						srcIdx[ai] = len(srcs)
						srcs = append(srcs, ai)
					}
				}
			}
			specs := make([][]complex64, len(srcs))
			fftFlops := int64(5 * hl * log2i(hl)) // ~5·n·log n per transform
			for k, ai := range srcs {
				sp := f.SourceSpectrum(e.U[ai])
				a.HostFFTFlops += fftFlops
				specs[k] = toC64(sp[:hl], sp[hl:2*hl])
				a.Dev.H2D(8 * hl)
			}
			a.TranslationBytes += int64(8 * hl * len(srcs))

			// Device: Hadamard accumulation, one launch per target; blocks
			// tile the half-spectrum frequency range.
			accs := make([][]complex64, len(blockTargets))
			grid := (hl + blockSize - 1) / blockSize
			for bi, ti := range blockTargets {
				acc := make([]complex64, hl)
				accs[bi] = acc
				type pair struct{ tf, src []complex64 }
				var pairs []pair
				for _, ai := range t.Nodes[ti].V {
					dx, dy, dz := dirBetween(e, ai, ti)
					pairs = append(pairs, pair{tfFor(dx, dy, dz), specs[srcIdx[ai]]})
				}
				a.Dev.Launch(grid, blockSize, 0, func(blk *stream.Block) {
					start := blk.Idx * blockSize
					end := start + blockSize
					if end > hl {
						end = hl
					}
					for _, pr := range pairs {
						blk.ForEachThread(func(tid int) {
							i := start + tid
							if i >= end {
								return
							}
							acc[i] += pr.tf[i] * pr.src[i]
						})
						// Per pair-point: two complex64 loads, one
						// read-modify-write, 8 flops.
						blk.GlobalLoad(16*(end-start), true)
						blk.GlobalLoad(8*(end-start), true)
						blk.GlobalStore(8*(end-start), true)
						blk.Flops(8 * (end - start))
					}
				})
			}

			// CPU: inverse FFTs and check-surface extraction.
			grid64 := make([]float64, f.GridLen())
			for bi, ti := range blockTargets {
				a.Dev.D2H(8 * hl)
				acc := make([]float64, 2*hl)
				for i, v := range accs[bi] {
					acc[i] = float64(real(v))
					acc[hl+i] = float64(imag(v))
				}
				scale := e.Ops.KernScale(t.Nodes[ti].Key.Level())
				a.HostFFTFlops += int64(5 * hl * log2i(hl))
				f.ExtractCheck(acc, scale, e.DChk[ti], grid64)
			}
		}
	}
}

package kernel

import (
	"math/rand"
	"testing"
)

// TestEvalPanelAllocFree pins the hot-path property fmmvet's hotalloc
// analyzer enforces statically: a warm EvalPanel performs zero heap
// allocations, for every native batch kernel. A regression here (a stray
// append, boxing, or temporary) turns the per-leaf near-field inner loop
// back into a garbage generator. Both shapes take the vector kernels where
// the build and the CPU have them (asserted, so the pin cannot go vacuous):
// the Stokes lane scratch handed to the assembly must stay on the stack, with
// and without a Go tail behind it.
func TestEvalPanelAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, nt := range []int{64, 67} {
		const ns = 48
		tx, ty, tz := randPanel(rng, nt)
		sx, sy, sz := randPanel(rng, ns)
		for _, k := range batchKernels() {
			bk := AsBatch(k)
			den := make([]float64, ns*k.SrcDim())
			out := make([]float64, nt*k.TrgDim())
			for i := range den {
				den[i] = rng.NormFloat64()
			}
			bk.EvalPanel(tx, ty, tz, sx, sy, sz, den, out, -1) // warm
			allocs := testing.AllocsPerRun(20, func() {
				bk.EvalPanel(tx, ty, tz, sx, sy, sz, den, out, -1)
			})
			if allocs != 0 {
				t.Errorf("%s nt=%d: EvalPanel allocates %.1f times per call, want 0", k.Name(), nt, allocs)
			}
		}
		if UseAVX2 {
			out := make([]float64, 3*nt)
			den := make([]float64, 3*ns)
			if got := laplacePanelVec(tx, ty, tz, sx, sy, sz, den, out); got != 64 {
				t.Errorf("laplacePanelVec covered %d of %d targets, want 64", got, nt)
			}
			if got := stokesPanelVec(tx, ty, tz, sx, sy, sz, den, out); got != 64 {
				t.Errorf("stokesPanelVec covered %d of %d targets, want 64", got, nt)
			}
		}
	}
}

// TestEvalPanel32AllocFree pins the same zero-allocation property for the
// single-precision panel path: the float32 near field runs once per leaf
// per Apply, so a stray allocation here would multiply across the whole
// U/W/X traversal.
func TestEvalPanel32AllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const nt, ns = 64, 48
	tx, ty, tz, _, _, _ := randPanel32(rng, nt)
	sx, sy, sz, _, _, _ := randPanel32(rng, ns)
	for _, k := range batchKernels() {
		bk, ok := AsBatch32(k)
		if !ok {
			t.Fatalf("%s: no Batch32", k.Name())
		}
		den := make([]float32, ns*k.SrcDim())
		out := make([]float64, nt*k.TrgDim())
		for i := range den {
			den[i] = float32(rng.NormFloat64())
		}
		bk.EvalPanel32(tx, ty, tz, sx, sy, sz, den, out, -1) // warm
		allocs := testing.AllocsPerRun(20, func() {
			bk.EvalPanel32(tx, ty, tz, sx, sy, sz, den, out, -1)
		})
		if allocs != 0 {
			t.Errorf("%s: EvalPanel32 allocates %.1f times per call, want 0", k.Name(), allocs)
		}
	}
}

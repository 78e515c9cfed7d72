// Package gpu implements the paper's GPU-accelerated FMM phases on the
// simulated streaming device: the U-list direct interactions (Algorithm 4,
// including the IEEE NaN/max self-interaction trick), the S2U and D2T
// surface evaluations (with surface coordinates generated in-kernel from
// the octant geometry, minimizing memory fetches), and the frequency-space
// Hadamard stage of the FFT-diagonalized V-list translation (per-octant
// FFTs stay on the CPU, as in the paper).
//
// Each phase first translates the pointer-based local essential tree into a
// flat, padded, streaming-friendly layout — the data-structure translation
// the paper highlights — whose byte footprint is tracked.
package gpu

import (
	"fmt"
	"time"

	"kifmm/internal/diag"
	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/kifmm"
	"kifmm/internal/linalg"
	"kifmm/internal/stream"
)

// FMMAccel accelerates FMM evaluation phases on a streaming device (driven
// by internal/experiments' deviceEvaluate). Only the Laplace kernel is
// supported — mirroring the paper, whose GPU experiments use the Laplace
// kernel and single precision.
type FMMAccel struct {
	Dev *stream.Device
	// PhaseTimes accumulates modeled device time per phase.
	PhaseTimes map[string]time.Duration
	// TranslationBytes accumulates the footprint of the CPU-side
	// data-structure translations.
	TranslationBytes int64
	// HostFFTFlops accumulates the flops of the CPU-resident FFT work of
	// the V-list phase (forward transforms per source octant, inverse
	// transforms per target octant), which the paper keeps off the device.
	HostFFTFlops int64

	vliTF  map[uint32][]complex64 // converted translation spectra cache
	pinv32 *linalg.Mat            // float32-regularized UC→UE solve
	den    []float32              // den32's reused density buffer
}

const (
	// blockSize is the thread-block size b.
	blockSize = 64
	// tol32 is the pseudo-inverse regularization used by the device's S2U
	// solve. Single precision cannot support the engine's double-precision
	// tolerance: the check-to-equivalent operator is exponentially
	// ill-conditioned in the surface order, so float32 check potentials
	// must be regularized near √ε₃₂ or the solve amplifies rounding noise —
	// this is the quantitative face of the paper's "GPU acceleration is
	// implemented in single precision" limitation.
	tol32 = 1e-4
)

// New creates an accelerator bound to a device.
func New(dev *stream.Device) *FMMAccel {
	return &FMMAccel{
		Dev:        dev,
		PhaseTimes: make(map[string]time.Duration),
		vliTF:      make(map[uint32][]complex64),
	}
}

// uc2ue32 lazily builds the single-precision-appropriate regularized
// inverse of the upward check-to-equivalent operator at the reference
// scale.
func (a *FMMAccel) uc2ue32(e *kifmm.Engine) *linalg.Mat {
	if a.pinv32 == nil {
		const half = 0.5
		ue := e.Ops.Grid.Points(geom.Point{}, kifmm.RadInner*half)
		uc := e.Ops.Grid.Points(geom.Point{}, kifmm.RadOuter*half)
		a.pinv32 = linalg.PinvTikhonov(kernel.Matrix(e.Ops.Kern, uc, ue), tol32)
	}
	return a.pinv32
}

func (a *FMMAccel) requireLaplace(e *kifmm.Engine) {
	if e.Ops.Kern.Name() != "laplace" {
		panic(fmt.Sprintf("gpu: streaming acceleration supports the laplace kernel only (got %s), "+
			"matching the paper's single-precision GPU configuration", e.Ops.Kern.Name()))
	}
}

// phase runs fn and accumulates the modeled device time under name.
func (a *FMMAccel) phase(name string, fn func()) {
	before := a.Dev.Snapshot()
	fn()
	delta := a.Dev.Snapshot().Sub(before)
	a.PhaseTimes[name] += delta.ModeledTime()
}

// ModeledTotal returns the summed modeled device time across phases.
func (a *FMMAccel) ModeledTotal() time.Duration {
	var t time.Duration
	for _, v := range a.PhaseTimes {
		t += v
	}
	return t
}

// boxMeta is the per-octant geometry shipped to the device for in-kernel
// surface-coordinate generation.
type boxMeta struct {
	cx, cy, cz float32
	half       float32
}

func center32(e *kifmm.Engine, i int32) boxMeta {
	k := e.Tree.Nodes[i].Key
	x, y, z := k.Center()
	return boxMeta{float32(x), float32(y), float32(z), float32(k.Side() / 2)}
}

var _ = diag.PhaseUList // diag phase names are used by the kernel files

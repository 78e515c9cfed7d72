// Package kernel defines the interaction kernels whose two-body sums the FMM
// accelerates. The paper uses two: the Laplace single-layer kernel (scalar —
// electrostatics/gravitation; used for the GPU experiments) and the Stokes
// single-layer kernel (3 components per point — the Kraken experiments'
// fluid-mechanics target application).
//
// Both kernels are homogeneous of degree -1 (K(ax, ay) = K(x, y)/a), which
// lets the kernel-independent FMM reuse translation operators across levels
// with a simple rescaling.
package kernel

import (
	"math"

	"kifmm/internal/geom"
	"kifmm/internal/linalg"
	"kifmm/internal/sched"
)

// Kernel is a translation-invariant, non-oscillatory interaction kernel
// K(x, y) mapping a density at source y to a potential at target x.
// Implementations must be safe for concurrent use.
type Kernel interface {
	// Name identifies the kernel ("laplace", "stokes").
	Name() string
	// SrcDim is the number of density components per source point.
	SrcDim() int
	// TrgDim is the number of potential components per target point.
	TrgDim() int
	// Eval accumulates into out (length TrgDim) the potential at trg due to
	// the density (length SrcDim) at src. A singular pair (trg == src)
	// contributes nothing.
	Eval(trg, src geom.Point, density, out []float64)
	// HomogeneityDeg is d such that K(ax, ay) = a^(-d) · K(x, y).
	HomogeneityDeg() float64
	// FlopsPerInteraction estimates floating point operations per
	// source-target pair evaluation (for the flop accounting of Table II).
	FlopsPerInteraction() int
}

// Laplace is the 3-D Laplace single-layer kernel K(x,y) = 1/(4π‖x−y‖).
type Laplace struct{}

// Name implements Kernel.
func (Laplace) Name() string { return "laplace" }

// SrcDim implements Kernel.
func (Laplace) SrcDim() int { return 1 }

// TrgDim implements Kernel.
func (Laplace) TrgDim() int { return 1 }

// HomogeneityDeg implements Kernel.
func (Laplace) HomogeneityDeg() float64 { return 1 }

// FlopsPerInteraction implements Kernel.
func (Laplace) FlopsPerInteraction() int { return 14 }

const invFourPi = 1.0 / (4 * math.Pi)
const invEightPi = 1.0 / (8 * math.Pi)

// Eval implements Kernel.
func (Laplace) Eval(trg, src geom.Point, density, out []float64) {
	dx := trg.X - src.X
	dy := trg.Y - src.Y
	dz := trg.Z - src.Z
	r2 := dx*dx + dy*dy + dz*dz
	if r2 == 0 {
		return
	}
	out[0] += invFourPi / math.Sqrt(r2) * density[0]
}

// Stokes is the 3-D Stokes single-layer (Stokeslet/Oseen) kernel with unit
// viscosity: K_ij(x,y) = 1/(8π) (δ_ij/r + r_i r_j / r³).
type Stokes struct{}

// Name implements Kernel.
func (Stokes) Name() string { return "stokes" }

// SrcDim implements Kernel.
func (Stokes) SrcDim() int { return 3 }

// TrgDim implements Kernel.
func (Stokes) TrgDim() int { return 3 }

// HomogeneityDeg implements Kernel.
func (Stokes) HomogeneityDeg() float64 { return 1 }

// FlopsPerInteraction implements Kernel.
func (Stokes) FlopsPerInteraction() int { return 45 }

// Eval implements Kernel.
func (Stokes) Eval(trg, src geom.Point, density, out []float64) {
	dx := trg.X - src.X
	dy := trg.Y - src.Y
	dz := trg.Z - src.Z
	r2 := dx*dx + dy*dy + dz*dz
	if r2 == 0 {
		return
	}
	r := math.Sqrt(r2)
	invR := 1 / r
	invR3 := invR / r2
	dot := dx*density[0] + dy*density[1] + dz*density[2]
	out[0] += invEightPi * (density[0]*invR + dx*dot*invR3)
	out[1] += invEightPi * (density[1]*invR + dy*dot*invR3)
	out[2] += invEightPi * (density[2]*invR + dz*dot*invR3)
}

// Matrix builds the dense interaction matrix between target and source point
// sets: block (i, j) is the TrgDim×SrcDim kernel tensor K(trgs[i], srcs[j]).
// Singular pairs produce zero blocks.
func Matrix(k Kernel, trgs, srcs []geom.Point) *linalg.Mat {
	td, sd := k.TrgDim(), k.SrcDim()
	m := linalg.NewMat(len(trgs)*td, len(srcs)*sd)
	den := make([]float64, sd)
	out := make([]float64, td)
	for j, s := range srcs {
		for c := 0; c < sd; c++ {
			for x := range den {
				den[x] = 0
			}
			den[c] = 1
			for i, t := range trgs {
				for x := range out {
					out[x] = 0
				}
				k.Eval(t, s, den, out)
				for r := 0; r < td; r++ {
					m.Set(i*td+r, j*sd+c, out[r])
				}
			}
		}
	}
	return m
}

// Direct computes the exact O(N²) sum f_i = Σ_j K(x_i, y_j) s_j, skipping
// singular pairs. densities has len(srcs)·SrcDim entries; the result has
// len(trgs)·TrgDim entries. Targets are evaluated in parallel; each
// target's sum accumulates in ascending source order regardless of the
// worker count, so the output is deterministic — Direct stays a trustworthy
// oracle for the differential tests while no longer dominating their
// wall-clock. It intentionally stays on the pairwise Eval path, independent
// of the batched EvalPanel implementations it is used to check.
func Direct(k Kernel, trgs, srcs []geom.Point, densities []float64) []float64 {
	td, sd := k.TrgDim(), k.SrcDim()
	if len(densities) != len(srcs)*sd {
		panic("kernel: density length mismatch")
	}
	out := make([]float64, len(trgs)*td)
	sched.For(sched.DefaultWorkers(), len(trgs), func(i int) {
		t := trgs[i]
		o := out[i*td : (i+1)*td]
		for j, s := range srcs {
			k.Eval(t, s, densities[j*sd:(j+1)*sd], o)
		}
	})
	return out
}

// ByName returns the kernel with the given name, or nil if unknown.
func ByName(name string) Kernel {
	switch name {
	case "laplace":
		return Laplace{}
	case "stokes":
		return Stokes{}
	}
	return nil
}

package kifmm

import (
	"context"
	"fmt"
	"math"
	"sync"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/linalg"
	"kifmm/internal/morton"
	"kifmm/internal/octree"
	"kifmm/internal/sched"
)

// Operators holds the precomputed translation matrices of the KIFMM for one
// kernel and surface order. Construction is pure numerical linear algebra
// on kernel evaluations — no analytic expansions — which is what makes the
// method kernel-independent.
//
// For homogeneous kernels (Laplace, Stokes: K(ax, ay) = a^(−deg)·K(x, y)) a
// single reference level (octant side 1) suffices and per-level application
// rescales by 2^(level·deg). Non-homogeneous kernels (e.g. Yukawa) report
// HomogeneityDeg() = NaN and get per-level operator tables instead.
//
// Operators are immutable after construction and safe for concurrent use.
type Operators struct {
	Kern kernel.Kernel
	Grid *SurfaceGrid
	// Tol is the Tikhonov regularization tolerance of the pseudo-inverses.
	Tol float64

	// UC2UE maps upward-check potentials to upward-equivalent densities
	// (the S2U solve) at the reference scale (homogeneous kernels only;
	// prefer S2UOp).
	UC2UE *linalg.Mat
	// U2U[c] maps a child-c upward-equivalent density to the parent's
	// upward-equivalent density at the reference scale (prefer U2UOp).
	U2U [8]*linalg.Mat
	// DC2DE maps downward-check potentials to downward-equivalent
	// densities at the reference scale (prefer DC2DEOp).
	DC2DE *linalg.Mat
	// D2D[c] maps a parent downward-equivalent density to the child-c
	// downward-check potential at the reference scale (prefer D2DOp).
	D2D [8]*linalg.Mat

	// m2l caches dense V-list matrices by packed (level, direction);
	// perLevel caches per-level surface-operator tables for
	// non-homogeneous kernels. Both are copy-on-write so the hot lookup
	// path is allocation-free (sync.Map would box every key).
	m2l      cowCache[uint64, *linalg.Mat]
	perLevel cowCache[int, *levelOps]

	// buildMu serializes per-level table builds (levelForSlow).
	buildMu sync.Mutex

	fftOnce sync.Once
	fft     *FFTM2L

	deg         float64
	homogeneous bool
}

// levelOps is one level's operator table for non-homogeneous kernels.
type levelOps struct {
	UC2UE, DC2DE *linalg.Mat
	U2U, D2D     [8]*linalg.Mat
}

// NewOperators precomputes the translation operators for kern at surface
// order p with pseudo-inverse regularization tol, on up to buildWorkers
// goroutines. Every call builds afresh; solvers share one set per (kernel,
// order, tolerance) through SharedOperators instead.
func NewOperators(kern kernel.Kernel, p int, tol float64) *Operators {
	return newOperators(kern, p, tol, buildWorkers)
}

// buildWorkers is NewOperators' fan-out: a build is nearly all its two
// pseudo-inverses, which run side by side.
const buildWorkers = 2

// newOperators is NewOperators with the fan-out of the reference-level
// build given; the result does not depend on it.
func newOperators(kern kernel.Kernel, p int, tol float64, workers int) *Operators {
	deg := kern.HomogeneityDeg()
	ops := &Operators{
		Kern:        kern,
		Grid:        NewSurfaceGrid(p),
		Tol:         tol,
		deg:         deg,
		homogeneous: !math.IsNaN(deg),
	}
	if ops.homogeneous {
		ref := ops.buildLevel(0, workers)
		ops.UC2UE = ref.UC2UE
		ops.DC2DE = ref.DC2DE
		ops.U2U = ref.U2U
		ops.D2D = ref.D2D
	}
	return ops
}

// buildLevel constructs the surface operators for octants of side 2^-l. Its
// independent pieces — the two pseudo-inverses, the eight D2D kernel
// matrices, and the eight U2U products once UC2UE is ready — run as one task
// graph on up to workers goroutines. Each piece is computed by the same
// sequential code whichever worker runs it, so the table is bit-identical
// at any worker count.
func (o *Operators) buildLevel(l, workers int) *levelOps {
	half := math.Pow(2, -float64(l)) / 2
	center := geom.Point{}
	ue := o.Grid.Points(center, RadInner*half)
	uc := o.Grid.Points(center, RadOuter*half)
	dc := o.Grid.Points(center, RadInner*half)
	de := o.Grid.Points(center, RadOuter*half)

	lo := &levelOps{}
	g := sched.NewGraph()
	uc2ue := g.Add("operators.uc2ue", func(int) {
		lo.UC2UE = linalg.PinvTikhonov(kernel.Matrix(o.Kern, uc, ue), o.Tol)
	})
	g.Add("operators.dc2de", func(int) {
		lo.DC2DE = linalg.PinvTikhonov(kernel.Matrix(o.Kern, dc, de), o.Tol)
	})
	for c := 0; c < 8; c++ {
		// The child's upward-equivalent and downward-check surfaces coincide.
		cs := o.Grid.Points(childCenter(center, half, c), RadInner*half/2)
		g.Add("operators.d2d", func(int) { lo.D2D[c] = kernel.Matrix(o.Kern, cs, de) })
		g.Dep(uc2ue, g.Add("operators.u2u", func(int) {
			lo.U2U[c] = lo.UC2UE.Mul(kernel.Matrix(o.Kern, uc, cs))
		}))
	}
	// A shared build (SharedOperators, the per-level tables): no request's
	// context may stop it.
	if _, err := g.Run(context.Background(), sched.Options{Workers: max(1, workers)}); err != nil {
		panic(fmt.Sprintf("kifmm: building level-%d operators: %v", l, err))
	}
	return lo
}

// levelFor returns (building if needed) the per-level table for a
// non-homogeneous kernel.
func (o *Operators) levelFor(l int) *levelOps {
	if v, ok := o.perLevel.get(l); ok {
		return v
	}
	return o.levelForSlow(l, 1)
}

// levelForSlow returns the per-level table, building and caching it on up
// to workers goroutines if it is missing. Builds are serialized, so a level
// is built once over the lifetime of the Operators however many plans race
// for it.
//
//fmm:coldcall per-level operator tables are built once per level and cached
func (o *Operators) levelForSlow(l, workers int) *levelOps {
	o.buildMu.Lock()
	defer o.buildMu.Unlock()
	if v, ok := o.perLevel.get(l); ok {
		return v
	}
	return o.perLevel.insert(l, o.buildLevel(l, workers))
}

// PrewarmLevels builds, on up to workers goroutines, the per-level tables
// of a non-homogeneous kernel for every level at which tree has octants —
// every level an evaluation of tree touches — so no Apply builds one (a
// no-op for homogeneous kernels).
func (o *Operators) PrewarmLevels(tree *octree.Tree, workers int) {
	if o.homogeneous {
		return
	}
	var has [morton.MaxDepth + 1]bool
	for i := range tree.Nodes {
		has[tree.Nodes[i].Key.Level()] = true
	}
	for l, ok := range has {
		if ok {
			o.levelForSlow(l, workers)
		}
	}
}

// Homogeneous reports whether the kernel admits the single-reference-level
// fast path.
func (o *Operators) Homogeneous() bool { return o.homogeneous }

// childCenter returns the center of child c of an octant centered at ctr
// with half-side half, using the morton child-index convention
// (c = 4·xbit + 2·ybit + zbit).
func childCenter(ctr geom.Point, half float64, c int) geom.Point {
	q := half / 2
	off := geom.Point{X: -q, Y: -q, Z: -q}
	if c&4 != 0 {
		off.X = q
	}
	if c&2 != 0 {
		off.Y = q
	}
	if c&1 != 0 {
		off.Z = q
	}
	return ctr.Add(off)
}

// PinvScale returns the factor applied to the reference pseudo-inverses at
// the given level for homogeneous kernels: positions at level l are the
// reference scaled by 2^-l, so K_l = 2^(l·deg)·K_ref and
// K_l⁺ = 2^(−l·deg)·K_ref⁺.
func (o *Operators) PinvScale(level int) float64 {
	if !o.homogeneous {
		return 1
	}
	return math.Pow(2, -float64(level)*o.deg)
}

// KernScale returns the factor applied to reference kernel matrices (M2L,
// D2D) at the given level for homogeneous kernels: K_l = 2^(l·deg)·K_ref.
func (o *Operators) KernScale(level int) float64 {
	if !o.homogeneous {
		return 1
	}
	return math.Pow(2, float64(level)*o.deg)
}

// S2UOp returns the check-to-equivalent solve for leaves at the given level
// and the scalar to apply to its output.
func (o *Operators) S2UOp(level int) (*linalg.Mat, float64) {
	if o.homogeneous {
		return o.UC2UE, o.PinvScale(level)
	}
	return o.levelFor(level).UC2UE, 1
}

// U2UOp returns the child-to-parent upward translation for a parent at the
// given level (scale-free in both regimes).
func (o *Operators) U2UOp(parentLevel, childIdx int) *linalg.Mat {
	if o.homogeneous {
		return o.U2U[childIdx]
	}
	return o.levelFor(parentLevel).U2U[childIdx]
}

// DC2DEOp returns the downward check-to-equivalent solve at the given level
// and its output scale.
func (o *Operators) DC2DEOp(level int) (*linalg.Mat, float64) {
	if o.homogeneous {
		return o.DC2DE, o.PinvScale(level)
	}
	return o.levelFor(level).DC2DE, 1
}

// D2DOp returns the parent-to-child downward translation for a parent at
// the given level and its output scale.
func (o *Operators) D2DOp(parentLevel, childIdx int) (*linalg.Mat, float64) {
	if o.homogeneous {
		return o.D2D[childIdx], o.KernScale(parentLevel)
	}
	return o.levelFor(parentLevel).D2D[childIdx], 1
}

// packDir packs a V-list direction (each component in [-3, 3]) into a key.
func packDir(dx, dy, dz int) uint32 {
	return uint32(dx+3)<<16 | uint32(dy+3)<<8 | uint32(dz+3)
}

// packLevelDir packs (level, direction) for the per-level M2L cache.
func packLevelDir(level int, dir uint32) uint64 {
	return uint64(level)<<32 | uint64(dir)
}

// M2L returns the dense V-list translation matrix for relative direction
// (dx, dy, dz) in units of the octant side, at the reference scale
// (homogeneous kernels; prefer M2LAt).
func (o *Operators) M2L(dx, dy, dz int) *linalg.Mat {
	m, s := o.M2LAt(0, dx, dy, dz)
	if s != 1 {
		panic("kifmm: M2L at reference level must be scale-free")
	}
	return m
}

// M2LAt returns the dense V-list translation for octants at the given level
// and the scalar to apply to its output. Directions with |d|∞ ≤ 1 are
// adjacent and invalid for the V-list.
func (o *Operators) M2LAt(level, dx, dy, dz int) (*linalg.Mat, float64) {
	if maxAbs3(dx, dy, dz) <= 1 || maxAbs3(dx, dy, dz) > 3 {
		panic(fmt.Sprintf("kifmm: invalid V-list direction (%d,%d,%d)", dx, dy, dz))
	}
	dir := packDir(dx, dy, dz)
	cacheLevel := level
	scale := 1.0
	if o.homogeneous {
		cacheLevel = 0
		scale = o.KernScale(level)
	}
	key := packLevelDir(cacheLevel, dir)
	if m, ok := o.m2l.get(key); ok {
		return m, scale
	}
	return o.buildM2L(key, cacheLevel, dx, dy, dz), scale
}

// buildM2L evaluates and caches one dense V-list matrix on a cache miss; a
// direction is built once per (kernel, cache level) and reused for every
// later translation.
//
//fmm:coldcall dense V-list matrices are built once per direction and cached
func (o *Operators) buildM2L(key uint64, cacheLevel, dx, dy, dz int) *linalg.Mat {
	side := math.Pow(2, -float64(cacheLevel))
	half := side / 2
	srcCenter := geom.Point{}
	trgCenter := geom.Point{X: float64(dx) * side, Y: float64(dy) * side, Z: float64(dz) * side}
	ue := o.Grid.Points(srcCenter, RadInner*half)
	dc := o.Grid.Points(trgCenter, RadInner*half)
	m := kernel.Matrix(o.Kern, dc, ue)
	return o.m2l.insert(key, m)
}

func maxAbs3(a, b, c int) int {
	m := a
	if m < 0 {
		m = -m
	}
	if b < 0 {
		b = -b
	}
	if b > m {
		m = b
	}
	if c < 0 {
		c = -c
	}
	if c > m {
		m = c
	}
	return m
}

// FFT returns the (lazily built, shared) FFT-diagonalized V-list machinery
// for these operators. Translation spectra computed by any engine are
// reused by all others.
func (o *Operators) FFT() *FFTM2L {
	o.fftOnce.Do(func() { o.fft = NewFFTM2L(o) })
	return o.fft
}

// NumSurf returns the number of surface points per octant.
func (o *Operators) NumSurf() int { return o.Grid.NumPoints() }

// UpwardLen returns the length of an upward-equivalent density vector
// (surface points × kernel source components).
func (o *Operators) UpwardLen() int { return o.NumSurf() * o.Kern.SrcDim() }

// CheckLen returns the length of a check-potential vector (surface points ×
// kernel target components).
func (o *Operators) CheckLen() int { return o.NumSurf() * o.Kern.TrgDim() }

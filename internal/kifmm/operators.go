package kifmm

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

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
// HomogeneityDeg() = NaN and get per-level operator tables instead. table
// makes that choice, in one place.
//
// Operators are safe for concurrent use: a level's table, its dense M2L
// matrices and its V-list spectra are built on first use and never change
// once published.
type Operators struct {
	Kern kernel.Kernel
	Grid *SurfaceGrid
	// Tol is the Tikhonov regularization tolerance of the pseudo-inverses.
	Tol float64

	// levels[l] is level l's table, nil until built. Level 0's is built with
	// the operators: the root's, and a homogeneous kernel's one reference
	// table, which serves every level.
	levels [morton.MaxDepth + 1]atomic.Pointer[levelOps]

	// buildMu serializes table builds (buildTable) and spectrum resolutions
	// (resolveVTable).
	buildMu sync.Mutex

	fft *FFTM2L

	deg         float64
	homogeneous bool
}

// levelOps is one level's operator table. Every surface operator is held
// once, packed: the apply-time products are all it serves. m2l holds the
// dense V-list matrices of the level by dirSlot, built on first use (the
// DenseM2L oracle); v holds the level's V-list translation spectra, resolved
// on first use (vTable).
type levelOps struct {
	level        int
	UC2UE, DC2DE *linalg.Packed
	U2U, D2D     [8]*linalg.Packed
	m2l          [7 * 7 * 7]atomic.Pointer[linalg.Mat]
	v            atomic.Pointer[vTable]
}

// NewOperators precomputes the translation operators for kern at surface
// order p with pseudo-inverse regularization tol, on up to buildWorkers
// goroutines. Every call builds afresh; solvers share one set per (kernel,
// order, tolerance) through SharedOperators instead.
func NewOperators(kern kernel.Kernel, p int, tol float64) *Operators {
	return newOperators(kern, p, tol, buildWorkers)
}

// buildWorkers is NewOperators' fan-out over a level's eight children
// (their U2U products and D2D matrices), which follow the level's one
// pseudo-inverse; the solve itself runs on one goroutine.
const buildWorkers = 2

// newOperators is NewOperators with the fan-out of the level-0 build given;
// the result does not depend on it. Every tree has a root, so level 0's
// table is built here whatever the kernel.
func newOperators(kern kernel.Kernel, p int, tol float64, workers int) *Operators {
	deg := kern.HomogeneityDeg()
	ops := &Operators{Kern: kern, Grid: NewSurfaceGrid(p), Tol: tol, deg: deg, homogeneous: !math.IsNaN(deg)}
	ops.levels[0].Store(ops.buildLevel(0, workers))
	ops.fft = NewFFTM2L(ops)
	return ops
}

// table returns the operator table for octants at level l: the reference
// table for every level of a homogeneous kernel (PinvScale and KernScale
// rescale it), and otherwise the level's own table, built on up to workers
// goroutines on first use.
func (o *Operators) table(l, workers int) *levelOps {
	if o.homogeneous {
		l = 0
	}
	if v := o.levels[l].Load(); v != nil {
		return v
	}
	return o.buildTable(l, workers)
}

// buildTable builds and caches level l's table on up to workers goroutines
// unless a racing build already has. Builds are serialized, so a level is
// built once over the lifetime of the Operators however many plans race
// for it.
//
//fmm:coldcall per-level operator tables are built once per level and cached
func (o *Operators) buildTable(l, workers int) *levelOps {
	o.buildMu.Lock()
	defer o.buildMu.Unlock()
	if v := o.levels[l].Load(); v != nil {
		return v
	}
	v := o.buildLevel(l, workers)
	o.levels[l].Store(v)
	return v
}

// vTable returns the V-list translation spectra of level l's table (a
// homogeneous kernel's reference spectra at every level), resolving them
// from the process-wide cache on up to workers goroutines on first use.
func (o *Operators) vTable(l, workers int) *vTable {
	tb := o.table(l, workers)
	if v := tb.v.Load(); v != nil {
		return v
	}
	return o.resolveVTable(tb, workers)
}

// resolveVTable resolves tb's spectra unless a racing call already has.
// Resolutions are serialized, so a table's 316 directions are looked up
// once over the lifetime of the Operators however many plans compile
// against it.
//
//fmm:coldcall a level's V-list spectra are resolved once per table and kept
func (o *Operators) resolveVTable(tb *levelOps, workers int) *vTable {
	o.buildMu.Lock()
	defer o.buildMu.Unlock()
	if v := tb.v.Load(); v != nil {
		return v
	}
	v := o.fft.table(tb.level, workers)
	tb.v.Store(v)
	return v
}

// buildLevel constructs the surface operators for octants of side 2^-l
// from one factorization. The downward kernel matrix K(inner, outer) is
// bitwise K(outer, inner)ᵀ, and each child's U2U kernel matrix
// K(outer, child) is its D2D matrix K(child, outer)ᵀ
// (TestCheckMatricesTranspose); the Tikhonov inverse of Kᵀ is (K⁺_α)ᵀ, so
// DC2DE is UC2UE's transpose, and each kernel matrix of a level is
// evaluated once. The eight children run on up to workers goroutines, each
// by the same sequential code, so the table is bit-identical at any worker
// count. Every piece is packed in place (linalg.Pack), so no operator is
// held in both forms.
func (o *Operators) buildLevel(l, workers int) *levelOps {
	half := math.Pow(2, -float64(l)) / 2
	center := geom.Point{}
	inner := o.Grid.Points(center, RadInner*half)
	outer := o.Grid.Points(center, RadOuter*half)
	uc2ue := linalg.PinvTikhonov(kernel.Matrix(o.Kern, outer, inner), o.Tol)
	lo := &levelOps{level: l, DC2DE: linalg.Pack(uc2ue.T())}
	sched.For(workers, 8, func(c int) {
		// The child's upward-equivalent and downward-check surfaces coincide.
		cs := o.Grid.Points(childCenter(center, half, c), RadInner*half/2)
		d2d := kernel.Matrix(o.Kern, cs, outer)
		lo.U2U[c] = linalg.Pack(uc2ue.Mul(d2d.T()))
		lo.D2D[c] = linalg.Pack(d2d)
	})
	// UC2UE is packed once the eight U2U products have read its rows.
	lo.UC2UE = linalg.Pack(uc2ue)
	return lo
}

// PrewarmLevels builds, on up to workers goroutines, the table of every
// level at which tree has octants — every level an evaluation of tree
// touches — so no Apply builds one.
func (o *Operators) PrewarmLevels(tree *octree.Tree, workers int) {
	var has [morton.MaxDepth + 1]bool
	for i := range tree.Nodes {
		has[tree.Nodes[i].Key.Level()] = true
	}
	for l, ok := range has {
		if ok {
			o.table(l, workers)
		}
	}
}

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
func (o *Operators) S2UOp(level int) (*linalg.Packed, float64) {
	return o.table(level, 1).UC2UE, o.PinvScale(level)
}

// U2UOp returns the child-to-parent upward translation for a parent at the
// given level (scale-free in both regimes).
func (o *Operators) U2UOp(parentLevel, childIdx int) *linalg.Packed {
	return o.table(parentLevel, 1).U2U[childIdx]
}

// DC2DEOp returns the downward check-to-equivalent solve at the given level
// and its output scale.
func (o *Operators) DC2DEOp(level int) (*linalg.Packed, float64) {
	return o.table(level, 1).DC2DE, o.PinvScale(level)
}

// D2DOp returns the parent-to-child downward translation for a parent at
// the given level and its output scale.
func (o *Operators) D2DOp(parentLevel, childIdx int) (*linalg.Packed, float64) {
	return o.table(parentLevel, 1).D2D[childIdx], o.KernScale(parentLevel)
}

// M2LAt returns the dense V-list translation for octants at the given level
// and the scalar to apply to its output. Directions with |d|∞ ≤ 1 are
// adjacent and invalid for the V-list.
func (o *Operators) M2LAt(level, dx, dy, dz int) (*linalg.Mat, float64) {
	if maxAbs3(dx, dy, dz) <= 1 || maxAbs3(dx, dy, dz) > 3 {
		panic(fmt.Sprintf("kifmm: invalid V-list direction (%d,%d,%d)", dx, dy, dz))
	}
	tb := o.table(level, 1)
	if m := tb.m2l[dirSlot(dx, dy, dz)].Load(); m != nil {
		return m, o.KernScale(level)
	}
	return o.buildM2L(tb, dx, dy, dz), o.KernScale(level)
}

// buildM2L evaluates and publishes one dense V-list matrix of tb's level on
// first use; a direction is reused for every later translation. A racing
// duplicate build loses the swap and is discarded.
//
//fmm:coldcall dense V-list matrices are built once per direction and cached
func (o *Operators) buildM2L(tb *levelOps, dx, dy, dz int) *linalg.Mat {
	side := math.Pow(2, -float64(tb.level))
	half := side / 2
	srcCenter := geom.Point{}
	trgCenter := geom.Point{X: float64(dx) * side, Y: float64(dy) * side, Z: float64(dz) * side}
	ue := o.Grid.Points(srcCenter, RadInner*half)
	dc := o.Grid.Points(trgCenter, RadInner*half)
	slot := &tb.m2l[dirSlot(dx, dy, dz)]
	if m := kernel.Matrix(o.Kern, dc, ue); slot.CompareAndSwap(nil, m) {
		return m
	}
	return slot.Load()
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

// FFT returns the FFT-diagonalized V-list machinery of these operators,
// built with them. Its spectra come from the process-wide cache and are
// held by the level tables (vTable).
func (o *Operators) FFT() *FFTM2L { return o.fft }

// NumSurf returns the number of surface points per octant.
func (o *Operators) NumSurf() int { return o.Grid.NumPoints() }

// UpwardLen returns the length of an upward-equivalent density vector
// (surface points × kernel source components).
func (o *Operators) UpwardLen() int { return o.NumSurf() * o.Kern.SrcDim() }

// CheckLen returns the length of a check-potential vector (surface points ×
// kernel target components).
func (o *Operators) CheckLen() int { return o.NumSurf() * o.Kern.TrgDim() }

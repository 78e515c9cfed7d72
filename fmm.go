// Package kifmm is a kernel-independent adaptive fast multipole method for
// rapidly evaluating two-body non-oscillatory potential sums
//
//	f(x_i) = Σ_j K(x_i, y_j) s(y_j)
//
// in O(N) time, reproducing the system of Lashuk et al., "A massively
// parallel adaptive fast-multipole method on heterogeneous architectures"
// (SC'09): the sequential KIFMM of Ying-Biros-Zorin with dense and
// FFT-diagonalized V-list translations, distributed-memory evaluation over
// Morton-partitioned local essential trees with the hypercube
// reduce-and-scatter of upward densities (Algorithm 3). The paper's
// streaming (GPU-style) acceleration runs on a simulated device under
// internal/experiments (Table III, Fig. 6), not behind this API.
//
// The top-level API covers the common cases; the building blocks (Morton
// octrees, the message-passing runtime, the translation operators) live
// under internal/.
package kifmm

import (
	"fmt"

	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	ikifmm "kifmm/internal/kifmm"
	"kifmm/internal/mpi"
	"kifmm/internal/parfmm"
)

// Point is a location in the unit cube [0,1)³. Sources and targets
// coincide, as in the paper. It is the library's one point type (an alias,
// so a caller's []Point reaches the octree without a converting copy); Plan,
// NewSession and the Evaluate family read the slice they are given and do
// not retain it.
type Point = geom.Point

// KernelName selects the interaction kernel.
type KernelName string

const (
	// Laplace is the single-layer Laplace kernel 1/(4π‖x−y‖): one density
	// and one potential component per point (electrostatics, gravitation).
	Laplace KernelName = "laplace"
	// Stokes is the single-layer Stokes (Stokeslet) kernel: three density
	// and three potential components per point (viscous flow).
	Stokes KernelName = "stokes"
	// Yukawa is the screened Laplace kernel e^(−λr)/(4πr) — non-oscillatory
	// but not scale-invariant, so the solver builds per-level operators
	// (set the screening parameter with Options.YukawaLambda).
	Yukawa KernelName = "yukawa"
)

// MaxOrder is the largest Options.Order New accepts. Operator construction
// costs like order⁶ time and order⁴ memory (dense SVDs of the surface
// matrices), so an unbounded order from the wire is a denial of service; the
// experiments use at most 8.
const MaxOrder = 16

// ValidTolerance reports whether New accepts t as Options.Tolerance (after
// the default replaces 0): singular values are damped at t·σ_max, so t must
// lie in (0, 1) — at 1 or above every one is over-damped, and NaN or a
// negative t is no damping at all.
func ValidTolerance(t float64) bool { return t > 0 && t < 1 }

// Options configures an FMM instance. The zero value gives a Laplace solver
// with sensible defaults (q=50 points per box, order-6 surfaces,
// FFT-accelerated V-list, single-threaded).
type Options struct {
	// Kernel selects the interaction kernel (default Laplace).
	Kernel KernelName
	// PointsPerBox is the octree refinement threshold q (default 50).
	PointsPerBox int
	// Order is the equivalent/check surface order p; accuracy improves
	// with order (p=4 ≈ 3 digits, p=6 ≈ 5 digits for Laplace). Default 6,
	// at least 2, at most MaxOrder.
	Order int
	// Tolerance regularizes the surface pseudo-inverses (default 1e-9); see
	// ValidTolerance for the values New accepts.
	Tolerance float64
	// MaxDepth caps octree refinement (default 24).
	MaxDepth int
	// Workers bounds shared-memory parallelism inside each rank (default 1).
	// Every evaluation runs as a dependency task graph on a scheduler with
	// this many workers; the results are bit-identical at any worker count.
	Workers int
	// YukawaLambda is the screening parameter of the Yukawa kernel
	// (default 5).
	YukawaLambda float64
	// Shards, when positive, makes Plan build a sharded plan: the octree's
	// leaves are Morton-partitioned across Shards in-process ranks, each
	// rank assembles a local essential tree, and every Apply runs the
	// paper's coordinated multi-rank evaluation (upward pass per shard,
	// ghost-density exchange, shared-octant upward reduction, local
	// far-field and near-field phases), gathered back into input order.
	// The shared octants are reduced in one direct point-to-point round, so
	// any shard count runs. Zero (the default) keeps the single-engine plan.
	// The worker budget (Workers) is split across the shards.
	Shards int

	// denseM2L, reachable from in-package tests only, swaps the
	// FFT-diagonalized V-list for the dense M2L matrices it is verified
	// against (a test oracle).
	denseM2L bool
}

func (o Options) kernel() (kernel.Kernel, error) {
	name := o.Kernel
	if name == "" {
		name = Laplace
	}
	if name == Yukawa {
		lambda := o.YukawaLambda
		if lambda == 0 {
			lambda = 5
		}
		if lambda < 0 {
			return nil, fmt.Errorf("kifmm: negative Yukawa screening %v", lambda)
		}
		return kernel.Yukawa{Lambda: lambda}, nil
	}
	k := kernel.ByName(string(name))
	if k == nil {
		return nil, fmt.Errorf("kifmm: unknown kernel %q", name)
	}
	return k, nil
}

// FMM is a configured solver. It is safe for concurrent use by multiple
// goroutines: evaluation state is per-call.
type FMM struct {
	opt  Options
	kern kernel.Kernel
	// spec is the options resolved, once, into what configures an engine;
	// plans, shard ranks and the distributed driver carry it as is.
	spec ikifmm.EngineSpec
}

// New creates a solver. Its translation operators come from a process-wide
// cache (see OperatorCache): the first solver of a (kernel, order,
// tolerance) builds them, on up to Options.Workers goroutines, and every
// later one, and every evaluation of any of them, shares that set.
func New(opt Options) (*FMM, error) {
	if opt.PointsPerBox == 0 {
		opt.PointsPerBox = 50
	}
	if opt.Order == 0 {
		opt.Order = 6
	}
	if opt.Tolerance == 0 {
		opt.Tolerance = 1e-9
	}
	if opt.MaxDepth == 0 {
		opt.MaxDepth = 24
	}
	if opt.Workers == 0 {
		opt.Workers = 1
	}
	if opt.PointsPerBox < 1 || opt.Order < 2 || opt.MaxDepth < 1 || opt.MaxDepth > 30 {
		return nil, fmt.Errorf("kifmm: invalid options %+v", opt)
	}
	if opt.Order > MaxOrder {
		return nil, fmt.Errorf("kifmm: order %d exceeds MaxOrder %d", opt.Order, MaxOrder)
	}
	if !ValidTolerance(opt.Tolerance) {
		return nil, fmt.Errorf("kifmm: Tolerance %g is not in (0, 1)", opt.Tolerance)
	}
	k, err := opt.kernel()
	if err != nil {
		return nil, err
	}
	if opt.Shards < 0 {
		return nil, fmt.Errorf("kifmm: negative shard count %d", opt.Shards)
	}
	spec := ikifmm.EngineSpec{
		Ops:      ikifmm.SharedOperators.Get(k, opt.Order, opt.Tolerance, opt.Workers),
		Workers:  opt.Workers,
		DenseM2L: opt.denseM2L,
	}
	return &FMM{opt: opt, kern: k, spec: spec}, nil
}

// DensityDim returns the number of density components per point.
func (f *FMM) DensityDim() int { return f.kern.SrcDim() }

// PotentialDim returns the number of potential components per point.
func (f *FMM) PotentialDim() int { return f.kern.TrgDim() }

func (f *FMM) checkPoints(points []Point) error {
	if len(points) == 0 {
		return fmt.Errorf("kifmm: no points")
	}
	return checkInCube("point", points)
}

// checkInCube rejects a point (a "point" or a "target") outside the unit cube.
func checkInCube(what string, points []Point) error {
	cube := geom.UnitCube()
	for i, p := range points {
		if !cube.Contains(p) {
			return fmt.Errorf("kifmm: %s %d (%v) outside the unit cube", what, i, p)
		}
	}
	return nil
}

func (f *FMM) checkInput(points []Point, densities []float64) error {
	if err := f.checkPoints(points); err != nil {
		return err
	}
	if err := ikifmm.CheckDensities(densities, len(points), f.kern.SrcDim()); err != nil {
		return fmt.Errorf("kifmm: %w", err)
	}
	return nil
}

// Evaluate computes the potentials at all points (sources and targets
// coincide), returned in input order with PotentialDim components per
// point. It is equivalent to Plan followed by a single Apply; callers that
// re-evaluate the same point set with new densities should hold on to the
// Plan instead.
func (f *FMM) Evaluate(points []Point, densities []float64) ([]float64, error) {
	if err := f.checkInput(points, densities); err != nil {
		return nil, err
	}
	plan, err := f.Plan(points)
	if err != nil {
		return nil, err
	}
	return plan.Apply(densities)
}

// EvaluateDistributed computes the same sum using ranks in-process
// message-passing workers (the paper's MPI configuration). ranks must be a
// power of two: the shared octants' upward densities are completed by the
// paper's hypercube reduce-and-scatter (Algorithm 3). Potentials are
// returned in input order.
func (f *FMM) EvaluateDistributed(ranks int, points []Point, densities []float64) ([]float64, error) {
	if ranks < 1 || ranks&(ranks-1) != 0 {
		return nil, fmt.Errorf("kifmm: ranks must be a power of two, got %d", ranks)
	}
	if err := f.checkInput(points, densities); err != nil {
		return nil, err
	}
	sd, td := f.kern.SrcDim(), f.kern.TrgDim()
	cfg := parfmm.Config{Q: f.opt.PointsPerBox, MaxDepth: f.opt.MaxDepth, LoadBalance: true, Spec: f.spec}
	results := make([]*parfmm.Result, ranks)
	mpi.Run(ranks, func(c *mpi.Comm) {
		r := c.Rank()
		lo, hi := r*len(points)/ranks, (r+1)*len(points)/ranks
		results[r] = parfmm.Evaluate(c, points[lo:hi], densities[lo*sd:hi*sd], cfg)
	})
	// Points were redistributed; coincident targets receive identical
	// potentials, so matching by coordinates is exact.
	byPoint := make(map[Point][]float64, len(points))
	for _, res := range results {
		for i, pt := range res.OwnedPoints {
			byPoint[pt] = res.Potentials[i*td : (i+1)*td]
		}
	}
	out := make([]float64, len(points)*td)
	for i, p := range points {
		v, ok := byPoint[p]
		if !ok {
			return nil, fmt.Errorf("kifmm: internal error: point %d lost during redistribution", i)
		}
		copy(out[i*td:(i+1)*td], v)
	}
	return out, nil
}

// Direct computes the exact O(N²) reference sum (for validation).
func (f *FMM) Direct(points []Point, densities []float64) ([]float64, error) {
	if err := f.checkInput(points, densities); err != nil {
		return nil, err
	}
	return kernel.Direct(f.kern, points, points, densities), nil
}

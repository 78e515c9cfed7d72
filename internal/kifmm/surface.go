// Package kifmm implements the sequential kernel-independent fast multipole
// method of Ying, Biros & Zorin (the "KIFMM" of the paper): equivalent- and
// check-surface representations built purely from kernel evaluations and
// regularized pseudo-inverses, the eight phases of Algorithm 1 (S2U, U2U,
// VLI, XLI, D2D, WLI, D2T, ULI), a dense and an FFT-diagonalized V-list
// translation, and a full-evaluation driver.
//
// The engine exposes each phase as a separate method so the distributed
// driver (internal/parfmm) can interleave communication, and so the
// streaming accelerator (internal/gpu) can substitute individual phases —
// exactly the decomposition the paper's Section II-A describes.
//
// The whole package is in deterministic scope: for a fixed input and plan
// its outputs must be bit-identical across runs and machines (machines:
// fmmvet's nodeterm; runs: make probe-check, which evaluates twice).
//
//fmm:deterministic
package kifmm

import (
	"kifmm/internal/geom"
)

// Surface scale factors relative to the octant half-side, the standard
// KIFMM choices: the inner surfaces sit just outside the octant (1.05×),
// the outer surfaces just inside the 3×-octant colleague volume (2.95×).
const (
	// RadInner scales the upward-equivalent and downward-check surfaces.
	RadInner = 1.05
	// RadOuter scales the upward-check and downward-equivalent surfaces.
	RadOuter = 2.95
)

// SurfaceGrid enumerates the lattice coordinates of the boundary points of
// a p×p×p cube lattice. The FMM places equivalent/check densities at these
// points; their count is p³ − (p−2)³ = 6(p−1)² + 2 for p ≥ 2.
type SurfaceGrid struct {
	P int
	// Coords holds the (i, j, k) lattice coordinates of each surface point,
	// in a fixed deterministic order shared by all surfaces of the same P.
	Coords [][3]int
}

// NewSurfaceGrid builds the lattice for order p (p >= 2).
func NewSurfaceGrid(p int) *SurfaceGrid {
	if p < 2 {
		panic("kifmm: surface order must be >= 2")
	}
	g := &SurfaceGrid{P: p}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			for k := 0; k < p; k++ {
				if i == 0 || i == p-1 || j == 0 || j == p-1 || k == 0 || k == p-1 {
					g.Coords = append(g.Coords, [3]int{i, j, k})
				}
			}
		}
	}
	return g
}

// NumPoints returns the surface point count.
func (g *SurfaceGrid) NumPoints() int { return len(g.Coords) }

// Points returns the surface points for a cube of the given half-side
// ("radius") centered at center: lattice coordinate i maps to
// center − radius + i·(2·radius/(p−1)).
func (g *SurfaceGrid) Points(center geom.Point, radius float64) []geom.Point {
	step := 2 * radius / float64(g.P-1)
	lo := geom.Point{X: center.X - radius, Y: center.Y - radius, Z: center.Z - radius}
	out := make([]geom.Point, len(g.Coords))
	for n, c := range g.Coords {
		out[n] = geom.Point{
			X: lo.X + float64(c[0])*step,
			Y: lo.Y + float64(c[1])*step,
			Z: lo.Z + float64(c[2])*step,
		}
	}
	return out
}

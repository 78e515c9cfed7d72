package kifmm

import (
	"math"

	"kifmm/internal/octree"
)

// Layout is the plan-time streaming translation of the pointer-based octree
// — the host-side counterpart of the data-structure translation the paper
// performs before launching GPU work. It holds, in flat structure-of-arrays
// form, everything the evaluation phases would otherwise rebuild per leaf
// per Apply:
//
//   - the point coordinates in tree order (leaf panels are contiguous
//     [PtLo, PtHi) slices of these arrays, so a leaf's source or target
//     panel is three subslices, no per-leaf gather);
//   - on request, a float32 mirror of the same panels for the simulated
//     device (internal/gpu), the paper's single-precision GPU path; every
//     CPU phase body reads the float64 panels;
//   - per-level equivalent/check surface offset grids: all octants at one
//     level share the same surface geometry relative to their center, so
//     the per-octant surface is center + offsets — a fill into a reusable
//     buffer instead of the per-call allocation of SurfaceGrid.Points;
//   - per-node centers and levels as flat slices.
//
// A Layout is built once per plan (NewLayout) and is immutable afterwards:
// concurrent Apply calls on engines sharing one Layout only read it.
type Layout struct {
	// PX, PY, PZ are the tree points in structure-of-arrays form, tree
	// (Morton) order, aligned with Tree.Points.
	PX, PY, PZ []float64
	// X32, Y32, Z32 mirror PX, PY, PZ in single precision for the simulated
	// device's data-structure translation (the paper's GPU path is float32).
	// Leaf i's source panel starts at Tree.Nodes[i].PtLo — the dense
	// per-node panel index that replaces per-call start maps. The mirrors
	// are only built on request (NewLayout's f32 argument): the CPU near
	// field is float64 and never reads them, so plans and shard ranks skip
	// the fill and the memory.
	X32, Y32, Z32 []float32
	// CX, CY, CZ are per-node octant centers.
	CX, CY, CZ []float64
	// Lev is each node's octant level, the index into the surface tables.
	Lev []int8

	// inner[l] and outer[l] are the surface-point offsets from an octant
	// center at level l, for the RadInner (upward-equivalent /
	// downward-check) and RadOuter (upward-check / downward-equivalent)
	// surfaces, in SurfaceGrid.Coords order.
	inner, outer []surfOffsets
}

// surfOffsets is one level's surface-point offsets in SoA form: point k sits
// at (center − radius) + (X[k], Y[k], Z[k]). Keeping the radius separate and
// the lattice products precomputed reproduces SurfaceGrid.Points bit for bit
// (same association order), so the panel bodies see exactly the coordinates
// the per-call allocation produced.
type surfOffsets struct {
	radius  float64
	X, Y, Z []float64
}

// NewLayout builds the streaming layout for one tree and operator set. f32
// selects whether the float32 coordinate mirrors are filled: pass true when
// the simulated device (internal/gpu) will read the layout, false to skip
// the mirror fill and memory.
func NewLayout(tree *octree.Tree, ops *Operators, f32 bool) *Layout {
	np, nn := len(tree.Points), len(tree.Nodes)
	l := &Layout{
		PX: make([]float64, np), PY: make([]float64, np), PZ: make([]float64, np),
		CX: make([]float64, nn), CY: make([]float64, nn), CZ: make([]float64, nn),
		Lev: make([]int8, nn),
	}
	for i, p := range tree.Points {
		l.PX[i], l.PY[i], l.PZ[i] = p.X, p.Y, p.Z
	}
	if f32 {
		l.X32, l.Y32, l.Z32 = make([]float32, np), make([]float32, np), make([]float32, np)
		for i, p := range tree.Points {
			l.X32[i], l.Y32[i], l.Z32[i] = float32(p.X), float32(p.Y), float32(p.Z)
		}
	}
	maxL := 0
	for i := range tree.Nodes {
		k := tree.Nodes[i].Key
		x, y, z := k.Center()
		l.CX[i], l.CY[i], l.CZ[i] = x, y, z
		lv := k.Level()
		l.Lev[i] = int8(lv)
		if lv > maxL {
			maxL = lv
		}
	}
	for lv := 0; lv <= maxL; lv++ {
		// Octants at level lv have side 2^-lv (exact in float64).
		half := math.Ldexp(1, -(lv + 1))
		l.inner = append(l.inner, surfaceOffsets(ops.Grid, RadInner*half))
		l.outer = append(l.outer, surfaceOffsets(ops.Grid, RadOuter*half))
	}
	return l
}

// MemoryBytes is the resident size of the per-point and per-node arrays the
// layout actually carries (the float32 mirrors count only when maintained)
// — the layout term of EnginePool.MemoryBytes.
func (l *Layout) MemoryBytes() int64 {
	return int64(len(l.PX))*3*8 + int64(len(l.X32))*3*4 + int64(len(l.CX))*3*8 + int64(len(l.Lev))
}

// surfaceOffsets precomputes a surface's point offsets from the octant
// center for one radius, in the same deterministic order as
// SurfaceGrid.Points.
func surfaceOffsets(g *SurfaceGrid, radius float64) surfOffsets {
	step := 2 * radius / float64(g.P-1)
	n := len(g.Coords)
	o := surfOffsets{
		radius: radius,
		X:      make([]float64, n), Y: make([]float64, n), Z: make([]float64, n),
	}
	for i, c := range g.Coords {
		o.X[i] = float64(c[0]) * step
		o.Y[i] = float64(c[1]) * step
		o.Z[i] = float64(c[2]) * step
	}
	return o
}

// NumSurf returns the surface point count per octant.
func (l *Layout) NumSurf() int { return len(l.inner[0].X) }

// InnerSurf fills (sx, sy, sz) with node i's RadInner surface panel — the
// upward-equivalent and downward-check surface points. The slices must have
// NumSurf entries.
func (l *Layout) InnerSurf(i int32, sx, sy, sz []float64) {
	l.fillSurf(&l.inner[l.Lev[i]], i, sx, sy, sz)
}

// OuterSurf fills (sx, sy, sz) with node i's RadOuter surface panel — the
// upward-check and downward-equivalent surface points.
func (l *Layout) OuterSurf(i int32, sx, sy, sz []float64) {
	l.fillSurf(&l.outer[l.Lev[i]], i, sx, sy, sz)
}

func (l *Layout) fillSurf(o *surfOffsets, i int32, sx, sy, sz []float64) {
	lox := l.CX[i] - o.radius
	loy := l.CY[i] - o.radius
	loz := l.CZ[i] - o.radius
	for k := range o.X {
		sx[k] = lox + o.X[k]
		sy[k] = loy + o.Y[k]
		sz[k] = loz + o.Z[k]
	}
}

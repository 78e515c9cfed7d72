package gpu

import (
	"kifmm/internal/diag"
	"kifmm/internal/kernel"
	"kifmm/internal/kifmm"
	"kifmm/internal/stream"
)

// S2U and D2T stream one block per leaf octant. The key trick from the
// paper: the equivalent/check surface points sit at known regular positions
// per octant, so each thread regenerates its surface point's coordinates
// from the octant's center and half-side (kept in shared memory) instead of
// fetching them — "this minimizes memory fetches and allows for over 50X
// speed-up for those phases".

// surfCoord returns surface point i of a cube of the given half-side
// centered at the origin, in float32 (the in-kernel coordinate generation).
// All device geometry is expressed in box-local coordinates: deep octants
// are far smaller than float32's absolute resolution near the unit-cube
// scale, so centers are subtracted in float64 on the host before casting.
func surfCoord(g *kifmm.SurfaceGrid, i int, half, scale float32) (float32, float32, float32) {
	r := half * scale
	step := 2 * r / float32(g.P-1)
	c := g.Coords[i]
	return -r + float32(c[0])*step,
		-r + float32(c[1])*step,
		-r + float32(c[2])*step
}

// S2U computes every local leaf's upward-equivalent densities on the
// device: kernel 1 evaluates the leaf's sources at its upward-check surface
// (check-point coordinates generated in-kernel); kernel 2 applies the
// regularized inverse as a dense mat-vec.
func (a *FMMAccel) S2U(e *kifmm.Engine) {
	a.requireLaplace(e)
	a.phase(diag.PhaseUpward, func() { a.s2u(e) })
}

func (a *FMMAccel) s2u(e *kifmm.Engine) {
	t := e.Tree
	g := e.Ops.Grid
	ns := g.NumPoints()

	// Streaming layout: per-leaf metadata + flattened sources.
	type leafJob struct {
		node     int32
		srcBase  int32
		srcCount int32
		meta     boxMeta
		scale    float32
	}
	var jobs []leafJob
	var sx, sy, sz, sden []float32
	for _, li := range t.Leaves {
		n := &t.Nodes[li]
		if !n.Local || n.NPoints() == 0 {
			continue
		}
		j := leafJob{
			node: li, srcBase: int32(len(sx)), srcCount: int32(n.NPoints()),
			meta:  center32(e, li),
			scale: float32(e.Ops.PinvScale(n.Key.Level())),
		}
		cx, cy, cz := n.Key.Center()
		for pi := int(n.PtLo); pi < int(n.PtHi); pi++ {
			p := t.Points[pi]
			sx = append(sx, float32(p.X-cx))
			sy = append(sy, float32(p.Y-cy))
			sz = append(sz, float32(p.Z-cz))
			sden = append(sden, float32(e.Density[pi]))
		}
		jobs = append(jobs, j)
	}
	if len(jobs) == 0 {
		return
	}
	chk := make([]float32, len(jobs)*ns)
	u := make([]float32, len(jobs)*ns)

	translation := int64(4 * (len(sx)*4 + len(jobs)*5))
	a.TranslationBytes += translation
	a.Dev.H2D(int(translation))

	flopsPer := kernel.Laplace{}.FlopsPerInteraction()

	// Kernel 1: check potentials. One block per leaf with one thread per
	// check point; sources staged in shared tiles of one tile per block
	// width.
	a.Dev.Launch(len(jobs), ns, 4*ns, func(blk *stream.Block) {
		j := jobs[blk.Idx]
		blk.GlobalLoad(20, true) // per-block metadata
		acc := make([]float32, ns)
		for tile := int32(0); tile < j.srcCount; tile += int32(ns) {
			tlen := j.srcCount - tile
			if tlen > int32(ns) {
				tlen = int32(ns)
			}
			blk.ForEachThread(func(tid int) {
				if int32(tid) >= tlen {
					return
				}
				s := j.srcBase + tile + int32(tid)
				blk.Shared[4*tid+0] = sx[s]
				blk.Shared[4*tid+1] = sy[s]
				blk.Shared[4*tid+2] = sz[s]
				blk.Shared[4*tid+3] = sden[s]
			})
			blk.GlobalLoad(int(16*tlen), tlen == int32(ns))
			blk.ForEachThread(func(tid int) {
				// Check-point coordinates generated in-register: no fetch.
				x, y, z := surfCoord(g, tid, j.meta.half, kifmm.RadOuter)
				s := acc[tid]
				for k := int32(0); k < tlen; k++ {
					s += laplaceEval32(x, y, z,
						blk.Shared[4*k+0], blk.Shared[4*k+1], blk.Shared[4*k+2],
						blk.Shared[4*k+3])
				}
				acc[tid] = s
			})
			blk.Flops(ns * int(tlen) * flopsPer)
		}
		blk.ForEachThread(func(tid int) { chk[blk.Idx*ns+tid] = acc[tid] })
		blk.GlobalStore(4*ns, true)
	})

	// Kernel 2: u = scale · (UC2UE · chk). The inverse operator is resident
	// on the device; each thread computes one output row with the check
	// vector staged in shared memory.
	pinv := a.uc2ue32(e)
	a.Dev.Launch(len(jobs), ns, ns, func(blk *stream.Block) {
		j := jobs[blk.Idx]
		blk.ForEachThread(func(tid int) { blk.Shared[tid] = chk[blk.Idx*ns+tid] })
		blk.GlobalLoad(4*ns, true)
		blk.ForEachThread(func(tid int) {
			row := pinv.Row(tid)
			var s float32
			for k := 0; k < ns; k++ {
				s += float32(row[k]) * blk.Shared[k]
			}
			u[blk.Idx*ns+tid] = j.scale * s
		})
		blk.GlobalLoad(4*ns*ns, true) // operator rows
		blk.GlobalStore(4*ns, true)
		blk.Flops(2 * ns * ns)
	})

	a.Dev.D2H(4 * len(u))
	for ji, j := range jobs {
		dst := e.U[j.node]
		for k := 0; k < ns; k++ {
			dst[k] += float64(u[ji*ns+k])
		}
	}
}

// D2T evaluates each local leaf's downward-equivalent field at its own
// targets on the device; the equivalent-surface coordinates are generated
// in-kernel and only the density vector is fetched.
func (a *FMMAccel) D2T(e *kifmm.Engine) {
	a.requireLaplace(e)
	a.phase(diag.PhaseDownward, func() { a.d2t(e) })
}

func (a *FMMAccel) d2t(e *kifmm.Engine) {
	t := e.Tree
	g := e.Ops.Grid
	ns := g.NumPoints()

	type chunkJob struct {
		node   int32
		ptBase int32
		count  int32
		meta   boxMeta
		dBase  int32
	}
	var jobs []chunkJob
	var tx, ty, tz []float32
	var dvec []float32
	for _, li := range t.Leaves {
		n := &t.Nodes[li]
		if !n.Local || n.NPoints() == 0 {
			continue
		}
		dBase := int32(len(dvec))
		for _, v := range e.D[li] {
			dvec = append(dvec, float32(v))
		}
		meta := center32(e, li)
		cx, cy, cz := n.Key.Center()
		for base := 0; base < n.NPoints(); base += blockSize {
			cnt := n.NPoints() - base
			if cnt > blockSize {
				cnt = blockSize
			}
			j := chunkJob{node: li, ptBase: n.PtLo + int32(base), count: int32(cnt), meta: meta, dBase: dBase}
			jobs = append(jobs, j)
			for k := 0; k < cnt; k++ {
				p := t.Points[int(j.ptBase)+k]
				tx = append(tx, float32(p.X-cx))
				ty = append(ty, float32(p.Y-cy))
				tz = append(tz, float32(p.Z-cz))
			}
			for k := cnt; k < blockSize; k++ {
				tx = append(tx, 0)
				ty = append(ty, 0)
				tz = append(tz, 0)
			}
		}
	}
	if len(jobs) == 0 {
		return
	}
	f := make([]float32, len(tx))
	trgBase := make([]int32, len(jobs))
	var cur int32
	for i := range jobs {
		trgBase[i] = cur
		cur += int32(blockSize)
	}

	translation := int64(4 * (len(tx)*3 + len(dvec) + len(jobs)*5))
	a.TranslationBytes += translation
	a.Dev.H2D(int(translation))

	flopsPer := kernel.Laplace{}.FlopsPerInteraction()
	a.Dev.Launch(len(jobs), blockSize, ns, func(blk *stream.Block) {
		j := jobs[blk.Idx]
		base := trgBase[blk.Idx]
		blk.GlobalLoad(12*blockSize+20, true)
		// Stage the equivalent densities in shared memory.
		blk.ForEachThread(func(tid int) {
			for k := tid; k < ns; k += blk.Size {
				blk.Shared[k] = dvec[int(j.dBase)+k]
			}
		})
		blk.GlobalLoad(4*ns, true)
		blk.ForEachThread(func(tid int) {
			if int32(tid) >= j.count {
				return
			}
			x, y, z := tx[base+int32(tid)], ty[base+int32(tid)], tz[base+int32(tid)]
			var s float32
			for k := 0; k < ns; k++ {
				ex, ey, ez := surfCoord(g, k, j.meta.half, kifmm.RadOuter)
				s += laplaceEval32(x, y, z, ex, ey, ez, blk.Shared[k])
			}
			f[base+int32(tid)] += s
		})
		blk.Flops(int(j.count) * ns * flopsPer)
		blk.GlobalStore(int(4*j.count), true)
	})

	a.Dev.D2H(4 * len(f))
	for i, j := range jobs {
		base := trgBase[i]
		for k := int32(0); k < j.count; k++ {
			e.Potential[j.ptBase+k] += float64(f[base+k])
		}
	}
}

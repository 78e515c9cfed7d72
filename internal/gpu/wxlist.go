package gpu

import (
	"kifmm/internal/diag"
	"kifmm/internal/kernel"
	"kifmm/internal/kifmm"
	"kifmm/internal/stream"
)

// W/X-list device kernels — the paper's stated ongoing work ("transferring
// the W,X-lists on the GPU"). Both follow the surface-kernel pattern: the
// W-list evaluates source octants' upward-equivalent surfaces (coordinates
// generated in-kernel) at target leaf points; the X-list evaluates source
// leaf points at target octants' downward-check surfaces. All geometry is
// box-local to survive single precision on deep octants.

// WLI evaluates the W-list interactions on the device.
func (a *FMMAccel) WLI(e *kifmm.Engine) {
	a.requireLaplace(e)
	a.phase(diag.PhaseWList, func() { a.wli(e) })
}

func (a *FMMAccel) wli(e *kifmm.Engine) {
	t := e.Tree
	g := e.Ops.Grid
	ns := g.NumPoints()

	// Flatten the upward densities of every W-source once.
	uBase := make(map[int32]int32)
	var uvec []float32
	var srcMeta []boxMeta
	srcIdx := make(map[int32]int32)
	type chunkJob struct {
		node       int32
		ptBase     int32
		count      int32
		trgOff     int32
		listLo     int32
		listHi     int32
		cx, cy, cz float64
	}
	var jobs []chunkJob
	var tx, ty, tz []float32
	var wlist []int32 // source indices into srcMeta/uBase
	for _, li := range t.Leaves {
		n := &t.Nodes[li]
		if !n.Local || n.NPoints() == 0 || len(n.W) == 0 {
			continue
		}
		listLo := int32(len(wlist))
		for _, ai := range n.W {
			si, ok := srcIdx[ai]
			if !ok {
				si = int32(len(srcMeta))
				srcIdx[ai] = si
				srcMeta = append(srcMeta, center32(e, ai))
				uBase[si] = int32(len(uvec))
				for _, v := range e.U[ai] {
					uvec = append(uvec, float32(v))
				}
			}
			wlist = append(wlist, si)
		}
		listHi := int32(len(wlist))
		cx, cy, cz := n.Key.Center()
		for base := 0; base < n.NPoints(); base += blockSize {
			cnt := n.NPoints() - base
			if cnt > blockSize {
				cnt = blockSize
			}
			j := chunkJob{node: li, ptBase: n.PtLo + int32(base), count: int32(cnt),
				trgOff: int32(len(tx)), listLo: listLo, listHi: listHi,
				cx: cx, cy: cy, cz: cz}
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
			jobs = append(jobs, j)
		}
	}
	if len(jobs) == 0 {
		return
	}
	f := make([]float32, len(tx))
	translation := int64(4 * (len(tx)*3 + len(uvec) + len(wlist) + len(srcMeta)*4))
	a.TranslationBytes += translation
	a.Dev.H2D(int(translation))

	flopsPer := kernel.Laplace{}.FlopsPerInteraction()
	a.Dev.Launch(len(jobs), blockSize, ns, func(blk *stream.Block) {
		j := jobs[blk.Idx]
		blk.GlobalLoad(12*blockSize+8*int(j.listHi-j.listLo), true)
		for li := j.listLo; li < j.listHi; li++ {
			si := wlist[li]
			m := srcMeta[si]
			// Source surface coordinates are generated in-kernel relative
			// to the source box center; shift into the target box frame in
			// float32 via the float64 host-computed offset.
			ox := float32(float64(m.cx) - j.cx)
			oy := float32(float64(m.cy) - j.cy)
			oz := float32(float64(m.cz) - j.cz)
			// Stage the source's equivalent densities.
			blk.ForEachThread(func(tid int) {
				for k := tid; k < ns; k += blk.Size {
					blk.Shared[k] = uvec[int(uBase[si])+k]
				}
			})
			blk.GlobalLoad(4*ns, true)
			blk.ForEachThread(func(tid int) {
				if int32(tid) >= j.count {
					return
				}
				x, y, z := tx[j.trgOff+int32(tid)], ty[j.trgOff+int32(tid)], tz[j.trgOff+int32(tid)]
				var s float32
				for k := 0; k < ns; k++ {
					ex, ey, ez := surfCoord(g, k, m.half, kifmm.RadInner)
					s += laplaceEval32(x, y, z, ex+ox, ey+oy, ez+oz, blk.Shared[k])
				}
				f[j.trgOff+int32(tid)] += s
			})
			blk.Flops(int(j.count) * ns * flopsPer)
		}
		blk.GlobalStore(int(4*j.count), true)
	})
	a.Dev.D2H(4 * len(f))
	for _, j := range jobs {
		for k := int32(0); k < j.count; k++ {
			e.Potential[j.ptBase+k] += float64(f[j.trgOff+k])
		}
	}
}

// XLI evaluates the X-list interactions on the device: source leaf points
// accumulate onto target octants' downward-check surfaces.
func (a *FMMAccel) XLI(e *kifmm.Engine) {
	a.requireLaplace(e)
	a.phase(diag.PhaseXList, func() { a.xli(e) })
}

func (a *FMMAccel) xli(e *kifmm.Engine) {
	t := e.Tree
	g := e.Ops.Grid
	ns := g.NumPoints()

	// Flatten the X sources (leaf points + densities) once, in box-local
	// coordinates shifted per target at kernel time.
	type srcRec struct {
		base, count int32
		cx, cy, cz  float64
	}
	var srcs []srcRec
	srcIdx := make(map[int32]int32)
	var sx, sy, sz, sden []float32
	type targetJob struct {
		node       int32
		listLo     int32
		listHi     int32
		meta       boxMeta
		cx, cy, cz float64
	}
	var jobs []targetJob
	var xlist []int32
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if len(n.X) == 0 {
			continue
		}
		listLo := int32(len(xlist))
		for _, ai := range n.X {
			si, ok := srcIdx[ai]
			if !ok {
				an := &t.Nodes[ai]
				acx, acy, acz := an.Key.Center()
				si = int32(len(srcs))
				srcIdx[ai] = si
				srcs = append(srcs, srcRec{base: int32(len(sx)), count: int32(an.NPoints()),
					cx: acx, cy: acy, cz: acz})
				for pi := int(an.PtLo); pi < int(an.PtHi); pi++ {
					p := t.Points[pi]
					sx = append(sx, float32(p.X-acx))
					sy = append(sy, float32(p.Y-acy))
					sz = append(sz, float32(p.Z-acz))
					sden = append(sden, float32(e.Density[pi]))
				}
			}
			xlist = append(xlist, si)
		}
		cx, cy, cz := n.Key.Center()
		jobs = append(jobs, targetJob{node: int32(i), listLo: listLo, listHi: int32(len(xlist)),
			meta: center32(e, int32(i)), cx: cx, cy: cy, cz: cz})
	}
	if len(jobs) == 0 {
		return
	}
	chk := make([]float32, len(jobs)*ns)
	translation := int64(4 * (len(sx)*4 + len(xlist) + len(jobs)*5))
	a.TranslationBytes += translation
	a.Dev.H2D(int(translation))

	flopsPer := kernel.Laplace{}.FlopsPerInteraction()
	// One block per target octant; one thread per check point; sources
	// staged in shared tiles of ns.
	a.Dev.Launch(len(jobs), ns, 4*ns, func(blk *stream.Block) {
		j := jobs[blk.Idx]
		acc := make([]float32, ns)
		blk.GlobalLoad(20+8*int(j.listHi-j.listLo), true)
		for li := j.listLo; li < j.listHi; li++ {
			sr := srcs[xlist[li]]
			ox := float32(sr.cx - j.cx)
			oy := float32(sr.cy - j.cy)
			oz := float32(sr.cz - j.cz)
			for tile := int32(0); tile < sr.count; tile += int32(ns) {
				tlen := sr.count - tile
				if tlen > int32(ns) {
					tlen = int32(ns)
				}
				blk.ForEachThread(func(tid int) {
					if int32(tid) >= tlen {
						return
					}
					s := sr.base + tile + int32(tid)
					blk.Shared[4*tid+0] = sx[s] + ox
					blk.Shared[4*tid+1] = sy[s] + oy
					blk.Shared[4*tid+2] = sz[s] + oz
					blk.Shared[4*tid+3] = sden[s]
				})
				blk.GlobalLoad(int(16*tlen), tlen == int32(ns))
				blk.ForEachThread(func(tid int) {
					x, y, z := surfCoord(g, tid, j.meta.half, kifmm.RadInner)
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
		}
		blk.ForEachThread(func(tid int) { chk[blk.Idx*ns+tid] = acc[tid] })
		blk.GlobalStore(4*ns, true)
	})
	a.Dev.D2H(4 * len(chk))
	for ji, j := range jobs {
		dst := e.DChk[j.node]
		for k := 0; k < ns; k++ {
			dst[k] += float64(chk[ji*ns+k])
		}
	}
}

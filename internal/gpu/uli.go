package gpu

import (
	"kifmm/internal/diag"
	"kifmm/internal/kernel"
	"kifmm/internal/kifmm"
	"kifmm/internal/stream"
)

// ULI runs Algorithm 4: the direct (U-list) interactions as a streaming
// kernel. Target boxes are padded to the thread-block size; each block
// cooperatively stages tiles of source points in shared memory and every
// thread accumulates its own target's potential over the tile; the singular
// self pair is suppressed by the IEEE max(NaN, x) = x identity instead of a
// branch.
func (a *FMMAccel) ULI(e *kifmm.Engine) {
	a.requireLaplace(e)
	a.phase(diag.PhaseUList, func() { a.uli(e) })
}

func (a *FMMAccel) uli(e *kifmm.Engine) {
	t := e.Tree

	// ---- Data-structure translation: LET → flat streaming layout. ----
	// The density-independent part was done at plan time: the engine's
	// shared Layout already holds every point in float32 SoA form, in tree
	// order, so leaf li's source panel starts at Nodes[li].PtLo — a dense
	// per-node index in place of the per-call flatten + start map this body
	// used to rebuild on every Apply. Only the densities change per call.
	L := e.Layout
	sx, sy, sz := L.X32, L.Y32, L.Z32
	sden := a.den32(e)

	// Target side: one device block per chunk of blockSize target points.
	// Targets are addressed through the same layout panels; trgBase indexes
	// the unpadded result vector (padded lanes occupy the block but neither
	// read nor write, as in the paper).
	type chunk struct {
		node    int32
		ptBase  int32 // first point index in tree order
		count   int32 // real targets in this chunk (≤ b)
		listLo  int32 // range into the flattened U-list
		listHi  int32
		trgBase int32 // offset into the result vector
	}
	var chunks []chunk
	var ulist []int32 // flattened (srcStart, srcCount) pairs
	ntrg := 0
	for _, li := range t.Leaves {
		n := &t.Nodes[li]
		if !n.Local || n.NPoints() == 0 || len(n.U) == 0 {
			continue
		}
		listLo := int32(len(ulist))
		for _, ai := range n.U {
			an := &t.Nodes[ai]
			if an.NPoints() == 0 {
				continue
			}
			ulist = append(ulist, an.PtLo, int32(an.NPoints()))
		}
		listHi := int32(len(ulist))
		for base := 0; base < n.NPoints(); base += blockSize {
			cnt := n.NPoints() - base
			if cnt > blockSize {
				cnt = blockSize
			}
			chunks = append(chunks, chunk{
				node: li, ptBase: n.PtLo + int32(base), count: int32(cnt),
				listLo: listLo, listHi: listHi, trgBase: int32(ntrg),
			})
			ntrg += cnt
		}
	}
	if len(chunks) == 0 {
		return
	}
	f := make([]float32, ntrg)

	// Per-call transfer: the densities (the only per-Apply data), the
	// U-list ranges, and the result vector. The coordinate panels are part
	// of the plan-resident layout; count them once per call as uploaded
	// alongside (the stream model has no persistent device allocations).
	translation := int64(4 * (len(sden)*4 + len(ulist) + len(f)))
	a.TranslationBytes += translation
	a.Dev.H2D(int(translation))

	// ---- Kernel. ----
	a.Dev.Launch(len(chunks), blockSize, 4*blockSize, func(blk *stream.Block) {
		ch := chunks[blk.Idx]
		acc := make([]float32, blockSize) // per-thread register accumulators
		// Each thread loads its target coordinates (coalesced).
		blk.GlobalLoad(12*blockSize, true)
		for li := ch.listLo; li < ch.listHi; li += 2 {
			start, count := ulist[li], ulist[li+1]
			for tile := int32(0); tile < count; tile += int32(blockSize) {
				tlen := count - tile
				if tlen > int32(blockSize) {
					tlen = int32(blockSize)
				}
				// Phase 1: cooperative load of the tile into shared memory.
				// Partial tiles break coalescing (the paper's sparse U-list
				// caveat).
				blk.ForEachThread(func(tid int) {
					if int32(tid) >= tlen {
						return
					}
					j := start + tile + int32(tid)
					blk.Shared[4*tid+0] = sx[j]
					blk.Shared[4*tid+1] = sy[j]
					blk.Shared[4*tid+2] = sz[j]
					blk.Shared[4*tid+3] = sden[j]
				})
				blk.GlobalLoad(int(16*tlen), tlen == int32(blockSize))
				// Phase 2: every thread accumulates over the tile.
				blk.ForEachThread(func(tid int) {
					if int32(tid) >= ch.count {
						return
					}
					g := ch.ptBase + int32(tid)
					x, y, z := sx[g], sy[g], sz[g]
					s := acc[tid]
					for j := int32(0); j < tlen; j++ {
						s += laplaceEval32(x, y, z,
							blk.Shared[4*j+0], blk.Shared[4*j+1], blk.Shared[4*j+2],
							blk.Shared[4*j+3])
					}
					acc[tid] = s
				})
				blk.Flops(int(ch.count) * int(tlen) * kernel.Laplace{}.FlopsPerInteraction())
			}
		}
		// Write back (coalesced).
		blk.ForEachThread(func(tid int) {
			if int32(tid) < ch.count {
				f[ch.trgBase+int32(tid)] = acc[tid]
			}
		})
		blk.GlobalStore(int(4*ch.count), true)
	})

	a.Dev.D2H(4 * len(f))

	// Accumulate into the engine's potentials.
	for _, ch := range chunks {
		for k := int32(0); k < ch.count; k++ {
			e.Potential[ch.ptBase+k] += float64(f[ch.trgBase+k])
		}
	}
}

package kifmm

// Single-precision near-field bodies: the body32 column of the phase table,
// which bodyOf picks when SetFloat32NearField has installed a kernel.Batch32
// (e.bk32 != nil). Each mirrors its float64 counterpart exactly — the same
// row, so the same octants; same panel decomposition, same ascending
// accumulation order, same flop accounting — but evaluates every pair
// interaction in float32 (the paper's GPU precision) and accumulates into the
// float64 potential and check arrays.
//
// Coordinates are box-local: every panel — target points, source points,
// equivalent/check surfaces — is translated by the target node's center in
// float64 and only then rounded to float32 (Layout.PointsLocal32 and the
// *SurfLocal32 fills). Near-field pairs are at most a couple of box sides
// apart, so local coordinates are O(leaf size) and a pair separation keeps
// O(eps32) relative accuracy; rounding absolute unit-cube coordinates would
// instead amplify close-pair error by coord/distance (~3e-4 on surface
// distributions), swamping the truncation budget (DESIGN.md §7.8). The
// translation is the same for targets and sources of one panel call, so
// float64-coincident pairs still land on bit-identical float32 coordinates
// and are annihilated by the kernel's zero-distance guard. Fill cost is
// O(nt+ns) against the panel's O(nt·ns) kernel work. Equivalent-density
// source panels (W-list upward fields, the leaf's own downward field in
// D2T) are rounded into per-worker float32 scratch before the panel call.
//
// The bodies read e.den32 directly rather than calling Den32: bodyOf refreshes
// the mirror once per phase before either driver fans out, so the hot bodies
// stay allocation-free.

// uliLeaf32 is uliLeaf over float32 panels: the exact direct sum into leaf
// i's potentials, singular self-panel diagonal suppressed by the float32
// Algorithm 4 guard. The self panel reuses the target fill as its source
// panel, so coincidence suppression is exact by construction.
//
//fmm:hotpath
func (e *Engine) uliLeaf32(i int32, s *evalScratch) {
	t := e.Tree
	n := &t.Nodes[i]
	L := e.Layout
	sd, td := e.Ops.Kern.SrcDim(), e.Ops.Kern.TrgDim()
	lo, hi := int(n.PtLo), int(n.PtHi)
	ox, oy, oz := L.CX[i], L.CY[i], L.CZ[i]
	nt := hi - lo
	tx, ty, tz := s.tx32[:nt], s.ty32[:nt], s.tz32[:nt]
	L.PointsLocal32(lo, hi, ox, oy, oz, tx, ty, tz)
	out := e.Potential[lo*td : hi*td]
	den := e.den32
	var pairs int
	for _, a := range n.U {
		if !e.srcNode(a) {
			continue
		}
		an := &t.Nodes[a]
		slo, shi := int(an.PtLo), int(an.PtHi)
		px, py, pz := tx, ty, tz
		selfOff := -1
		if a == i {
			selfOff = 0
		} else {
			ns := shi - slo
			px, py, pz = s.px32[:ns], s.py32[:ns], s.pz32[:ns]
			L.PointsLocal32(slo, shi, ox, oy, oz, px, py, pz)
		}
		e.bk32.EvalPanel32(tx, ty, tz, px, py, pz, den[slo*sd:shi*sd], out, selfOff)
		pairs += (hi - lo) * (shi - slo)
	}
	s.flops[fpUList] += int64(pairs * e.Ops.Kern.FlopsPerInteraction())
}

// xliNode32 is xliNode over float32 panels: X-list source points evaluated
// on node i's downward-check surface, both sides localized to i's center.
//
//fmm:hotpath
func (e *Engine) xliNode32(i int32, s *evalScratch) {
	t := e.Tree
	n := &t.Nodes[i]
	L := e.Layout
	sd := e.Ops.Kern.SrcDim()
	ox, oy, oz := L.CX[i], L.CY[i], L.CZ[i]
	dx, dy, dz := s.sx32, s.sy32, s.sz32
	L.InnerSurfLocal32(i, ox, oy, oz, dx, dy, dz)
	den := e.den32
	var pairs int
	for _, a := range n.X {
		if !e.srcNode(a) {
			continue
		}
		an := &t.Nodes[a]
		lo, hi := int(an.PtLo), int(an.PtHi)
		ns := hi - lo
		px, py, pz := s.px32[:ns], s.py32[:ns], s.pz32[:ns]
		L.PointsLocal32(lo, hi, ox, oy, oz, px, py, pz)
		e.bk32.EvalPanel32(dx, dy, dz, px, py, pz, den[lo*sd:hi*sd], e.DChk[i], -1)
		pairs += ns * len(dx)
	}
	s.flops[fpXList] += int64(pairs * e.Ops.Kern.FlopsPerInteraction())
}

// wliLeaf32 is wliLeaf over float32 panels: each W source's
// upward-equivalent surface (localized to leaf i's center) and densities are
// rounded into worker scratch and evaluated as one float32 source panel
// against the leaf's target panel.
//
//fmm:hotpath
func (e *Engine) wliLeaf32(i int32, s *evalScratch) {
	t := e.Tree
	n := &t.Nodes[i]
	L := e.Layout
	td := e.Ops.Kern.TrgDim()
	lo, hi := int(n.PtLo), int(n.PtHi)
	ox, oy, oz := L.CX[i], L.CY[i], L.CZ[i]
	nt := hi - lo
	tx, ty, tz := s.tx32[:nt], s.ty32[:nt], s.tz32[:nt]
	L.PointsLocal32(lo, hi, ox, oy, oz, tx, ty, tz)
	out := e.Potential[lo*td : hi*td]
	ux, uy, uz := s.sx32, s.sy32, s.sz32
	eq := s.eq32
	var pairs int
	for _, a := range n.W {
		if !e.srcNode(a) {
			continue
		}
		L.InnerSurfLocal32(a, ox, oy, oz, ux, uy, uz)
		u := e.U[a]
		for x, v := range u {
			eq[x] = float32(v)
		}
		e.bk32.EvalPanel32(tx, ty, tz, ux, uy, uz, eq[:len(u)], out, -1)
		pairs += (hi - lo) * len(ux)
	}
	s.flops[fpWList] += int64(pairs * e.Ops.Kern.FlopsPerInteraction())
}

// d2tLeaf32 is d2tLeaf over float32 panels: the leaf's downward-equivalent
// surface and densities rounded into worker scratch, evaluated at the
// leaf's own targets, everything localized to the leaf's center.
//
//fmm:hotpath
func (e *Engine) d2tLeaf32(i int32, s *evalScratch) {
	t := e.Tree
	n := &t.Nodes[i]
	L := e.Layout
	td := e.Ops.Kern.TrgDim()
	lo, hi := int(n.PtLo), int(n.PtHi)
	ox, oy, oz := L.CX[i], L.CY[i], L.CZ[i]
	nt := hi - lo
	tx, ty, tz := s.tx32[:nt], s.ty32[:nt], s.tz32[:nt]
	L.PointsLocal32(lo, hi, ox, oy, oz, tx, ty, tz)
	dx, dy, dz := s.sx32, s.sy32, s.sz32
	L.OuterSurfLocal32(i, ox, oy, oz, dx, dy, dz)
	d := e.D[i]
	eq := s.eq32
	for x, v := range d {
		eq[x] = float32(v)
	}
	e.bk32.EvalPanel32(tx, ty, tz, dx, dy, dz,
		eq[:len(d)], e.Potential[lo*td:hi*td], -1)
	s.flops[fpDownward] += int64(nt * len(dx) * e.Ops.Kern.FlopsPerInteraction())
}

package kifmm

import (
	"math"
	"slices"

	"kifmm/internal/fft"
	"kifmm/internal/geom"
	"kifmm/internal/morton"
	"kifmm/internal/sched"
)

// FFTM2L implements the FFT-diagonalized V-list translation. Equivalent and
// check surface points lie on the boundary of a regular p×p×p lattice, and
// the kernel is translation invariant, so the map from a source octant's
// upward-equivalent densities to a target octant's downward-check potentials
// is a 3-D convolution on that lattice: after padding to a 2p-grid and
// transforming, each V-list interaction reduces to a pointwise (Hadamard)
// multiply in frequency space — the "diagonal translation" the paper
// offloads to the GPU while keeping the per-octant FFTs on the CPU.
//
// Both the padded density grids and the kernel grids are real, so all
// spectra are Hermitian (X[-k] = conj(X[k])) and only the non-redundant
// half along the innermost axis is computed, stored, and multiplied:
// HalfLen() = n·n·(n/2+1) complex entries instead of GridLen() = n³. Spectra
// are stored as structure-of-arrays float64 panels — per component pair, a
// re panel of HalfLen() followed by an im panel of HalfLen() — which is the
// layout the Hadamard micro-kernel streams.
//
// Translation spectra are not held per-FFTM2L: they depend only on
// (kernel identity, surface order, level, direction), so they live in a
// process-wide TranslationCache shared by every Operators instance, and each
// level table holds its level's (Operators.vTable).
type FFTM2L struct {
	ops   *Operators
	n     int // padded grid edge = 2p
	hl    int // half-spectrum length n·n·(n/2+1)
	rplan *fft.PlanR3D
	// surfIdx maps each surface point to its flattened padded-grid index.
	surfIdx []int
	cache   *TranslationCache
	// kid is the kernel's parameter-inclusive identity, the cache-key field
	// that keeps e.g. different Yukawa screenings apart.
	kid string
}

// NewFFTM2L builds the FFT translation machinery for ops, backed by the
// process-wide translation-spectrum cache.
func NewFFTM2L(ops *Operators) *FFTM2L {
	return newFFTM2LCache(ops, SharedTranslations)
}

// newFFTM2LCache is NewFFTM2L with an explicit cache (tests use private
// caches to control bounds and counters).
func newFFTM2LCache(ops *Operators, cache *TranslationCache) *FFTM2L {
	p := ops.Grid.P
	n := 2 * p
	rp := fft.NewPlanR3D(n, n, n)
	f := &FFTM2L{
		ops:   ops,
		n:     n,
		hl:    rp.HalfLen(),
		rplan: rp,
		cache: cache,
		kid:   ops.Kern.Name(),
	}
	f.surfIdx = make([]int, len(ops.Grid.Coords))
	for i, c := range ops.Grid.Coords {
		f.surfIdx[i] = (c[0]*n+c[1])*n + c[2]
	}
	return f
}

// GridLen returns the padded real-grid size n³.
func (f *FFTM2L) GridLen() int { return f.n * f.n * f.n }

// HalfLen returns the Hermitian half-spectrum length n·n·(n/2+1).
func (f *FFTM2L) HalfLen() int { return f.hl }

// SpecLen returns the float64 length of one source spectrum: SrcDim
// component spectra of 2·HalfLen() (re panel, im panel) each.
func (f *FFTM2L) SpecLen() int { return f.ops.Kern.SrcDim() * 2 * f.hl }

// AccLen returns the float64 length of one target's frequency-space
// accumulator: TrgDim component spectra of 2·HalfLen() each.
func (f *FFTM2L) AccLen() int { return f.ops.Kern.TrgDim() * 2 * f.hl }

// SourceSpectrumInto pads the upward-equivalent densities u (surface order)
// into the real grid and half-transforms them into dst (length SpecLen()):
// per source component, a re panel then an im panel. The densities fill only
// the corner [0,p)³ of the (2p)³ grid, so the transform skips the all-zero
// rows and columns outside it. grid is caller scratch of length GridLen().
//
//fmm:hotpath
func (f *FFTM2L) SourceSpectrumInto(u []float64, dst, grid []float64) {
	sd := f.ops.Kern.SrcDim()
	hl := f.hl
	for s := 0; s < sd; s++ {
		for i := range grid {
			grid[i] = 0
		}
		for i, gi := range f.surfIdx {
			grid[gi] = u[i*sd+s]
		}
		o := s * 2 * hl
		f.rplan.RForward(grid, dst[o:o+hl], dst[o+hl:o+2*hl], f.n/2)
	}
}

// SourceSpectrum is SourceSpectrumInto with freshly allocated buffers.
func (f *FFTM2L) SourceSpectrum(u []float64) []float64 {
	dst := make([]float64, f.SpecLen())
	f.SourceSpectrumInto(u, dst, make([]float64, f.GridLen()))
	return dst
}

// Translation returns the cached translation spectra for a V-list direction
// at the reference scale (homogeneous kernels). The result holds
// TrgDim·SrcDim component-pair spectra: pair (t, s) occupies
// [(t·sd+s)·2·hl, (t·sd+s+1)·2·hl) as a re panel then an im panel. The slice
// is shared through the process-wide cache and must be treated as read-only.
func (f *FFTM2L) Translation(dx, dy, dz int) []float64 {
	return f.TranslationAt(0, dx, dy, dz)
}

// TranslationAt returns the translation spectra for octants at the given
// level (used directly for non-homogeneous kernels, whose operators cannot
// be rescaled from a reference level). Spectra come from the process-wide
// cache: concurrent callers racing on one direction build it exactly once.
func (f *FFTM2L) TranslationAt(level, dx, dy, dz int) []float64 {
	key := tfKey{Kern: f.kid, P: f.ops.Grid.P, Level: level, Dir: dirSlot(dx, dy, dz)}
	return f.cache.Get(key, func() []float64 {
		return f.buildTranslation(level, dx, dy, dz)
	})
}

// buildTranslation evaluates the kernel translation tensor on the padded
// lattice and forward-transforms each component pair's real grid. It runs
// only on a translation-cache miss: once per (kernel, order, level,
// direction) over the process lifetime.
//
//fmm:coldcall translation spectra are built once per direction and cached process-wide
func (f *FFTM2L) buildTranslation(level, dx, dy, dz int) []float64 {
	kern := f.ops.Kern
	sd, td := kern.SrcDim(), kern.TrgDim()
	p := f.ops.Grid.P
	n := f.n
	// Lattice spacing for octants of side 2^-level (inner radius
	// RadInner·side/2 around the center).
	side := math.Pow(2, -float64(level))
	step := 2 * (RadInner * side * 0.5) / float64(p-1)
	d := geom.Point{X: float64(dx) * side, Y: float64(dy) * side, Z: float64(dz) * side}

	grids := make([][]float64, td*sd)
	for i := range grids {
		grids[i] = make([]float64, f.GridLen())
	}
	den := make([]float64, sd)
	out := make([]float64, td)
	for mx := -(p - 1); mx <= p-1; mx++ {
		for my := -(p - 1); my <= p-1; my++ {
			for mz := -(p - 1); mz <= p-1; mz++ {
				// Offset between a target check point at lattice i and a
				// source equivalent point at lattice j with m = i − j.
				off := geom.Point{
					X: d.X + float64(mx)*step,
					Y: d.Y + float64(my)*step,
					Z: d.Z + float64(mz)*step,
				}
				gi := ((mod(mx, n))*n+mod(my, n))*n + mod(mz, n)
				for s := 0; s < sd; s++ {
					for x := range den {
						den[x] = 0
					}
					den[s] = 1
					for x := range out {
						out[x] = 0
					}
					kern.Eval(off, geom.Point{}, den, out)
					for t := 0; t < td; t++ {
						grids[t*sd+s][gi] = out[t]
					}
				}
			}
		}
	}
	hl := f.hl
	spec := make([]float64, td*sd*2*hl)
	for q := range grids {
		o := q * 2 * hl
		f.rplan.RForward(grids[q], spec[o:o+hl], spec[o+hl:o+2*hl], f.n)
	}
	return spec
}

// vTable holds the translation spectra of one level indexed by dirSlot; the
// 27 adjacent-direction slots stay nil.
type vTable [7 * 7 * 7][]float64

// dirSlot is a V-list direction's index into a vTable, and into a level's
// dense M2L matrices. Slots ascend in (dx, dy, dz) lexicographic order.
func dirSlot(dx, dy, dz int) int { return ((dx+3)*7+(dy+3))*7 + dz + 3 }

// table resolves the translation spectra of the 316 V-list directions (the
// 7³ neighborhood minus the 3³ adjacency core) at the given level, in
// parallel: cache hits, or coalesced builds. Operators.vTable calls it once
// per level table, which then holds the result, so the V-list body indexes
// the table per interaction instead of paying a keyed cache lookup per
// Hadamard product.
func (f *FFTM2L) table(level, workers int) *vTable {
	tb := new(vTable)
	sched.For(workers, len(tb), func(k int) {
		dx, dy, dz := k/49-3, k/7%7-3, k%7-3 // inverse of dirSlot
		if maxAbs3(dx, dy, dz) > 1 {
			tb[k] = f.TranslationAt(level, dx, dy, dz)
		}
	})
	return tb
}

// Prewarm eagerly resolves, in parallel, the translation spectra of every
// V-list direction for each given level into the operators' level table
// (Operators.vTable, through the operators' own FFTM2L and its cache), so no
// compile against them looks one up; racing builds of the same direction
// coalesce into one computation inside the process-wide cache.
func (f *FFTM2L) Prewarm(levels []int, workers int) {
	if len(levels) == 0 {
		levels = []int{0}
	}
	for _, l := range levels {
		f.ops.vTable(l, workers)
	}
}

// ExtractCheck inverse-transforms the accumulated frequency-domain check
// potentials (acc, length AccLen(), consumed) and adds the surface values
// (scaled) into dst. The surface lies in the corner [0,p)³, the only part of
// the grid the inverse computes. grid is caller scratch of length GridLen().
//
//fmm:hotpath
func (f *FFTM2L) ExtractCheck(acc []float64, scale float64, dst, grid []float64) {
	td := f.ops.Kern.TrgDim()
	hl := f.hl
	for t := 0; t < td; t++ {
		o := t * 2 * hl
		f.rplan.RInverse(acc[o:o+hl], acc[o+hl:o+2*hl], grid, f.n/2)
		for i, gi := range f.surfIdx {
			dst[i*td+t] += scale * grid[gi]
		}
	}
}

// Hadamard accumulates one V-list interaction in frequency space on SoA
// half-spectrum panels: acc[t] += Σ_s tf[t·sd+s] ⊙ src[s], with acc of
// length td·2·hl, tf of td·sd·2·hl, and src of sd·2·hl. It is the list
// kernel run over a one-interaction list.
//
//fmm:hotpath
func Hadamard(acc, tf, src []float64, sd, td, hl int) {
	var buf [9]hadamardOp // a 3×3 kernel's component pairs
	hadamardRun(appendHadamardOps(buf[:0], acc, tf, src, sd, td, hl), hl)
}

// hadamardOp is one complex multiply-accumulate of the V-list list kernel,
// a (accumulator, translation, source) triple of component spectra: each a
// re panel of hl elements followed by its im panel, 2·hl in all.
// hadamard_amd64.s reads the three slices' data pointers at byte offsets 0,
// 24 and 48.
type hadamardOp struct{ a, t, s []float64 }

// hadamardBody is one vector body of the list kernel: it covers the leading
// multiple of its lane count of elements [c0, c1) and returns how many.
type hadamardBody struct {
	name string
	ok   bool // the CPU runs it
	run  func(ops []hadamardOp, c0, c1, hl int) int
}

// appendHadamardOps appends the td·sd triples of one interaction to ops in
// Hadamard's accumulation order: target component t, then source component
// s.
//
//fmm:hotpath
func appendHadamardOps(ops []hadamardOp, acc, tf, src []float64, sd, td, hl int) []hadamardOp {
	for t := 0; t < td; t++ {
		a := acc[t*2*hl : (t+1)*2*hl]
		for s := 0; s < sd; s++ {
			o := (t*sd + s) * 2 * hl
			ops = append(ops, hadamardOp{a, tf[o : o+2*hl], src[s*2*hl : (s+1)*2*hl]}) //fmm:allow hotalloc amortized growth of per-worker vops scratch
		}
	}
	return ops
}

// hadamardChunk is how many half-spectrum elements the list kernel takes
// through every triple of a list before it moves on. A Laplace order-6
// parent-direction run touches 27 translation, 8 source and 8 accumulator
// spectra; at 64 elements their 43 × 2 panels × 64 × 8 B = 44 KB chunks fit
// a 48 KB L1d together, so each chunk is read from L2 once and every later
// triple finds it in L1. A multiple of eight, so that a chunk is whole
// vector iterations of either body.
const hadamardChunk = 64

// hadamardRun applies the triples of ops, in order, to the whole half
// spectrum, one hadamardChunk at a time: for every element the triples
// touching it arrive in list order, whatever the chunking, so the result is
// bit for bit the one of the triples applied one after the other.
//
//fmm:hotpath
func hadamardRun(ops []hadamardOp, hl int) {
	if hl <= 0 {
		return
	}
	// The vector bodies index the panels blindly.
	for i := range ops {
		_, _, _ = ops[i].a[2*hl-1], ops[i].t[2*hl-1], ops[i].s[2*hl-1]
	}
	for c0 := 0; c0 < hl; c0 += hadamardChunk {
		hadamardList(ops, c0, min(c0+hadamardChunk, hl), hl)
	}
}

// hadamardList is the list kernel over elements [c0, c1) of the half
// spectrum: for each triple of ops in order, (ar,ai) += (tr,ti)·(sr,si)
// elementwise, the im panels at +hl. On amd64 the widest vector body the CPU
// runs (hadamard_amd64.s: eight lanes on AVX-512, four on AVX2) covers the
// leading multiple of its width; hadamardListGo finishes the tail, and is
// the whole kernel on other architectures, under -tags purego and on CPUs
// without AVX2. Every body evaluates hadamardGo's expression with the same
// roundings — separate multiplies, subtract and adds, no FMA — so which of
// them ran is not observable in the result.
//
//fmm:hotpath
func hadamardList(ops []hadamardOp, c0, c1, hl int) {
	hadamardListGo(ops, c0+hadamardListVec(ops, c0, c1, hl), c1, hl)
}

// hadamardListGo is the portable list body over elements [c0, c1).
//
//fmm:hotpath
func hadamardListGo(ops []hadamardOp, c0, c1, hl int) {
	if c0 >= c1 {
		return
	}
	for i := range ops {
		a, t, s := ops[i].a, ops[i].t, ops[i].s
		hadamardGo(a[c0:c1], a[hl+c0:hl+c1], t[c0:c1], t[hl+c0:hl+c1], s[c0:c1], s[hl+c0:hl+c1], 0)
	}
}

// hadamardGo is the portable kernel over elements [i, len(ar)) of six
// equal-length panels. The leading reslices let the compiler drop the
// per-element bounds checks, and the two-wide unroll keeps both complex
// products in registers per iteration. Each element is one fixed expression,
// so the result is bit-identical to the scalar loop.
//
//fmm:hotpath
func hadamardGo(ar, ai, tr, ti, sr, si []float64, i int) {
	n := len(ar)
	ai = ai[:n]
	tr = tr[:n]
	ti = ti[:n]
	sr = sr[:n]
	si = si[:n]
	for ; i+1 < n; i += 2 {
		tr0, ti0, sr0, si0 := tr[i], ti[i], sr[i], si[i]
		tr1, ti1, sr1, si1 := tr[i+1], ti[i+1], sr[i+1], si[i+1]
		ar[i] += tr0*sr0 - ti0*si0
		ai[i] += tr0*si0 + ti0*sr0
		ar[i+1] += tr1*sr1 - ti1*si1
		ai[i+1] += tr1*si1 + ti1*sr1
	}
	if i < n {
		tr0, ti0, sr0, si0 := tr[i], ti[i], sr[i], si[i]
		ar[i] += tr0*sr0 - ti0*si0
		ai[i] += tr0*si0 + ti0*sr0
	}
}

func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// vOrder places one V interaction in its sibling group's evaluation order
// and names its translation: the direction from the target's parent to the
// source's parent (27 slots), then the source's octant in its parent, then
// the target's octant, and the dirSlot of the pair. Both are functions of the
// two same-level keys alone. For a fixed target the leading two fields
// identify the source, so per target the order is total, and it is the same
// order whichever siblings share the group.
func vOrder(src, trg morton.Key) (order, slot int) {
	sh := uint(morton.MaxDepth - src.Level()) // anchors in units of the octant side
	sx, sy, sz := int(src.X>>sh), int(src.Y>>sh), int(src.Z>>sh)
	tx, ty, tz := int(trg.X>>sh), int(trg.Y>>sh), int(trg.Z>>sh)
	pdir := ((sx>>1-tx>>1+1)*3+(sy>>1-ty>>1+1))*3 + (sz>>1 - tz>>1 + 1)
	so := (sx&1)<<2 | (sy&1)<<1 | sz&1
	to := (tx&1)<<2 | (ty&1)<<1 | tz&1
	return (pdir*8+so)*8 + to, dirSlot(tx-sx, ty-sy, tz-sz)
}

// vliFFTGroup is the one FFT V-list body, run over the targets of one
// sibling group: grp holds children of one parent (all that have V entries
// and are targets, or any part of them), each with its own frequency-space
// accumulator in the worker's scratch. The group's interactions are sorted
// by vOrder, so the ≤ 64 products between the group and the children of one
// neighbouring parent — one parent direction — are one run: they touch ≤ 27
// translation spectra, 8 source spectra and 8 accumulators, an L2-sized set,
// and go to the list kernel as one triple list, which takes every triple
// through one L1-sized chunk of the spectrum before the next, so a spectrum
// comes from L2 once per run rather than once per product. Then one inverse
// transform per target adds into e.DChk. Per target the accumulation order
// is vOrder's, a function of Morton keys only, so the result, bit for bit,
// does not depend on the worker count, the schedule or which siblings are
// present. A non-source octant's spectrum is all zeros, so skipping it
// (srcNode) is exact.
//
//fmm:hotpath
func (e *Engine) vliFFTGroup(grp []int32, f *FFTM2L, tb *vTable, spec [][]float64, s *evalScratch) {
	t := e.Tree
	var accOf [8]int32 // target octant → index into grp
	var count [8]int   // interactions per grp entry
	vs := s.vsort[:0]
	for k, i := range grp {
		n := &t.Nodes[i]
		for _, a := range n.V {
			if !e.srcNode(a) {
				continue
			}
			order, slot := vOrder(t.Nodes[a].Key, n.Key)
			accOf[order&7] = int32(k)
			count[k]++
			vs = append(vs, uint64(order)<<41|uint64(slot)<<32|uint64(a)) //fmm:allow hotalloc amortized growth of per-worker vsort scratch
		}
	}
	s.vsort = vs
	if len(vs) == 0 {
		return
	}
	slices.Sort(vs)
	sd, td := e.Ops.Kern.SrcDim(), e.Ops.Kern.TrgDim()
	hl, accLen := f.HalfLen(), f.AccLen()
	acc := s.fftAccs(len(grp), accLen)
	// One list per parent direction (vOrder/64): the ≤ 64 products with the
	// children of one neighbouring parent, in vOrder.
	for lo := 0; lo < len(vs); {
		ops, hi := s.vops[:0], lo
		for ; hi < len(vs) && vs[hi]>>47 == vs[lo]>>47; hi++ {
			v := vs[hi]
			k := int(accOf[v>>41&7])
			ops = appendHadamardOps(ops, acc[k*accLen:(k+1)*accLen], tb[v>>32&511], spec[int32(v)], sd, td, hl)
		}
		s.vops = ops
		hadamardRun(ops, hl)
		lo = hi
	}
	scale, grid := e.Ops.KernScale(t.Nodes[grp[0]].Key.Level()), s.grid(f.GridLen())
	for k, i := range grp {
		if count[k] > 0 {
			f.ExtractCheck(acc[k*accLen:(k+1)*accLen], scale, e.DChk[i], grid)
		}
	}
}

package fft

import "sync"

// PlanR3D performs 3-D DFTs of real-valued nx×ny×nz grids, exploiting the
// Hermitian symmetry X[-k] = conj(X[k]) of real input: only the non-redundant
// half spectrum along the innermost (z) axis is computed and stored, so a
// spectrum occupies nx·ny·(nz/2+1) complex entries instead of nx·ny·nz. The
// FMM's FFT-diagonalized V-list translation runs entirely on these half
// spectra — kernel grids and padded densities are real — which halves both
// the Hadamard flops and the live-spectrum memory of the translation phase.
//
// Spectra are stored as two separate float64 slices (re, im) of length
// HalfLen() each, indexed (ix*ny + iy)*hz + kz with hz = nz/2+1 — the
// structure-of-arrays panel form the translation micro-kernels stream, and
// the split-complex form Plan transforms in place: the y pass is one batched
// call per x-slab and the x pass one batched call over the whole panel pair.
//
// Both transforms take a support extent e for zero-padded data. A grid that
// is zero outside its corner [0,e)³ (clipped per axis) has all-zero z rows
// wherever ix >= e or iy >= e and all-zero y columns wherever ix >= e, so
// the forward transform skips them; an inverse whose result is wanted only
// on that corner skips the same rows and columns on the way back. The
// skipped inputs are exact zeros and the skipped outputs are never read, and
// z rows are kept or skipped as the packed pairs they are transformed in, so
// what is computed sees the arithmetic of the full transform and agrees with
// it to the last bit; e >= max(Nx, Ny, Nz) is the full transform. For the FMM's padded surface grids (e = n/2) this takes a
// 12³ transform from 240 row transforms to 144.
//
// A PlanR3D is safe for concurrent use: per-call scratch comes from a pool,
// never from mutable plan state.
type PlanR3D struct {
	Nx, Ny, Nz int
	// Hz is the half-spectrum extent of the z axis: Nz/2 + 1.
	Hz         int
	px, py, pz *Plan
	scratch    sync.Pool // *[]float64: two z rows, then batched-pass work
}

// NewPlanR3D creates a real-input 3-D plan for an nx×ny×nz grid.
func NewPlanR3D(nx, ny, nz int) *PlanR3D {
	if nx < 1 || ny < 1 || nz < 1 {
		panic("fft: invalid 3-D dimensions")
	}
	p := &PlanR3D{Nx: nx, Ny: ny, Nz: nz, Hz: nz/2 + 1}
	p.px = NewPlan(nx)
	if ny == nx {
		p.py = p.px
	} else {
		p.py = NewPlan(ny)
	}
	switch {
	case nz == nx:
		p.pz = p.px
	case nz == ny:
		p.pz = p.py
	default:
		p.pz = NewPlan(nz)
	}
	return p
}

// Size returns the real-grid point count Nx·Ny·Nz.
func (p *PlanR3D) Size() int { return p.Nx * p.Ny * p.Nz }

// HalfLen returns the half-spectrum length Nx·Ny·(Nz/2+1).
func (p *PlanR3D) HalfLen() int { return p.Nx * p.Ny * p.Hz }

// buffers returns pooled scratch split into the z pass's row pair (Nz each)
// and the work area of the 1-D passes.
func (p *PlanR3D) buffers() (buf *[]float64, tr, ti, work []float64) {
	nz := p.Nz
	buf, _ = p.scratch.Get().(*[]float64)
	if buf == nil {
		//fmm:allow hotalloc pool cold start; steady state reuses pooled scratch
		s := make([]float64, 2*nz+2*max(p.HalfLen(), nz))
		buf = &s
	}
	b := *buf
	return buf, b[:nz], b[nz : 2*nz], b[2*nz:]
}

// RForward computes the forward DFT of the real grid src (length Size()),
// writing the half spectrum into re and im (length HalfLen() each). src is
// not modified, is read only on the support corner [0,e)³ and is taken to be
// zero elsewhere. The z pass transforms two real rows (ix, iy), (ix, iy+1)
// per complex FFT — packed as x0 + i·x1 and separated by Hermitian symmetry
// — so the real transform costs roughly half of a full complex one.
//
//fmm:hotpath
func (p *PlanR3D) RForward(src []float64, re, im []float64, e int) {
	if len(src) != p.Size() || len(re) != p.HalfLen() || len(im) != p.HalfLen() {
		panic("fft: RForward length mismatch")
	}
	nx, ny, nz, hz := p.Nx, p.Ny, p.Nz, p.Hz
	ex, ey, ez := min(e, nx), min(e, ny), min(e, nz)
	buf, tr, ti, work := p.buffers()
	defer p.scratch.Put(buf)

	// z pass. With Z = F(x0 + i·x1), F(x0)[k] = (Z[k] + conj(Z[n−k]))/2 and
	// F(x1)[k] = (Z[k] − conj(Z[n−k]))/(2i). The unit of pruning is the row
	// pair: a supported row whose partner lies outside the support (odd e)
	// is packed with zeros and the partner's spectrum — zero up to the
	// rounding of the separation — is stored as the full transform stores it.
	ey2 := min((ey+1)&^1, ny)
	for ix := 0; ix < ex; ix++ {
		for iy := 0; iy < ey; iy += 2 {
			r := ix*ny + iy
			copy(tr, src[r*nz:r*nz+ez])
			clear(tr[ez:])
			clear(ti)
			if iy+1 < ey {
				copy(ti, src[(r+1)*nz:(r+1)*nz+ez])
			}
			p.pz.Forward(tr, ti, work, 1)
			o := r * hz
			for k, kc := 0, 0; k < hz; k, kc = k+1, nz-k-1 {
				a, b, c, d := tr[k], ti[k], tr[kc], ti[kc]
				re[o+k], im[o+k] = (a+c)/2, (b-d)/2
				if iy+1 < ny {
					re[o+hz+k], im[o+hz+k] = (b+d)/2, (c-a)/2
				}
			}
		}
		// The slab's other rows are zero rows of the z pass.
		clear(re[(ix*ny+ey2)*hz : (ix+1)*ny*hz])
		clear(im[(ix*ny+ey2)*hz : (ix+1)*ny*hz])
	}
	// y pass over the supported slabs; the others are zero slabs.
	slab := ny * hz
	for ix := 0; ix < ex; ix++ {
		p.py.Forward(re[ix*slab:(ix+1)*slab], im[ix*slab:(ix+1)*slab], work, hz)
	}
	clear(re[ex*slab:])
	clear(im[ex*slab:])
	p.px.Forward(re, im, work, slab)
}

// RInverse computes the inverse DFT (normalized by 1/(Nx·Ny·Nz)) of the
// Hermitian half spectrum (re, im) on the corner [0,e)³ of dst (length
// Size()); every other element of dst is left untouched. re and im are
// consumed: the x and y passes transform them in place. The spectrum must be
// Hermitian-consistent (e.g. produced by RForward, or a pointwise product of
// such spectra); the redundant half is reconstructed by symmetry and two
// real rows are recovered per complex transform, with the same row pairing
// as RForward.
//
//fmm:hotpath
func (p *PlanR3D) RInverse(re, im []float64, dst []float64, e int) {
	if len(dst) != p.Size() || len(re) != p.HalfLen() || len(im) != p.HalfLen() {
		panic("fft: RInverse length mismatch")
	}
	nx, ny, nz, hz := p.Nx, p.Ny, p.Nz, p.Hz
	ex, ey, ez := min(e, nx), min(e, ny), min(e, nz)
	buf, tr, ti, work := p.buffers()
	defer p.scratch.Put(buf)

	slab := ny * hz
	p.px.Backward(re, im, work, slab)
	for ix := 0; ix < ex; ix++ {
		p.py.Backward(re[ix*slab:(ix+1)*slab], im[ix*slab:(ix+1)*slab], work, hz)
	}
	// z pass: F⁻¹(Z0 + i·Z1) = x0 + i·x1 for Hermitian Z0, Z1. The partner
	// row is part of the packed transform wherever the grid has one, inside
	// the support or not, so that row (ix, iy) sees the same arithmetic for
	// every e; only its output is dropped.
	scale := 1 / float64(nx*ny*nz)
	for ix := 0; ix < ex; ix++ {
		for iy := 0; iy < ey; iy += 2 {
			r := ix*ny + iy
			o0, o1 := r*hz, r*hz // a last row of an odd Ny is its own partner
			if iy+1 < ny {
				o1 += hz
			}
			for k := 0; k < hz; k++ {
				r0, i0, r1, i1 := re[o0+k], im[o0+k], re[o1+k], im[o1+k]
				tr[k], ti[k] = r0-i1, i0+r1
				if k > 0 && k <= nz-hz { // Z[nz−k] = conj(Z[k]) for both rows
					tr[nz-k], ti[nz-k] = r0+i1, r1-i0
				}
			}
			p.pz.Backward(tr, ti, work, 1)
			d := dst[r*nz : r*nz+ez]
			for k := range d {
				d[k] = scale * tr[k]
			}
			if iy+1 < ey {
				d = dst[(r+1)*nz : (r+1)*nz+ez]
				for k := range d {
					d[k] = scale * ti[k]
				}
			}
		}
	}
}

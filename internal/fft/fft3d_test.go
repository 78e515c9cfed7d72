package fft

// Plan3D performs 3-D complex DFTs on nx×ny×nz grids stored in row-major
// order (index = (ix*ny + iy)*nz + iz), one gathered 1-D transform per row.
// It is the oracle PlanR3D is tested against: same 1-D body (itself checked
// against the naive DFT), none of the real-input packing, batching or
// pruning.
type Plan3D struct {
	Nx, Ny, Nz int
	px, py, pz *Plan
}

// NewPlan3D creates a 3-D plan for an nx×ny×nz grid.
func NewPlan3D(nx, ny, nz int) *Plan3D {
	return &Plan3D{Nx: nx, Ny: ny, Nz: nz, px: NewPlan(nx), py: NewPlan(ny), pz: NewPlan(nz)}
}

// Size returns the total number of grid points.
func (p *Plan3D) Size() int { return p.Nx * p.Ny * p.Nz }

// Forward computes the in-place forward 3-D DFT of x (length Nx*Ny*Nz).
func (p *Plan3D) Forward(x []complex128) { p.transform(x, false) }

// Inverse computes the in-place inverse 3-D DFT (normalized by 1/(Nx·Ny·Nz)).
func (p *Plan3D) Inverse(x []complex128) { p.transform(x, true) }

func (p *Plan3D) transform(x []complex128, inverse bool) {
	if len(x) != p.Size() {
		panic("fft: 3-D transform length mismatch")
	}
	nx, ny, nz := p.Nx, p.Ny, p.Nz
	// axis transforms the n-point rows x[base+j*stride], j < n.
	axis := func(pl *Plan, base, stride int) {
		n := pl.Len()
		re, im, work := make([]float64, n), make([]float64, n), make([]float64, 2*n)
		for j := range re {
			re[j], im[j] = real(x[base+j*stride]), imag(x[base+j*stride])
		}
		if inverse {
			pl.Backward(re, im, work, 1)
		} else {
			pl.Forward(re, im, work, 1)
		}
		for j := range re {
			x[base+j*stride] = complex(re[j], im[j])
			if inverse {
				x[base+j*stride] /= complex(float64(n), 0)
			}
		}
	}
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			axis(p.pz, (ix*ny+iy)*nz, 1)
		}
	}
	for ix := 0; ix < nx; ix++ {
		for iz := 0; iz < nz; iz++ {
			axis(p.py, ix*ny*nz+iz, nz)
		}
	}
	for iy := 0; iy < ny; iy++ {
		for iz := 0; iz < nz; iz++ {
			axis(p.px, iy*nz+iz, ny*nz)
		}
	}
}

// Convolve3D returns the circular convolution of a and b on the plan's grid
// (both length Nx*Ny*Nz), computed via forward transforms, a Hadamard
// product, and an inverse transform. Inputs are not modified.
func (p *Plan3D) Convolve3D(a, b []complex128) []complex128 {
	fa := append([]complex128(nil), a...)
	fb := append([]complex128(nil), b...)
	p.Forward(fa)
	p.Forward(fb)
	for i := range fa {
		fa[i] *= fb[i]
	}
	p.Inverse(fa)
	return fa
}

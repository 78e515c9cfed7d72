package kifmm

import (
	"testing"

	"kifmm/internal/kernel"
)

// BenchmarkVList compares the V-list phase implementations on the standard
// 30k-point ellipsoid tree (Laplace, order 6):
//
//	fft   — Hermitian half spectra, per-target Hadamard micro-kernels,
//	        process-wide translation cache.
//	dense — the dense M2L matrix oracle.
//
// Translation spectra are warmed before the timer so the loop measures
// steady-state evaluation, not spectrum builds.
func BenchmarkVList(b *testing.B) {
	e := nearFieldEngine(b, kernel.Laplace{})

	b.Run("fft", func(b *testing.B) {
		e.UseFFTM2L = true
		e.VLI() // warm spectra + buffers
		zeroDChk(e)
		b.ReportAllocs()
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			e.VLI()
			zeroDChk(e)
		}
	})

	b.Run("dense", func(b *testing.B) {
		e.UseFFTM2L = false
		e.VLI() // warm M2L matrices
		zeroDChk(e)
		b.ReportAllocs()
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			e.VLI()
			zeroDChk(e)
		}
		e.UseFFTM2L = true
	})
}

func zeroDChk(e *Engine) {
	for i := range e.DChk {
		d := e.DChk[i]
		for x := range d {
			d[x] = 0
		}
	}
}

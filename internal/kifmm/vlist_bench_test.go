package kifmm

import (
	"testing"

	"kifmm/internal/kernel"
)

// BenchmarkVList compares the V-list phase implementations on the standard
// 30k-point ellipsoid tree (Laplace, order 6):
//
//	fft   — Hermitian half spectra, the per-sibling-group Hadamard body,
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

// BenchmarkHadamard puts the micro-kernel on the roofline in its two
// regimes, order-6 Laplace panels (hl = 1008, 16 KB per spectrum):
//
//	resident — 4 translation + 2 source spectra and one accumulator, the
//	           per-parent-pair working set of vliFFTGroup, L2-resident;
//	streamed — 256 source + 64 translation spectra (5 MB) walked with a
//	           stride, so both operands of a product come from beyond L2.
//
// asm is the dispatching kernel, go the portable loop alone. It reports ns
// per product and the GB/s over the four panels read and the accumulator
// read and written (6 panel passes, 48 KB per product).
func BenchmarkHadamard(b *testing.B) {
	const hl = 1008
	spectra := func(n int) [][]float64 {
		s := make([][]float64, n)
		for i := range s {
			s[i] = make([]float64, 2*hl)
			for j := range s[i] {
				s[i][j] = float64((i+j)%13) - 6
			}
		}
		return s
	}
	regimes := []struct {
		name       string
		nSrc, nDir int
	}{{"resident", 2, 4}, {"streamed", 256, 64}}
	kernels := []struct {
		name string
		fn   func(ar, ai, tr, ti, sr, si []float64)
	}{
		{"asm", hadamardPanels},
		{"go", func(ar, ai, tr, ti, sr, si []float64) { hadamardGo(ar, ai, tr, ti, sr, si, 0) }},
	}
	for _, r := range regimes {
		srcs, tfs := spectra(r.nSrc), spectra(r.nDir)
		acc := make([]float64, 2*hl)
		for _, k := range kernels {
			b.Run(r.name+"/"+k.name, func(b *testing.B) {
				if k.name == "asm" && !kernel.UseAVX2 {
					b.Skip("no vector kernel: same as go")
				}
				for i := 0; i < b.N; i++ {
					tf, sp := tfs[i%r.nDir], srcs[(i*7)%r.nSrc]
					k.fn(acc[:hl], acc[hl:], tf[:hl], tf[hl:], sp[:hl], sp[hl:])
					if i&1023 == 1023 {
						clear(acc) // keep the sums finite over long runs
					}
				}
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(ns, "ns/product")
				b.ReportMetric(6*8*hl/ns, "GB/s")
			})
		}
	}
}

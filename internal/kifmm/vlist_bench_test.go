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

// BenchmarkHadamard puts the list kernel on the roofline in three regimes,
// order-6 Laplace panels (hl = 1008, 16 KB per spectrum):
//
//	resident — one product at a time over 4 translation + 2 source spectra
//	           and one accumulator (112 KB), L2-resident;
//	streamed — one product at a time over 256 source + 64 translation
//	           spectra (5 MB) walked with a stride, so both operands of a
//	           product come from beyond L2;
//	block    — one parent-direction run as vliFFTGroup hands it over: the
//	           interior 8×8 pattern's 64 products over 27 translation,
//	           8 source and 8 accumulator spectra (688 KB), one
//	           hadamardChunk of every triple at a time.
//
// Each body runs directly (avx512, avx2 where the CPU has them; go, the
// portable loop alone). It reports ns per product and the GB/s over the
// four panels read and the accumulator read and written (6 panel passes,
// 48 KB per product).
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
	report := func(b *testing.B, products int) {
		ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(products)
		b.ReportMetric(ns, "ns/product")
		b.ReportMetric(6*8*hl/ns, "GB/s")
	}
	for _, r := range []struct {
		name       string
		nSrc, nDir int
	}{{"resident", 2, 4}, {"streamed", 256, 64}} {
		srcs, tfs := spectra(r.nSrc), spectra(r.nDir)
		acc := make([]float64, 2*hl)
		for _, body := range hadamardListBodies() {
			b.Run(r.name+"/"+body.name, func(b *testing.B) {
				if !body.ok {
					b.Skipf("this CPU lacks the %s body", body.name)
				}
				ops := make([]hadamardOp, 1)
				for i := 0; i < b.N; i++ {
					ops[0] = hadamardOp{acc, tfs[i%r.nDir], srcs[(i*7)%r.nSrc]}
					runHadamardBody(body, ops, 0, hl, hl)
					if i&1023 == 1023 {
						clear(acc) // keep the sums finite over long runs
					}
				}
				report(b, 1)
			})
		}
	}
	// Accumulators are contiguous, as in the worker's fftAccs buffer;
	// translation and source spectra are separate allocations, as in the
	// translation cache and the V row's spectrum free list.
	srcs, tfs, accs := spectra(8), spectra(27), make([][]float64, 8)
	accBuf := make([]float64, 8*2*hl)
	for k := range accs {
		accs[k] = accBuf[k*2*hl : (k+1)*2*hl]
	}
	var ops []hadamardOp
	for _, tr := range interiorRun() {
		ops = append(ops, hadamardOp{accs[tr[0]], tfs[tr[1]], srcs[tr[2]]})
	}
	for _, body := range hadamardListBodies() {
		b.Run("block/"+body.name, func(b *testing.B) {
			if !body.ok {
				b.Skipf("this CPU lacks the %s body", body.name)
			}
			for i := 0; i < b.N; i++ {
				for c0 := 0; c0 < hl; c0 += hadamardChunk {
					runHadamardBody(body, ops, c0, min(c0+hadamardChunk, hl), hl)
				}
				if i&15 == 15 {
					clear(accBuf)
				}
			}
			report(b, len(ops))
		})
	}
}

// Package perfmodel holds the modelled machine's host and network rates and
// implements the evaluation half of the paper's complexity model (Section
// III-D) as a calibratable performance model:
//
//	T_eval(n, p) ≈ α·(n/p) + β·√p·(n/p)^(2/3)
//
// The coefficients are fit by linear least squares to small-scale runs (the
// in-process MPI runtime, charged at the modelled rates below), and the
// fitted model extrapolates the timings to the paper's machine scale (65,536
// ranks, 150K points/rank) — the substitution for hardware we cannot run.
// The set-up half is not modelled: its only measure is the wall clock of
// ranks sharing one host's cores, and a fit to that does not repeat.
package perfmodel

import (
	"fmt"
	"math"

	"kifmm/internal/linalg"
)

// The modelled machine's host and network rates, the only place they are
// set. Measured wall-clock cannot show p-rank scaling when every rank shares
// one host's cores, so the experiments charge each rank's measured flops and
// messages at these rates instead. The particle loops run at the paper's
// sustained 0.5 GFlop/s per core; the dense mat-vecs (U2U, D2D, the downward
// solves) and the cache-friendly per-octant FFTs that the device
// configuration keeps on the host run faster; the interconnect is
// Cray-SeaStar-like.
const (
	hostFlops    = 0.5e9 // flop/s, particle loops
	hostMatFlops = 3e9   // flop/s, dense mat-vec
	hostFFTFlops = 2e9   // flop/s, per-octant FFTs
	netBytes     = 2e9   // bytes/s
	netLatency   = 5e-6  // seconds per message
)

// Work is what one rank's host and network are charged for.
type Work struct {
	Flops    int64 // particle-loop flops
	MatFlops int64 // dense mat-vec flops
	FFTFlops int64 // FFT flops
	Bytes    int64 // bytes sent
	Msgs     int64 // messages sent
}

// Seconds returns the modelled host and network time of w.
func (w Work) Seconds() float64 {
	return float64(w.Flops)/hostFlops +
		float64(w.MatFlops)/hostMatFlops +
		float64(w.FFTFlops)/hostFFTFlops +
		float64(w.Bytes)/netBytes +
		float64(w.Msgs)*netLatency
}

// Sample is one measured configuration.
type Sample struct {
	N int     // global point count
	P int     // ranks
	T float64 // measured seconds
}

// Terms evaluates the model's basis functions for a configuration.
type Terms func(n, p float64) []float64

// EvalTerms is the evaluation-phase basis: local work and the
// reduce-scatter's √p·m term with m ≈ (n/p)^(2/3).
func EvalTerms(n, p float64) []float64 {
	g := n / p
	return []float64{g, math.Sqrt(p) * math.Pow(g, 2.0/3.0)}
}

// Model is a fitted linear-in-coefficients performance model.
type Model struct {
	Terms  Terms
	Coeffs []float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
}

// Fit solves the least-squares problem for the given basis over the
// samples, constrained to NONNEGATIVE coefficients (times are sums of
// nonnegative cost terms; an unconstrained fit on few noisy samples can
// produce negative coefficients that explode under extrapolation). Uses a
// simple active-set scheme: fit, zero out the most negative coefficient,
// refit the rest. At least as many samples as basis terms are required.
func Fit(terms Terms, samples []Sample) (*Model, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("perfmodel: no samples")
	}
	k := len(terms(float64(samples[0].N), float64(samples[0].P)))
	if len(samples) < k {
		return nil, fmt.Errorf("perfmodel: %d samples for %d terms", len(samples), k)
	}
	b := make([]float64, len(samples))
	rows := make([][]float64, len(samples))
	for i, s := range samples {
		rows[i] = terms(float64(s.N), float64(s.P))
		b[i] = s.T
	}
	active := make([]bool, k)
	for j := range active {
		active[j] = true
	}
	coeffs := make([]float64, k)
	for {
		var idx []int
		for j := 0; j < k; j++ {
			if active[j] {
				idx = append(idx, j)
			}
		}
		if len(idx) == 0 {
			break
		}
		a := linalg.NewMat(len(samples), len(idx))
		for i := range rows {
			for jj, j := range idx {
				a.Set(i, jj, rows[i][j])
			}
		}
		sub := make([]float64, len(idx))
		linalg.PinvTruncated(a, 1e-12).MulVec(sub, b)
		worst, worstVal := -1, 0.0
		for jj, v := range sub {
			if v < worstVal {
				worst, worstVal = idx[jj], v
			}
		}
		for j := range coeffs {
			coeffs[j] = 0
		}
		for jj, j := range idx {
			coeffs[j] = sub[jj]
		}
		if worst < 0 {
			break
		}
		active[worst] = false
	}

	// R².
	var mean float64
	for _, v := range b {
		mean += v
	}
	mean /= float64(len(b))
	var ssRes, ssTot float64
	for i, s := range samples {
		pred := dot(coeffs, terms(float64(s.N), float64(s.P)))
		ssRes += (b[i] - pred) * (b[i] - pred)
		ssTot += (b[i] - mean) * (b[i] - mean)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return &Model{Terms: terms, Coeffs: coeffs, R2: r2}, nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Predict returns the modeled seconds for a configuration.
func (m *Model) Predict(n, p int) float64 {
	return dot(m.Coeffs, m.Terms(float64(n), float64(p)))
}

// PaperScale describes the headline Kraken configuration of Table II.
type PaperScale struct {
	Ranks         int
	PointsPerRank int
}

// KrakenTableII returns the paper's largest configuration: 65,536 ranks at
// 150K points each (30 billion Stokes unknowns).
func KrakenTableII() PaperScale {
	return PaperScale{Ranks: 65536, PointsPerRank: 150_000}
}

// Extrapolate evaluates the fitted model at a paper-scale configuration.
func (m *Model) Extrapolate(sc PaperScale) float64 {
	return m.Predict(sc.PointsPerRank*sc.Ranks, sc.Ranks)
}

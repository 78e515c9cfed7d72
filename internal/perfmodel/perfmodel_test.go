package perfmodel

import (
	"math"
	"math/rand"
	"testing"
)

func synthSamples(terms Terms, coeffs []float64, noise float64, rng *rand.Rand) []Sample {
	var out []Sample
	for _, p := range []int{1, 2, 4, 8, 16, 32} {
		for _, perRank := range []int{1000, 5000, 20000} {
			n := p * perRank
			t := dot(coeffs, terms(float64(n), float64(p)))
			t *= 1 + noise*rng.NormFloat64()
			out = append(out, Sample{N: n, P: p, T: t})
		}
	}
	return out
}

func TestFitRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	want := []float64{3e-6, 5e-5}
	samples := synthSamples(EvalTerms, want, 0, rng)
	m, err := Fit(EvalTerms, samples)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(m.Coeffs[i]-want[i]) > 1e-9*(1+want[i]) {
			t.Fatalf("coeff %d: got %g want %g", i, m.Coeffs[i], want[i])
		}
	}
	if m.R2 < 0.999999 {
		t.Fatalf("noiseless fit R² = %v", m.R2)
	}
}

func TestFitWithNoiseStillGood(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Coefficients sized so every term contributes comparably over the
	// sample grid — otherwise a 3% noise floor swamps the small terms and
	// the recovery check is meaningless.
	want := []float64{3e-6, 5e-5}
	samples := synthSamples(EvalTerms, want, 0.03, rng)
	m, err := Fit(EvalTerms, samples)
	if err != nil {
		t.Fatal(err)
	}
	if m.R2 < 0.95 {
		t.Fatalf("noisy fit R² = %v", m.R2)
	}
	for i := range want {
		if math.Abs(m.Coeffs[i]-want[i]) > 0.3*want[i] {
			t.Fatalf("coeff %d off: got %g want %g", i, m.Coeffs[i], want[i])
		}
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(EvalTerms, nil); err == nil {
		t.Fatalf("expected error for no samples")
	}
	if _, err := Fit(EvalTerms, []Sample{{N: 100, P: 1, T: 1}}); err == nil {
		t.Fatalf("expected error for underdetermined fit")
	}
}

func TestPredictMonotoneInN(t *testing.T) {
	m := &Model{Terms: EvalTerms, Coeffs: []float64{1e-6, 1e-5}}
	if m.Predict(1000_000, 8) <= m.Predict(100_000, 8) {
		t.Fatalf("prediction should grow with n")
	}
}

func TestWorkSeconds(t *testing.T) {
	// One second of each: 0.5 GFlop of particle loops, 3 GFlop of mat-vec,
	// 2 GFlop of FFTs, 2 GB over the wire and 200 000 message latencies.
	for _, w := range []Work{
		{Flops: 5e8}, {MatFlops: 3e9}, {FFTFlops: 2e9}, {Bytes: 2e9}, {Msgs: 200_000},
	} {
		if got := w.Seconds(); math.Abs(got-1) > 1e-12 {
			t.Fatalf("%+v: %v s, want 1", w, got)
		}
	}
	if got := (Work{Flops: 5e8, MatFlops: 3e9, Msgs: 200_000}).Seconds(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("terms do not add: %v s, want 3", got)
	}
}

func TestKrakenExtrapolationShape(t *testing.T) {
	sc := KrakenTableII()
	if sc.Ranks != 65536 || sc.PointsPerRank != 150000 {
		t.Fatalf("wrong paper configuration")
	}
	// With eval coefficients of the right order, the extrapolated eval time
	// must land in the paper's regime (tens to ~hundred of seconds).
	m := &Model{Terms: EvalTerms, Coeffs: []float64{6e-4, 2e-5}}
	sec := m.Extrapolate(sc)
	if sec < 10 || sec > 1000 {
		t.Fatalf("extrapolated eval %v s outside plausible window", sec)
	}
}

func TestFitNeverReturnsNegativeCoefficients(t *testing.T) {
	// Noisy, nearly-collinear samples used to produce negative coefficients
	// under plain least squares; the constrained fit must not.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		var samples []Sample
		for _, p := range []int{1, 2, 4, 8} {
			n := 5000 * p
			tv := 2.5 + 0.5*rng.NormFloat64() // flat/noisy timings
			samples = append(samples, Sample{N: n, P: p, T: tv})
		}
		m, err := Fit(EvalTerms, samples)
		if err != nil {
			t.Fatal(err)
		}
		for j, c := range m.Coeffs {
			if c < 0 {
				t.Fatalf("trial %d: negative coefficient %d: %g", trial, j, c)
			}
		}
		if m.Extrapolate(KrakenTableII()) < 0 {
			t.Fatalf("negative extrapolation")
		}
	}
}

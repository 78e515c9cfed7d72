// Package experiments regenerates every table and figure of the paper's
// evaluation section at laptop scale, plus the calibrated extrapolations to
// machine scale. Each experiment returns a typed result with a Format
// method printing the same rows/series the paper reports; the cmd/fmmbench
// CLI and the repository's benchmark suite are thin wrappers around this
// package.
//
// Experiment ids (DESIGN.md §4):
//
//	table2    — per-phase Max/Avg time & flops (Table II)
//	table3    — single-device points-per-box sweep (Table III)
//	fig3      — strong scaling, uniform & nonuniform (Figure 3)
//	fig4      — weak scaling + setup:evaluation ratio (Figure 4)
//	fig5      — flops-per-rank variance (Figure 5)
//	fig6      — device weak scaling vs CPU-only (Figure 6)
//	alg3bound — Algorithm 3 traffic vs the m(3√p−2) bound
//	ablations — owner-based reduction and dense-M2L comparisons
package experiments

import (
	"fmt"
	"strings"
	"time"

	"kifmm/internal/diag"
	"kifmm/internal/geom"
	"kifmm/internal/kernel"
	"kifmm/internal/kifmm"
	"kifmm/internal/mpi"
	"kifmm/internal/parfmm"
	"kifmm/internal/perfmodel"
)

// Options configures an experiment run. Zero values select scaled-down
// defaults that finish in seconds on a laptop.
type Options struct {
	// N is the global point count (strong scaling, GPU sweep).
	N int
	// PerRank is the per-rank point count (weak scaling).
	PerRank int
	// Ps are the rank counts to sweep (must be powers of two).
	Ps []int
	// Q is the points-per-box parameter.
	Q int
	// Workers bounds host parallelism per rank.
	Workers int
	// Seed fixes the particle distributions.
	Seed int64
}

func (o *Options) defaults() {
	if o.PerRank == 0 {
		o.PerRank = 4000
	}
	if len(o.Ps) == 0 {
		o.Ps = []int{1, 2, 4, 8}
	}
	if o.Q == 0 {
		o.Q = 50
	}
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.Seed == 0 {
		o.Seed = 2009
	}
}

// runDistributed evaluates the FMM for one (distribution, n, p)
// configuration and returns all per-rank results.
func runDistributed(dist geom.Distribution, n, p int, cfg parfmm.Config, seed int64) []*parfmm.Result {
	results := make([]*parfmm.Result, p)
	mpi.Run(p, func(c *mpi.Comm) {
		pts := geom.GenerateChunk(dist, n, seed, c.Rank(), p)
		den := make([]float64, len(pts)*cfg.Spec.Ops.Kern.SrcDim())
		for i := range den {
			den[i] = 1
		}
		results[c.Rank()] = parfmm.Evaluate(c, pts, den, cfg)
	})
	return results
}

// profiles extracts the per-rank profiles.
func profiles(results []*parfmm.Result) []*diag.Profile {
	out := make([]*diag.Profile, len(results))
	for i, r := range results {
		out[i] = r.Prof
	}
	return out
}

// maxAvg reduces one phase across ranks.
func maxAvg(results []*parfmm.Result, phase string) (mx, avg time.Duration) {
	var sum time.Duration
	for _, r := range results {
		t := r.Prof.Time(phase)
		if t > mx {
			mx = t
		}
		sum += t
	}
	return mx, sum / time.Duration(len(results))
}

// ScalingPoint is one sweep point of a scaling study.
type ScalingPoint struct {
	P        int
	N        int
	SetupMax time.Duration
	SetupAvg time.Duration
	SortAvg  time.Duration
	EvalAvg  time.Duration
	// ModelEvalAvg/ModelEvalMax are per-rank modeled evaluation times: each
	// rank's measured flops and evaluation traffic charged at perfmodel's
	// host and network rates. Measured wall-clock cannot show p-rank
	// scaling when every rank shares the host's cores.
	ModelEvalAvg float64
	ModelEvalMax float64
	Efficiency   float64 // from modeled times, relative to the first point
	SetupFrac    float64 // setup time / evaluation time
	SortFrac     float64 // sort share of setup
	TotalFlops   int64
}

func scalingPoint(results []*parfmm.Result, p, n int) ScalingPoint {
	sp := ScalingPoint{P: p, N: n}
	sp.SetupMax, sp.SetupAvg = maxAvg(results, diag.PhaseSetup)
	_, sp.SortAvg = maxAvg(results, diag.PhaseSort)
	_, sp.EvalAvg = maxAvg(results, diag.PhaseTotalEval)
	var modelSum float64
	for _, r := range results {
		f := r.Prof.Flops(diag.PhaseComp)
		sp.TotalFlops += f
		model := perfmodel.Work{Flops: f, Bytes: r.EvalCommBytes, Msgs: r.EvalCommMsgs}.Seconds()
		modelSum += model
		if model > sp.ModelEvalMax {
			sp.ModelEvalMax = model
		}
	}
	sp.ModelEvalAvg = modelSum / float64(len(results))
	if sp.EvalAvg > 0 {
		sp.SetupFrac = float64(sp.SetupAvg) / float64(sp.EvalAvg)
	}
	if sp.SetupAvg > 0 {
		sp.SortFrac = float64(sp.SortAvg) / float64(sp.SetupAvg)
	}
	return sp
}

// setEfficiency sets each point's Efficiency relative to the first from the
// modeled per-rank times: E = T₀·p₀/(T·p) at fixed N (strong scaling) and
// E = T₀/T at fixed N/p (weak scaling).
func setEfficiency(pts []ScalingPoint, weak bool) {
	cost := func(s ScalingPoint) float64 {
		if weak {
			return s.ModelEvalAvg
		}
		return s.ModelEvalAvg * float64(s.P)
	}
	if len(pts) == 0 || pts[0].ModelEvalAvg <= 0 {
		return
	}
	t0 := cost(pts[0])
	for i := range pts {
		pts[i].Efficiency = t0 / cost(pts[i])
	}
}

func formatScaling(title string, pts []ScalingPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%6s %10s %12s %12s %14s %14s %6s\n",
		"p", "N", "setup(avg)", "setup(max)", "eval(avg mdl)", "eval(max mdl)", "eff")
	for _, s := range pts {
		fmt.Fprintf(&b, "%6d %10d %12.3f %12.3f %14.3f %14.3f %6.2f\n",
			s.P, s.N, s.SetupAvg.Seconds(), s.SetupMax.Seconds(),
			s.ModelEvalAvg, s.ModelEvalMax, s.Efficiency)
	}
	return b.String()
}

// baseConfig is the balanced distributed configuration of the experiments:
// kern at surface order p, on the process-wide operators.
func baseConfig(o Options, kern kernel.Kernel, p int) parfmm.Config {
	ops := kifmm.SharedOperators.Get(kern, p, 1e-9, o.Workers)
	return parfmm.Config{Q: o.Q, LoadBalance: true, Spec: kifmm.EngineSpec{Ops: ops, Workers: o.Workers}}
}

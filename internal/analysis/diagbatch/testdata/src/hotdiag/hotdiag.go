package hotdiag

import "diag"

// PhaseBody takes per-item counters inside a hot function: flagged.
//
//fmm:hotpath
func PhaseBody(p *diag.Profile, work []float64) {
	for i := range work {
		work[i] *= 2
		p.AddFlops("scale", 1)   // want `per-item diag.Profile.AddFlops in hot path`
		p.AddCounter("items", 1) // want `per-item diag.Profile.AddCounter in hot path`
	}
	p.AddTime("phase", 1) // want `per-item diag.Profile.AddTime in hot path`
	stop := p.Start("x")  // want `per-item diag.Profile.Start in hot path`
	stop()
}

// Batched merges once through the batch API: the sanctioned shape.
//
//fmm:hotpath
func Batched(p *diag.Profile, work []float64, names []string, ns []int64) {
	for i := range work {
		work[i] *= 2
		ns[0]++
	}
	p.Merge(names, nil, ns, nil, nil)
}

// CoarseTask keeps a justified per-task counter.
//
//fmm:hotpath
func CoarseTask(p *diag.Profile) {
	p.AddCounter("tasks", 1) //fmm:allow diagbatch one call per task, not per octant
}

// Cold is unannotated: per-item counters are fine outside hot paths.
func Cold(p *diag.Profile) {
	p.AddFlops("setup", 10)
}

package kifmm

import (
	"context"
	"fmt"
	"testing"

	"kifmm/internal/kernel"
	"kifmm/internal/octree"
)

// rowFlopsPinned is each row's flops of one evaluation of wxTrees, by tree,
// kernel and V mode, in row order (S2U, U2U, V, X, D2D, W, D2T, U), as
// recorded when every body still counted its own.
var rowFlopsPinned = map[string][numRows]int64{
	"plan/laplace/fft=true":        {3716160, 2301824, 29480960, 6037584, 4609920, 6037584, 1960000, 4271792},
	"plan/laplace/fft=false":       {3716160, 2301824, 72228352, 6037584, 4609920, 6037584, 1960000, 4271792},
	"plan/stokes/fft=true":         {22105440, 20716416, 265328640, 19406520, 41489280, 19406520, 6300000, 13730760},
	"plan/stokes/fft=false":        {22105440, 20716416, 650055168, 19406520, 41489280, 19406520, 6300000, 13730760},
	"plan/yukawa(5)/fft=true":      {4556160, 2301824, 29480960, 8625120, 4609920, 8625120, 2800000, 6102560},
	"plan/yukawa(5)/fft=false":     {4556160, 2301824, 72228352, 8625120, 4609920, 8625120, 2800000, 6102560},
	"exchange/laplace/fft=true":    {3716160, 2301824, 29480960, 6037584, 4609920, 6037584, 1960000, 4271792},
	"exchange/laplace/fft=false":   {3716160, 2301824, 72228352, 6037584, 4609920, 6037584, 1960000, 4271792},
	"exchange/stokes/fft=true":     {22105440, 20716416, 265328640, 19406520, 41489280, 19406520, 6300000, 13730760},
	"exchange/stokes/fft=false":    {22105440, 20716416, 650055168, 19406520, 41489280, 19406520, 6300000, 13730760},
	"exchange/yukawa(5)/fft=true":  {4556160, 2301824, 29480960, 8625120, 4609920, 8625120, 2800000, 6102560},
	"exchange/yukawa(5)/fft=false": {4556160, 2301824, 72228352, 8625120, 4609920, 8625120, 2800000, 6102560},
	"planat/laplace/fft=true":      {2725968, 2433536, 14284800, 2862384, 3982720, 2950192, 973728, 943936},
	"planat/laplace/fft=false":     {2725968, 2433536, 34997760, 2862384, 3982720, 2950192, 973728, 943936},
	"planat/stokes/fft=true":       {17071992, 21901824, 128563200, 9200520, 35844480, 9482760, 3129840, 3034080},
	"planat/stokes/fft=false":      {17071992, 21901824, 314979840, 9200520, 35844480, 9482760, 3129840, 3034080},
	"planat/yukawa(5)/fft=true":    {3278688, 2433536, 14284800, 4089120, 3982720, 4214560, 1391040, 1348480},
	"planat/yukawa(5)/fft=false":   {3278688, 2433536, 34997760, 4089120, 3982720, 4214560, 1391040, 1348480},
	"let/laplace/fft=true":         {2155216, 4515840, 50237440, 5541312, 4697728, 5673024, 1176784, 3033212},
	"let/laplace/fft=false":        {2155216, 4515840, 123081728, 5541312, 4697728, 5673024, 1176784, 3033212},
	"let/stokes/fft=true":          {12588408, 40642560, 452136960, 17811360, 42279552, 18234720, 3782520, 9749610},
	"let/stokes/fft=false":         {12588408, 40642560, 1107735552, 17811360, 42279552, 18234720, 3782520, 9749610},
	"let/yukawa(5)/fft=true":       {2659552, 4515840, 50237440, 7916160, 4697728, 8104320, 1681120, 4333160},
	"let/yukawa(5)/fft=false":      {2659552, 4515840, 123081728, 7916160, 4697728, 8104320, 1681120, 4333160},
}

// TestRowFlopsPinned holds one evaluation's flops, row by row, to
// rowFlopsPinned: each of wxTrees (a plan's tree as one graph and as a rank's
// two, a split-role union tree, a rank's local essential tree) for every
// kernel, with the FFT and the dense V row, at 1 and 2 workers. It is the
// oracle of the schedule's flop totals that does not share their code.
func TestRowFlopsPinned(t *testing.T) {
	for _, tc := range wxTrees(t) {
		for _, kern := range []kernel.Kernel{kernel.Laplace{}, kernel.Stokes{}, kernel.Yukawa{Lambda: 5}} {
			ops := NewOperators(kern, 4, 1e-9)
			for _, fft := range []bool{true, false} {
				label := fmt.Sprintf("%s/%s/fft=%v", tc.name, kern.Name(), fft)
				for _, workers := range []int{1, 2} {
					e := NewEngine(ops, tc.tree)
					e.UseFFTM2L, e.Workers = fft, workers
					e.SetSplitRoles(tc.nLead)
					var exchange func()
					if tc.exchange {
						exchange = func() {}
					}
					rec, err := e.Run(context.Background(), exchange, nil)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := rec.flops, rowFlopsPinned[label]; got != want {
						t.Errorf("%s/w%d: row flops %#v, want %#v", label, workers, got, want)
					}
				}
			}
		}
	}
}

// TestLeafWeights checks EngineSpec.LeafWeights on wxTrees' rank LET, which
// holds empty leaves and ghost leaves without lists, for every kernel and
// both V modes: every weight is at least 1, and each leaf's weight is the sum
// of octantFlops over the rows whose work, as compile takes it, holds the
// leaf. Those per-octant counts over every row's work must add up to the
// flops a Run of the tree records, the FFT V row's counted by compileVFFT.
func TestLeafWeights(t *testing.T) {
	var let *octree.Tree
	for _, tc := range wxTrees(t) {
		if tc.name == "let" {
			let = tc.tree
		}
	}
	empty := 0
	for _, i := range let.Leaves {
		if let.Nodes[i].NPoints() == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("the LET has no empty leaf")
	}
	for _, kern := range []kernel.Kernel{kernel.Laplace{}, kernel.Stokes{}, kernel.Yukawa{Lambda: 5}} {
		ops := NewOperators(kern, 4, 1e-9)
		for _, dense := range []bool{false, true} {
			label := fmt.Sprintf("%s/dense=%v", kern.Name(), dense)
			spec := EngineSpec{Ops: ops, Workers: 2, DenseM2L: dense}
			w := spec.LeafWeights(let, let.Leaves)
			e := spec.NewEngine(let, nil)
			rec, err := e.Run(context.Background(), func() {}, nil)
			if err != nil {
				t.Fatal(err)
			}
			c := e.flopCosts()
			leafFlops := make([]int64, len(let.Nodes))
			var counted, recorded int64
			for pi := range phases {
				for _, run := range e.work(&phases[pi]) {
					for _, i := range run {
						f := e.octantFlops(&c, pi, i)
						counted += f
						if let.Nodes[i].IsLeaf {
							leafFlops[i] += f
						}
					}
				}
				recorded += rec.flops[pi]
			}
			if counted != recorded {
				t.Errorf("%s: per-octant counts total %d, the run recorded %d", label, counted, recorded)
			}
			for k, i := range let.Leaves {
				if w[k] < 1 || w[k] != max(leafFlops[i], 1) {
					t.Errorf("%s: leaf %d (%d points): weight %d, its rows count %d", label, i, let.Nodes[i].NPoints(), w[k], leafFlops[i])
				}
			}
		}
	}
}

package kifmm

import (
	"slices"
	"testing"

	"kifmm/internal/kernel"
	"kifmm/internal/sched"
)

// linkEnd is one end of a pair: the entry of row's list of node i that names
// other.
type linkEnd struct{ row, i, other int32 }

// checkLinks checks the links of the schedule the engine last readied: every
// place is given by exactly one entry and taken by exactly one, the giver and
// the taker name each other (U(i) naming a and U(a) naming i, or X(a) naming
// j and W(j) naming a), and the taker's task has an edge from the giver's.
// It returns the U and the W ⟷ X pairs linked.
func checkLinks(t *testing.T, label string, e *Engine) (u, wx int) {
	t.Helper()
	s, tr := e.schedule, e.Tree
	pr := s.pairs
	if pr == nil {
		return 0, 0
	}
	task := map[taskRef]sched.TaskID{}
	for id, r := range s.refs {
		task[r] = sched.TaskID(id)
	}
	given, taken := make([]int, pr.places), make([]int, pr.places)
	givers, takers := make([]linkEnd, pr.places), make([]linkEnd, pr.places)
	for i := range tr.Nodes {
		n := &tr.Nodes[i]
		u, x, w := pr.lists(tr, int32(i))
		for _, l := range []struct {
			row         int32
			list, links []int32
		}{{pULI, n.U, u}, {pXLI, n.X, x}, {pWLI, n.W, w}} {
			for k, lk := range l.links {
				switch end := (linkEnd{l.row, int32(i), l.list[k]}); {
				case lk >= 0:
					given[lk]++
					givers[lk] = end
				case lk < -1:
					taken[-2-lk]++
					takers[-2-lk] = end
				}
			}
		}
	}
	for p := range given {
		g, k := givers[p], takers[p]
		if given[p] != 1 || taken[p] != 1 {
			t.Fatalf("%s: place %d given %d times and taken %d times, want once each", label, p, given[p], taken[p])
		}
		rows := g.row == pULI && k.row == pULI || g.row == pXLI && k.row == pWLI
		if !rows || g.other != k.i || k.other != g.i {
			t.Fatalf("%s: place %d is given by %+v and taken by %+v: they must be U↔U or X→W and name each other", label, p, g, k)
		}
		gt, gok := task[taskRef{g.row, g.i}]
		kt, kok := task[taskRef{k.row, k.i}]
		if !gok || !kok || !slices.Contains(s.graph.Successors(gt), kt) {
			t.Fatalf("%s: place %d: the taker %+v's task (%v) has no edge from the giver %+v's (%v)", label, p, k, kok, g, gok)
		}
		if g.row == pULI {
			u++
		} else {
			wx++
		}
	}
	return u, wx
}

// TestPairingLinks checks the links of every graph Run compiles (one graph,
// or two around an exchange step) on every tree the pair routes are tested on
// — a Plan's, the same with edited lists, a PlanAt union, a local essential
// tree, each as uliTrees and wxTrees build them — with checkLinks: the U row
// pairs on each of uliTrees, W ⟷ X on each of wxTrees. Stokes' graphs and the
// one-row graphs of XLI and WLI link no X or W entry.
func TestPairingLinks(t *testing.T) {
	type pairCase struct {
		name           string
		tc             uliTree
		exchange, wxOn bool
	}
	var cases []pairCase
	for _, tc := range uliTrees(t) {
		cases = append(cases, pairCase{name: "uli/" + tc.name, tc: tc})
	}
	for _, tc := range wxTrees(t) {
		cases = append(cases, pairCase{name: "wx/" + tc.name, tc: uliTree{tree: tc.tree, nLead: tc.nLead}, exchange: tc.exchange, wxOn: true})
	}
	lap := NewOperators(kernel.Laplace{}, 4, 1e-9)
	stokes := NewOperators(kernel.Stokes{}, 4, 1e-9)
	for _, c := range cases {
		mk := func(ops *Operators) *Engine {
			e := NewEngine(ops, c.tc.tree)
			if c.tc.nLead > 0 {
				e.SetSplitRoles(c.tc.nLead)
			}
			return e
		}
		e := mk(lap)
		var u, wx int
		for _, r := range rowRanges(c.exchange) {
			e.pairRows(r[0], r[1])
			du, dwx := checkLinks(t, c.name, e)
			u, wx = u+du, wx+dwx
		}
		t.Logf("%s: %d U pairs, %d W ⟷ X pairs linked", c.name, u, wx)
		if u == 0 || (c.wxOn && wx == 0) {
			t.Errorf("%s: %d U pairs and %d W ⟷ X pairs linked: the routes must pair", c.name, u, wx)
		}
		for _, row := range []int{pXLI, pWLI} {
			e.pairRows(row, row+1)
			if n := wxLinked(e); n != 0 {
				t.Errorf("%s: the one-row graph of %s links %d X or W entries", c.name, phases[row].name, n)
			}
		}
		st := mk(stokes)
		for _, r := range rowRanges(c.exchange) {
			st.pairRows(r[0], r[1])
			if _, wx := checkLinks(t, c.name+"/stokes", st); wx != 0 || (st.pairs != nil && wxLinked(st) != 0) {
				t.Errorf("%s: a Stokes graph links W ⟷ X", c.name)
			}
		}
	}
}

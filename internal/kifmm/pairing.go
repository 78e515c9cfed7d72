package kifmm

import (
	"slices"
	"sync"

	"kifmm/internal/kernel"
	"kifmm/internal/morton"
	"kifmm/internal/octree"
)

// pairing is a schedule's one table of the pairs it serves. Where one entry
// of one list and one entry of another evaluate the same two point sets in
// opposite directions, and the kernel is symmetric bit for bit, one EvalPair
// serves both: the giving entry adds its own side at once and parks the other
// side's from-zero partial, which the taking entry adds at its own place in
// its list, so every accumulator receives what the one-way walk gives it, bit
// for bit. Each entry of every node's U, X and W lists has one link:
//
//   - −1: the entry runs one way, by EvalPanel;
//   - p ≥ 0: it gives — serves the pair and parks at inbox place p;
//   - −2−p: it takes the partial parked at place p.
//
// The taker's task waits on the giver's (compile). Two routes give:
//
// The U row. The U list is symmetric: where two paired leaves (uRank) name
// each other once each, the one of lower rank gives, so only the self entries
// run one way. Ranks follow colour (leafColour), then Morton; no two adjacent
// leaves share a colour, so a chain of waiting tasks climbs colours, at most
// eight per tree level, where Morton ranks chained half the row's work
// (TestULIChainBound).
//
// W ⟷ X. octree.buildX makes X the transpose of W: a ∈ W(j) exactly when
// j ∈ X(a), and xliNode evaluates j's points onto a's inner surface, which
// wliLeaf evaluates, densities U[a], onto j's points. So X(a) gives, into
// DChk[a] in X-list order after V(a), and W(j) takes before D2T(j); X(a)
// waits on a's upward pass. Only in a graph holding both rows (the per-row
// XLI and WLI run one way), where a and j both carry sources and targets,
// X(a) and W(j) both have work, and each list names the other once.
//
// Built once per schedule from the tree's lists and the masks, and shared by
// every engine that runs it; a run writes only its engine's inbox, whose
// place p holds the partStore slot of the partial parked there.
type pairing struct {
	// Node i's links are link[at[i]:]: its U list's, its X list's, its W
	// list's.
	at, link []int32
	places   int // the inbox's length: one place per pair
	// order is the U row's leaves in the order its tasks are added, their
	// rank order: a task's predecessors must be added before it.
	order []int32
}

// lists returns node i's links for its U, X and W lists.
func (pr *pairing) lists(t *octree.Tree, i int32) (u, x, w []int32) {
	n, l := &t.Nodes[i], pr.link[pr.at[i]:]
	return l[:len(n.U)], l[len(n.U):][:len(n.X)], l[len(n.U)+len(n.X):][:len(n.W)]
}

// pair links the giving and the taking entry, by link index, through a new
// place.
func (pr *pairing) pair(give, take int32) {
	pr.link[give], pr.link[take] = int32(pr.places), -2-int32(pr.places)
	pr.places++
}

// buildPairing lays out the links of rows [lo, hi): the U row's pairs and
// task order where the graph holds it, W ⟷ X's where it holds both rows.
func (e *Engine) buildPairing(lo, hi int) *pairing {
	t := e.Tree
	pr := &pairing{at: make([]int32, len(t.Nodes))}
	n := 0
	for i, nd := range t.Nodes {
		pr.at[i] = int32(n)
		n += len(nd.U) + len(nd.X) + len(nd.W)
	}
	pr.link = slices.Repeat([]int32{-1}, n)
	if lo <= pULI && pULI < hi {
		var rank []int32
		pr.order, rank = e.uRank()
		pr.mirror(t, pr.order, listU, listU, func(i, a, ia, ai int32) {
			if rank[i] >= 0 && rank[i] < rank[a] {
				pr.pair(ia, ai)
			}
		})
	}
	if lo <= pXLI && pWLI < hi && sharedPair(e.bk) {
		// W(j)'s work has j's target mask, X(a)'s a's.
		pr.mirror(t, t.Leaves, listW, listX, func(j, a, ja, aj int32) {
			if phases[pWLI].has(e, j) && e.srcNode(j) && e.srcNode(a) && phases[pXLI].has(e, a) {
				pr.pair(aj, ja)
			}
		})
	}
	return pr
}

const listU, listX, listW = 0, 1, 2 // a node's lists, as mirror names them

// list returns node i's list l and the link index of its first entry.
func (pr *pairing) list(t *octree.Tree, i int32, l int) ([]int32, int32) {
	n, at := &t.Nodes[i], pr.at[i]
	switch l {
	case listU:
		return n.U, at
	case listX:
		return n.X, at + int32(len(n.U))
	}
	return n.W, at + int32(len(n.U)+len(n.X))
}

// mirror calls f(i, a, ia, ai) for every entry of nodes' from lists that the
// to lists mirror: the entry at link index ia of from(i) names a, the one at
// ai of to(a) names i, and each list names the other node once. It gathers
// the entries naming each node a, then places them by one scatter of to(a):
// no list is searched.
func (pr *pairing) mirror(t *octree.Tree, nodes []int32, from, to int, f func(i, a, ia, ai int32)) {
	type end struct{ i, ia int32 }
	// in[start[a]:start[a+1]] are the entries naming a, in the order of nodes.
	start := make([]int32, len(t.Nodes)+1)
	for _, i := range nodes {
		names, _ := pr.list(t, i, from)
		for _, a := range names {
			start[a+1]++
		}
	}
	for a := range t.Nodes {
		start[a+1] += start[a]
	}
	in, next := make([]end, start[len(t.Nodes)]), slices.Clone(start)
	for _, i := range nodes {
		names, at := pr.list(t, i, from)
		for k, a := range names {
			in[next[a]] = end{i, at + int32(k)}
			next[a]++
		}
	}
	// place[b] is 1 + the link index of to(a)'s entry naming b: 0 where it
	// names no b, −1 where it names b twice.
	place := next[:len(t.Nodes)]
	clear(place)
	for a := range t.Nodes {
		ins := in[start[a]:start[a+1]]
		if len(ins) == 0 {
			continue
		}
		names, at := pr.list(t, int32(a), to)
		for k, b := range names {
			if place[b] != 0 {
				place[b] = -1
			} else {
				place[b] = at + int32(k) + 1
			}
		}
		for x, n := range ins {
			// from(n.i)'s entries naming a stand side by side in ins.
			once := (x == 0 || ins[x-1].i != n.i) && (x+1 == len(ins) || ins[x+1].i != n.i)
			if p := place[n.i]; p > 0 && once {
				f(n.i, int32(a), n.ia, p-1)
			}
		}
		for _, b := range names {
			place[b] = 0
		}
	}
}

// uRank orders the U row's leaves in one sort by colour (leafColour), then
// Morton: order is the row's leaves so, and rank[i] is leaf i's place in it
// where the leaf pairs — the kernel's EvalPair shares work and the leaf
// carries sources — and −1 elsewhere.
func (e *Engine) uRank() (order, rank []int32) {
	t := e.Tree
	order = e.work(&phases[pULI])[0]
	slices.SortStableFunc(order, func(a, b int32) int { return leafColour(t, a) - leafColour(t, b) })
	rank = slices.Repeat([]int32{-1}, len(t.Nodes))
	for r, i := range order {
		if sharedPair(e.bk) && e.srcNode(i) {
			rank[i] = int32(r)
		}
	}
	return order, rank
}

// give parks an n-value partial for inbox place p and returns its buffer,
// which the giving entry's EvalPair fills.
//
//fmm:hotpath
func (e *Engine) give(p int32, n int) []float64 {
	slot, part := e.store.park(n)
	e.inbox[p] = slot
	return part
}

// take adds the partial parked for the taking link l = −2−p into out and
// frees its buffer.
//
//fmm:hotpath
func (e *Engine) take(l int32, out []float64) {
	ps, slot := e.store, e.inbox[-2-l]
	ps.mu.Lock()
	part := ps.bufs[slot][:len(out)]
	ps.mu.Unlock()
	for x, v := range part {
		out[x] += v
	}
	ps.release(slot)
}

// sharedPair reports whether b's EvalPair pays for each pair's kernel values
// once. Stokes' EvalPair and a third-party kernel's are two EvalPanel calls,
// which pairing would only add parking to; their U rows and W ⟷ X run one
// way. A variable so that tests can pair a kernel with three target
// components.
var sharedPair = func(b kernel.Batch) bool {
	switch b.(type) {
	case kernel.Laplace, kernel.Yukawa:
		return true
	}
	return false
}

// parkClass is the grain of the parked buffers, in points: a buffer holds a
// whole number of parkClass points, one free list per size, and a partial for
// n points takes the smallest free buffer of at least ⌈n/parkClass⌉ classes.
// One size for the row's largest leaf would hold half as much memory again on
// a uniform cloud at q = 50, whose leaves hold 24 points on average and 45 at
// most; classes with no reuse across them would hold 40 % more buffers than
// partials at q = 400, whose leaf sizes spread over ten classes — and the
// buffers stay with the engine.
const parkClass = 8

// parkedHeld, when set (tests only), is told of every partial parked (+1)
// and added (−1), by either pair route, so a test can track how many buffers
// are held at once.
var parkedHeld func(delta int)

// leafColour is 8·level plus a place given by the parities of leaf i's
// coordinates at its level: adjacent leaves of one level differ in some
// parity, and leaves of different levels in level, so no two adjacent leaves
// share a colour. The parities xyz go in Gray order (000, 001, 011, 010, …),
// each one parity from the last, which parks about a third fewer partials at
// once than binary order (TestULIParkedPeak).
func leafColour(t *octree.Tree, i int32) int {
	k := t.Nodes[i].Key
	s := morton.MaxDepth - uint(k.L)
	p := k.X>>s&1<<2 | k.Y>>s&1<<1 | k.Z>>s&1
	return 8*int(k.L) + int(p^p>>1^p>>2) // p's place in Gray order
}

// partStore holds the partials both pair routes park, the U row's and
// W ⟷ X's, in buffers reused across runs: one store per engine, which grows
// to the most partials ever parked at once.
type partStore struct {
	// classLen is the unit of a buffer's length, parkClass points' worth.
	classLen int

	mu   sync.Mutex
	bufs [][]float64 // parked partials, by slot: a whole number of classLen each
	free [][]int32   // slots not parked, by class: free[c] holds buffers of c·classLen
}

// newPartStore returns an empty store for partials of up to a leaf's points,
// td values each.
func newPartStore(t *octree.Tree, td int) *partStore {
	maxPts := 0
	for _, i := range t.Leaves {
		maxPts = max(maxPts, t.Nodes[i].NPoints())
	}
	return &partStore{
		classLen: parkClass * td,
		free:     make([][]int32, (maxPts+parkClass-1)/parkClass+1),
	}
}

// reclaim frees every buffer.
func (ps *partStore) reclaim() {
	for c := range ps.free {
		ps.free[c] = ps.free[c][:0]
	}
	for s, b := range ps.bufs {
		c := len(b) / ps.classLen
		ps.free[c] = append(ps.free[c], int32(s))
	}
}

// park returns a buffer of length n and its slot: a free one of the
// smallest class that holds n, or a new one of exactly that class.
func (ps *partStore) park(n int) (int32, []float64) {
	need := (n + ps.classLen - 1) / ps.classLen
	ps.mu.Lock()
	slot := int32(-1)
	for c := need; c < len(ps.free) && slot < 0; c++ {
		if free := ps.free[c]; len(free) > 0 {
			slot, ps.free[c] = free[len(free)-1], free[:len(free)-1]
		}
	}
	if slot < 0 {
		slot = int32(len(ps.bufs))
		//fmm:allow hotalloc the buffer set grows to the most partials ever parked at once, then is reused across runs
		ps.bufs = append(ps.bufs, make([]float64, need*ps.classLen))
	}
	buf := ps.bufs[slot]
	ps.mu.Unlock()
	if parkedHeld != nil {
		parkedHeld(1)
	}
	return slot, buf[:n]
}

// release frees slot once its partial has been added.
func (ps *partStore) release(slot int32) {
	if parkedHeld != nil {
		parkedHeld(-1)
	}
	ps.mu.Lock()
	c := len(ps.bufs[slot]) / ps.classLen
	//fmm:allow hotalloc a free list's capacity follows its class's buffers, which only a row's first run adds
	ps.free[c] = append(ps.free[c], slot)
	ps.mu.Unlock()
}

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
// The U row. The U list is symmetric: where two leaves of one chunk are both
// paired (uRank), the earlier in the chunk's order gives. A chunk is
// pairChunk paired leaves consecutive in Morton order, ordered by colour
// (leafColour), then Morton; an entry between chunks runs one way, so chunks
// wait on nothing of each other, and no two adjacent leaves share a colour,
// so a chain of waiting tasks climbs colours: at most eight per tree level in
// the chunk, where a Morton order of the whole row chained half its work
// (TestULIChainBound). The partials parked at once are the pairs inside the
// chunks in flight.
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
	// order is the U row's leaves in the order its tasks are added: Morton
	// order, but each chunk whole, in its serving order, where its first
	// leaf stands — a task's predecessors must be added before it.
	order []int32
}

// lists returns node i's links for its U, X and W lists.
func (pr *pairing) lists(t *octree.Tree, i int32) (u, x, w []int32) {
	n, l := &t.Nodes[i], pr.link[pr.at[i]:]
	return l[:len(n.U)], l[len(n.U):][:len(n.X)], l[len(n.U)+len(n.X):][:len(n.W)]
}

// pair links a giving and a taking entry through a new place.
func (pr *pairing) pair(give, take *int32) {
	*give, *take = int32(pr.places), -2-int32(pr.places)
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
		rank, paired := e.uRank()
		for _, i := range paired {
			u, _, _ := pr.lists(t, i)
			for k, a := range t.Nodes[i].U {
				if rank[a] > rank[i] && rank[a]/pairChunk == rank[i]/pairChunk {
					au, _, _ := pr.lists(t, a)
					pr.pair(&u[k], &au[slices.Index(t.Nodes[a].U, i)])
				}
			}
		}
		next := 0 // the next chunk to add
		for _, i := range t.Leaves {
			switch {
			case !phases[pULI].has(e, i):
			case rank[i] < 0:
				pr.order = append(pr.order, i)
			case int(rank[i])/pairChunk == next:
				pr.order = append(pr.order, paired[next*pairChunk:min((next+1)*pairChunk, len(paired))]...)
				next++
			}
		}
	}
	if lo <= pXLI && pWLI < hi && sharedPair(e.bk) {
		for _, j := range t.Leaves {
			// W(j)'s work has j's target mask, X(a)'s a's.
			if !phases[pWLI].has(e, j) || !e.srcNode(j) {
				continue
			}
			wl := t.Nodes[j].W
			_, _, w := pr.lists(t, j)
			for k, a := range wl {
				if e.srcNode(a) && phases[pXLI].has(e, a) && once(wl, a) && once(t.Nodes[a].X, j) {
					_, x, _ := pr.lists(t, a)
					pr.pair(&x[slices.Index(t.Nodes[a].X, j)], &w[k])
				}
			}
		}
	}
	return pr
}

// uRank ranks the U row's paired leaves: paired[r] is the leaf of rank r,
// chunk by chunk, each chunk in its serving order, and rank[i] is leaf i's,
// −1 where every entry naming it runs one way. A leaf is paired if the
// kernel's EvalPair shares work, it has U-row work and carries sources, its U
// list names every leaf once, and every paired leaf it names names it back.
func (e *Engine) uRank() (rank, paired []int32) {
	t := e.Tree
	rank = slices.Repeat([]int32{-1}, len(t.Nodes))
	for _, i := range t.Leaves {
		if sharedPair(e.bk) && phases[pULI].has(e, i) && e.srcNode(i) && !repeats(t.Nodes[i].U) {
			rank[i] = 0
			paired = append(paired, i)
		}
	}
	// A leaf that names a paired leaf which does not name it back is taken
	// out of the pairing; that only removes pairs, so one pass settles it.
	for _, i := range paired {
		for _, a := range t.Nodes[i].U {
			if a != i && rank[a] >= 0 && !slices.Contains(t.Nodes[a].U, i) {
				rank[i] = -1
				break
			}
		}
	}
	paired = slices.DeleteFunc(paired, func(i int32) bool { return rank[i] < 0 })
	for lo := 0; lo < len(paired); lo += pairChunk {
		slices.SortStableFunc(paired[lo:min(lo+pairChunk, len(paired))], func(a, b int32) int {
			return leafColour(t, a) - leafColour(t, b)
		})
	}
	for r, i := range paired {
		rank[i] = int32(r)
	}
	return rank, paired
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

// pairChunk is how many paired leaves, consecutive in Morton order, make one
// chunk: a 4³ block of a uniform level. The U row's longest chain of waiting
// tasks is then 2.6 % of its work on the 100k-point uniform cloud at q = 400
// and 0.3 % at q = 50 (TestULIChainBound); the entries between chunks, a
// quarter of the pairs at q = 400 and a third at q = 50, run one way. Larger
// chunks pair a little more and park more at once: 128 leaves save 4 % more
// kernel work at q = 400 and park twice as many partials.
const pairChunk = 64

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
// share a colour. The four parities with an even sum go first: half-way
// through a chunk fewer pairs run between the colours done and the rest than
// in binary order, so fewer partials are parked (252 against 300 at 1 worker
// in TestULIParkedPeak).
func leafColour(t *octree.Tree, i int32) int {
	k := t.Nodes[i].Key
	s := morton.MaxDepth - uint(k.L)
	parity := k.X>>s&1<<2 | k.Y>>s&1<<1 | k.Z>>s&1
	return 8*int(k.L) + int(evenFirst[parity])
}

// evenFirst places parity xyz: 000, 011, 101, 110, then 001, 010, 100, 111.
var evenFirst = [8]byte{0, 4, 5, 1, 6, 2, 3, 7}

// repeats reports whether a list names some node twice.
func repeats(u []int32) bool {
	for k, a := range u {
		if slices.Contains(u[:k], a) {
			return true
		}
	}
	return false
}

// once reports whether list names x exactly once.
func once(list []int32, x int32) bool {
	k := slices.Index(list, x)
	return k >= 0 && !slices.Contains(list[k+1:], x)
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

package kifmm

import (
	"slices"
	"sync"

	"kifmm/internal/kernel"
	"kifmm/internal/morton"
	"kifmm/internal/octree"
)

// nearPairs is the U row's pairing of mutual leaves. The U list is
// symmetric, and so are the built-in kernels: leaf a's panel against leaf b's
// costs the same square roots, divides and exps as b's against a's. Where two
// distinct leaves of one chunk of the row are both targets and sources, the
// one earlier in the chunk's order serves the pair: it runs
// kernel.Batch.EvalPair, adds its own partial sum at once and parks the
// other's in a buffer, which the later leaf adds at that entry's own place in
// its list. Every target still receives one from-zero, ascending-source
// partial per U entry in U-list order, so the potentials are the one-way
// walk's, bit for bit.
//
// The order bounds how long a chain of U tasks waiting on each other can
// get. A chunk is pairChunk paired leaves consecutive in Morton order, and an
// entry between two chunks runs one way, so chunks wait on nothing of each
// other. Within a chunk the order is by colour (leafColour), then Morton. No
// two adjacent leaves share a colour, so a chain climbs colours: at most
// eight per tree level in the chunk, where a Morton order of the whole row
// chained half its work (TestULIChainBound). The partials parked at once are the pairs inside the chunks
// in flight, not the pairs straddling the row's Morton frontier.
//
// Built once per schedule from the tree's lists and the masks, and shared by
// every engine that runs it; a run writes only its engine's inbox. The
// partials are held in the engine's one partStore, which W ⟷ X (wxPairs)
// parks in too.
type nearPairs struct {
	// rank[i] is leaf i's place in the pairing order: chunk by chunk, and
	// within a chunk by colour, then Morton. i is paired if it has U-row
	// work and carries sources, its U list names every leaf once, and every
	// paired leaf it names names it back; rank[i] is −1 otherwise, and then
	// i's entries and every entry naming i run one way, by EvalPanel.
	rank []int32
	// order is the U row's leaves in the order its tasks are added: Morton
	// order, but each chunk whole, in rank order, where its first leaf
	// stands — a task's predecessors must be added before it.
	order []int32
	// An engine's U inbox, inboxLen places, holds at in[i]+k the slot of the
	// partial parked for paired leaf i's k-th U entry where an earlier leaf
	// serves it, written by the serving leaf's task before i's starts.
	in       []int32
	inboxLen int
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

// buildNearPairs ranks the U row's paired leaves, orders the row's tasks and
// lays out the inboxes.
func (e *Engine) buildNearPairs() *nearPairs {
	t := e.Tree
	p := &phases[pULI]
	np := &nearPairs{
		rank: make([]int32, len(t.Nodes)),
		in:   make([]int32, len(t.Nodes)),
	}
	for i := range np.rank {
		np.rank[i] = -1
	}
	var paired []int32
	for _, i := range t.Leaves {
		if !p.has(e, i) {
			continue
		}
		if sharedPair(e.bk) && e.srcNode(i) && !repeats(t.Nodes[i].U) {
			np.rank[i] = 0
			paired = append(paired, i)
		}
	}
	// A leaf that names a paired leaf which does not name it back is taken
	// out of the pairing; that only removes pairs, so one pass settles it.
	for _, i := range paired {
		for _, a := range t.Nodes[i].U {
			if a != i && np.rank[a] >= 0 && !slices.Contains(t.Nodes[a].U, i) {
				np.rank[i] = -1
				break
			}
		}
	}
	paired = slices.DeleteFunc(paired, func(i int32) bool { return np.rank[i] < 0 })
	for lo := 0; lo < len(paired); lo += pairChunk {
		slices.SortStableFunc(paired[lo:min(lo+pairChunk, len(paired))], func(a, b int32) int {
			return leafColour(t, a) - leafColour(t, b)
		})
	}
	for r, i := range paired {
		np.rank[i] = int32(r)
	}
	next := 0 // the next chunk to add
	for _, i := range t.Leaves {
		switch {
		case !p.has(e, i):
		case np.rank[i] < 0:
			np.order = append(np.order, i)
		case int(np.rank[i])/pairChunk == next:
			np.order = append(np.order, paired[next*pairChunk:min((next+1)*pairChunk, len(paired))]...)
			next++
		}
	}
	for _, i := range paired {
		np.in[i] = int32(np.inboxLen)
		np.inboxLen += len(t.Nodes[i].U)
	}
	return np
}

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

// serves reports whether leaf a serves the entry of U(i) naming it: both
// are paired, in one chunk, and a comes first.
func (np *nearPairs) serves(a, i int32) bool {
	ra, ri := np.rank[a], np.rank[i]
	return ra >= 0 && ra < ri && ra/pairChunk == ri/pairChunk
}

// wxPairs is W ⟷ X's pairing. octree.buildX makes the X list the transpose
// of the W list: a ∈ W(j) exactly when j ∈ X(a). wliLeaf evaluates a's inner
// surface, densities U[a], onto leaf j's points, and xliNode evaluates j's
// points, densities Density[j], onto the same surface: the same two point
// sets in opposite directions. So X(a) serves the pair: one EvalPair adds
// into DChk[a] at once, in X-list order after V(a), and parks j's from-zero
// partial, which W(j) adds at that entry's own place in its W list, before
// D2T(j). Both accumulators receive what the one-way walk gives them, bit for
// bit. The X row comes before the W row, so X(a) waits on a's upward pass and
// W(j) on X(a); the per-row XLI and WLI run one way.
//
// An entry is served where a and j both carry sources and targets, X(a) and
// W(j) both have work, and each list names the other once; every other entry
// runs one way on both sides, by EvalPanel. Built once per schedule from the
// tree's lists and the masks; a run writes only its engine's copy of the
// inbox.
type wxPairs struct {
	// inbox[in[j]+k] is W(j)'s k-th entry's: −1 if it runs one way, else 0;
	// in an engine's copy, the slot of the partial X(a) parked for it,
	// written by X(a)'s task before W(j)'s starts. in[j] is −1 where W(j)
	// has no work.
	in    []int32
	inbox []int32
}

// buildWXPairs lays out the W row's inbox and marks the entries X serves.
func (e *Engine) buildWXPairs() *wxPairs {
	t := e.Tree
	wx := &wxPairs{in: make([]int32, len(t.Nodes))}
	n := int32(0)
	for j := range wx.in {
		wx.in[j] = -1
		if t.Nodes[j].IsLeaf && phases[pWLI].has(e, int32(j)) {
			wx.in[j] = n
			n += int32(len(t.Nodes[j].W))
		}
	}
	wx.inbox = make([]int32, n)
	for j, in := range wx.in {
		if in < 0 {
			continue
		}
		w := t.Nodes[j].W
		for k, a := range w {
			// W(j)'s work has j's target mask, X(a)'s a's.
			if !(e.srcNode(int32(j)) && e.srcNode(a) && phases[pXLI].has(e, a) &&
				once(w, a) && once(t.Nodes[a].X, int32(j))) {
				wx.inbox[in+int32(k)] = -1
			}
		}
	}
	return wx
}

// once reports whether list names x exactly once.
func once(list []int32, x int32) bool {
	k := slices.Index(list, x)
	return k >= 0 && !slices.Contains(list[k+1:], x)
}

// places returns W(j)'s n places in inbox — the pairing's or an engine's
// copy — or nil where W(j) has no work.
func (wx *wxPairs) places(inbox []int32, j int32, n int) []int32 {
	if wx.in[j] < 0 {
		return nil
	}
	return inbox[wx.in[j] : wx.in[j]+int32(n)]
}

// wxServed returns W(j)'s slice of the engine's inbox, one place per W entry,
// or nil where the graph being run does not pair W ⟷ X or W(j) has no work.
func (e *Engine) wxServed(j int32) []int32 {
	if !e.pairWX {
		return nil
	}
	return e.wx.places(e.wxIn, j, len(e.Tree.Nodes[j].W))
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

// parked returns slot's buffer, length n.
func (ps *partStore) parked(slot int32, n int) []float64 {
	ps.mu.Lock()
	buf := ps.bufs[slot]
	ps.mu.Unlock()
	return buf[:n]
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

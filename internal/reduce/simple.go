package reduce

import (
	"kifmm/internal/dtree"
	"kifmm/internal/morton"
	"kifmm/internal/mpi"
)

// Simple implements the single-round point-to-point scheme of Kailasa,
// "A Simple Communication Scheme for Distributed Fast Multipole Methods"
// (PAPERS.md): instead of Algorithm 3's log p hypercube rounds, every
// contributor sends its partial upward density of each shared octant
// DIRECTLY to all user ranks of that octant, in one sparse all-to-all; each
// rank then sums the partials it holds and receives. There is no
// intermediate aggregation, so the wire carries one record per
// (contributor, user) pair: latency is one round instead of log p, but the
// per-rank send volume for an octant with u users is u records where the
// hypercube pays O(√p) — near-root octants (u ≈ p) make the total
// per-rank traffic Θ(m·p) in the worst case versus the hypercube's
// m·(3√p − 2) bound (see Bound and SimpleBound).
//
// Every rank that holds a shared octant in its LET is a user of that octant
// (the octant lies inside its own parent's colleague neighborhood), so the
// direct sends cover exactly the ranks the hypercube delivers to: both
// schemes produce the same complete sums, differing only in floating-point
// summation order.
//
// Requires any communicator size (no power-of-two restriction). Collective.
func Simple(c *mpi.Comm, part *dtree.Partition, items []Item, vecLen int) ([]Item, Stats) {
	p, r := c.Size(), c.Rank()
	var st Stats
	if p == 1 {
		st.OctantsSentPerRound = []int{0}
		return items, st
	}

	// Route every partial directly to each user rank of its octant. items
	// arrive in Morton order (contributors collect them by ascending node
	// index), so each outgoing message is Morton-ordered too and the wire
	// bytes are reproducible.
	toRank := make([][]Item, p)
	for _, it := range items {
		for _, k2 := range part.Users(it.Key) {
			if k2 == r {
				continue
			}
			toRank[k2] = append(toRank[k2], it)
		}
	}
	enc := make([][]byte, p)
	for k2 := range toRank {
		enc[k2] = encodeItems(toRank[k2], vecLen)
		if k2 != r && len(toRank[k2]) > 0 {
			st.MessagesSent++
			st.OctantsSentTotal += len(toRank[k2])
		}
	}
	st.OctantsSentPerRound = []int{st.OctantsSentTotal}
	recv := c.Alltoallv(enc)

	// Sum in a fixed order — own partials first, then source ranks
	// ascending, items in each message in the sender's Morton order — so
	// the result is bit-reproducible for a fixed input and rank count.
	sums := make(map[morton.Key][]float64, len(items))
	sum(sums, items, vecLen)
	for src := 0; src < p; src++ {
		if src == r {
			continue
		}
		sum(sums, decodeItems(recv[src], vecLen), vecLen)
	}

	out := make([]Item, 0, len(sums))
	for _, key := range sortedKeys(sums) {
		out = append(out, Item{Key: key, U: sums[key]})
	}
	return out, st
}

// SimpleBound returns the worst-case per-rank octant-traffic bound m·p of
// the direct scheme: each of a rank's ≤ m shared octants can have up to p
// user ranks (near-root octants reach all of them), and the direct scheme
// sends one record per user with no intermediate aggregation. This is the
// price of collapsing the exchange to a single round — the paper's
// m·(3√p − 2) bound (Bound) is specific to the hypercube's round-by-round
// forwarding, which aggregates partials en route.
func SimpleBound(m, p int) float64 {
	return float64(m) * float64(p)
}

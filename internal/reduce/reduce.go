// Package reduce implements the communication phase that completes the
// upward densities of "shared" octants (octants whose contributors and
// users span multiple ranks): the paper's novel hypercube
// reduce-and-scatter (Algorithm 3), with O(t_s·log p + t_w·m(3√p−2))
// complexity, and the owner-based point-to-point scheme it replaced (which
// failed at 64K ranks because near-root octants have up to p users).
//
// The whole package is in deterministic scope: for a fixed input and plan
// its outputs must be bit-identical across runs and machines (machines:
// fmmvet's nodeterm; runs: make probe-check, which evaluates twice).
//
//fmm:deterministic
package reduce

import (
	"encoding/binary"
	"math"
	"sort"

	"kifmm/internal/dtree"
	"kifmm/internal/morton"
	"kifmm/internal/mpi"
)

const tagHypercube = 300

// Item is one shared octant's (partial or complete) upward density vector.
type Item struct {
	Key morton.Key
	U   []float64
}

func encodeItems(items []Item, vecLen int) []byte {
	var b []byte
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(items)))
	b = append(b, n[:]...)
	for _, it := range items {
		b = it.Key.AppendBinary(b)
		if len(it.U) != vecLen {
			panic("reduce: inconsistent vector length")
		}
		b = append(b, mpi.Float64sToBytes(it.U)...)
	}
	return b
}

func decodeItems(b []byte, vecLen int) []Item {
	if len(b) == 0 {
		return nil
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	out := make([]Item, n)
	for i := 0; i < n; i++ {
		out[i].Key, b = morton.DecodeKey(b)
		out[i].U = mpi.BytesToFloat64s(b[:8*vecLen])
		b = b[8*vecLen:]
	}
	return out
}

// Stats reports the traffic incurred by one reduction.
type Stats struct {
	// OctantsSentPerRound[i] is the number of octant records this rank sent
	// in round i (hypercube only).
	OctantsSentPerRound []int
	// OctantsSentTotal is the total octant records sent by this rank.
	OctantsSentTotal int
	// MessagesSent is the number of point-to-point messages sent.
	MessagesSent int
}

// Hypercube runs Algorithm 3: log p rounds over the hypercube; in round i
// each rank exchanges with the partner differing in bit i, forwarding only
// the octants relevant to the partner's half-subcube and discarding those no
// longer relevant to its own. Afterwards each rank holds the globally summed
// density of every shared octant relevant to it. Requires a power-of-two
// communicator. Collective.
func Hypercube(c *mpi.Comm, part *dtree.Partition, items []Item, vecLen int) ([]Item, Stats) {
	p, r := c.Size(), c.Rank()
	if p&(p-1) != 0 {
		panic("reduce: Hypercube requires a power-of-two communicator")
	}
	var st Stats
	if p == 1 {
		return items, st
	}
	d := 0
	for 1<<d < p {
		d++
	}
	// A key is relevant to a sub-cube of ranks when one of its users
	// (Partition.Users) lies in the sub-cube's rank range.
	users := make(map[morton.Key][]int, len(items))
	relevant := func(key morton.Key, kLo, kHi int) bool {
		us, ok := users[key]
		if !ok {
			us = part.Users(key)
			users[key] = us
		}
		i := sort.SearchInts(us, kLo)
		return i < len(us) && us[i] <= kHi
	}

	// Working set: key → summed vector.
	set := make(map[morton.Key][]float64, len(items))
	sum(set, items, vecLen)

	for i := d - 1; i >= 0; i-- {
		s := r ^ (1 << i)
		us := s &^ ((1 << i) - 1) // s AND (2^d − 2^i)
		ue := s | ((1 << i) - 1)  // s OR (2^i − 1)
		var outgoing []Item
		for _, key := range sortedKeys(set) {
			if relevant(key, us, ue) {
				outgoing = append(outgoing, Item{Key: key, U: set[key]})
			}
		}
		st.OctantsSentPerRound = append(st.OctantsSentPerRound, len(outgoing))
		st.OctantsSentTotal += len(outgoing)
		st.MessagesSent++

		incoming := decodeItems(c.Sendrecv(s, tagHypercube+i, encodeItems(outgoing, vecLen)), vecLen)

		// Drop octants no longer relevant to my remaining subcube, then
		// sum in the relevant incoming partials (the reduction).
		qs := r &^ ((1 << i) - 1)
		qe := r | ((1 << i) - 1)
		for key := range set {
			if !relevant(key, qs, qe) {
				delete(set, key)
			}
		}
		kept := incoming[:0]
		for _, it := range incoming {
			if relevant(it.Key, qs, qe) {
				kept = append(kept, it)
			}
		}
		sum(set, kept, vecLen)
	}
	out := make([]Item, 0, len(set))
	for _, key := range sortedKeys(set) {
		out = append(out, Item{Key: key, U: set[key]})
	}
	return out, st
}

// sum adds each item's vector into sums[item.Key] in list order, starting a
// key's sum from a copy of its first vector: the one sum of partials every
// scheme runs, so a fixed input and list order give bit-identical sums.
func sum(sums map[morton.Key][]float64, list []Item, vecLen int) {
	for _, it := range list {
		if u, ok := sums[it.Key]; ok {
			for x := range u {
				u[x] += it.U[x]
			}
		} else {
			u := make([]float64, vecLen)
			copy(u, it.U)
			sums[it.Key] = u
		}
	}
}

// sortedKeys returns m's keys in Morton order. Wire messages and result
// slices are assembled in this order so every rank sees identical byte
// streams and downstream accumulations run in a fixed order.
func sortedKeys(m map[morton.Key][]float64) []morton.Key {
	keys := make([]morton.Key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	morton.SortKeys(keys)
	return keys
}

// Owner runs the baseline scheme the paper retired: every shared octant has
// a single owner rank (the owner of its anchor cell); contributors send
// their partials to the owner, the owner sums and sends the result to every
// user. Near-root octants make the owner's fan-out O(p) — the bottleneck
// that motivated Algorithm 3. Collective.
func Owner(c *mpi.Comm, part *dtree.Partition, items []Item, vecLen int) ([]Item, Stats) {
	p, r := c.Size(), c.Rank()
	var st Stats
	// Phase 1: route partials to owners.
	toOwner := make([][]Item, p)
	for _, it := range items {
		o := part.OwnerOf(it.Key)
		toOwner[o] = append(toOwner[o], it)
	}
	enc := make([][]byte, p)
	for o := range toOwner {
		enc[o] = encodeItems(toOwner[o], vecLen)
		if o != r && len(toOwner[o]) > 0 {
			st.MessagesSent++
			st.OctantsSentTotal += len(toOwner[o])
		}
	}
	recv := c.Alltoallv(enc)

	// Owners sum.
	sums := make(map[morton.Key][]float64)
	for src := 0; src < p; src++ {
		sum(sums, decodeItems(recv[src], vecLen), vecLen)
	}

	// Phase 2: owners scatter completed octants to users.
	toUser := make([][]Item, p)
	for _, key := range sortedKeys(sums) {
		for _, k2 := range part.Users(key) {
			toUser[k2] = append(toUser[k2], Item{Key: key, U: sums[key]})
		}
	}
	for k2 := range toUser {
		enc[k2] = encodeItems(toUser[k2], vecLen)
		if k2 != r && len(toUser[k2]) > 0 {
			st.MessagesSent++
			st.OctantsSentTotal += len(toUser[k2])
		}
	}
	recv = c.Alltoallv(enc)
	var out []Item
	for src := 0; src < p; src++ {
		out = append(out, decodeItems(recv[src], vecLen)...)
	}
	return out, st
}

// Bound returns the paper's per-rank octant-traffic bound m·(3√p − 2) for
// the hypercube reduction. The bound is specific to the hypercube scheme:
// it relies on each round forwarding only the octants relevant to the
// partner's half-subcube, with partials aggregated en route, so the
// per-round volume shrinks geometrically. The direct point-to-point scheme
// (Simple) has no intermediate aggregation and is bounded by m·p instead
// (SimpleBound) — near-root octants are sent to every one of their up-to-p
// users individually.
func Bound(m, p int) float64 {
	return float64(m) * (3*math.Sqrt(float64(p)) - 2)
}

package mpi

// Collective operations. Each uses a distinct internal tag so user traffic
// and different collectives never cross-match; ranks must call collectives
// in the same order (standard MPI discipline).

const (
	tagBcast = internalTagBase + iota
	tagAllGather
	tagAlltoallv
	tagReduce
	tagScan
)

// nextPow2 returns the smallest power of two >= n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// AllGather collects every rank's data everywhere, indexed by rank.
// Implemented as a ring: p−1 rounds, each forwarding one block — the
// bandwidth-optimal pattern.
func (c *Comm) AllGather(data []byte) [][]byte {
	p, r := c.Size(), c.Rank()
	out := make([][]byte, p)
	out[r] = append([]byte(nil), data...)
	if p == 1 {
		return out
	}
	right := (r + 1) % p
	left := (r - 1 + p) % p
	cur := r
	for i := 0; i < p-1; i++ {
		c.Send(right, tagAllGather, out[cur])
		d, _ := c.Recv(left, tagAllGather)
		cur = (cur - 1 + p) % p
		out[cur] = d
	}
	return out
}

// Alltoallv sends parts[i] to rank i (parts[rank] short-circuits) and
// returns the blocks received, indexed by source. Pairwise-exchange
// schedule: p−1 rounds with partner r XOR i when p is a power of two,
// (r+i) mod p otherwise.
func (c *Comm) Alltoallv(parts [][]byte) [][]byte {
	p, r := c.Size(), c.Rank()
	if len(parts) != p {
		panic("mpi: Alltoallv needs one part per rank")
	}
	out := make([][]byte, p)
	out[r] = append([]byte(nil), parts[r]...)
	pow2 := p&(p-1) == 0
	for i := 1; i < p; i++ {
		var partner int
		if pow2 {
			partner = r ^ i
		} else {
			partner = (r + i) % p
		}
		if pow2 {
			out[partner] = c.Sendrecv(partner, tagAlltoallv, parts[partner])
		} else {
			send := (r + i) % p
			recv := (r - i + p) % p
			c.Send(send, tagAlltoallv, parts[send])
			d, _ := c.Recv(recv, tagAlltoallv)
			out[recv] = d
		}
	}
	return out
}

// ReduceFunc combines two payloads (associative, commutative).
type ReduceFunc func(a, b []byte) []byte

// AllReduce combines every rank's data with op and returns the result on
// all ranks. Binomial-tree reduce to rank 0 followed by a binomial-tree
// broadcast from it.
func (c *Comm) AllReduce(data []byte, op ReduceFunc) []byte {
	p, r := c.Size(), c.Rank()
	acc := append([]byte(nil), data...)
	for mask := 1; mask < nextPow2(p); mask <<= 1 {
		if r&mask != 0 {
			c.Send(r-mask, tagReduce, acc)
			break
		}
		if r+mask < p {
			d, _ := c.Recv(r+mask, tagReduce)
			acc = op(acc, d)
		}
	}
	// Each rank but 0 receives from the rank that differs in its lowest set
	// bit, then forwards to the ranks below that bit.
	mask := 1
	for ; mask < p; mask <<= 1 {
		if r&mask != 0 {
			acc, _ = c.Recv(r-mask, tagBcast)
			break
		}
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if r+mask < p {
			c.Send(r+mask, tagBcast, acc)
		}
	}
	return acc
}

// SumInt64 all-reduces by elementwise int64 addition.
func (c *Comm) SumInt64(v []int64) []int64 {
	res := c.AllReduce(Int64sToBytes(v), func(a, b []byte) []byte {
		av, bv := BytesToInt64s(a), BytesToInt64s(b)
		for i := range av {
			av[i] += bv[i]
		}
		return Int64sToBytes(av)
	})
	return BytesToInt64s(res)
}

// ExScanInt64 returns the exclusive prefix sum of v across ranks: rank r
// receives Σ_{r'<r} v_{r'} (zeros on rank 0).
func (c *Comm) ExScanInt64(v []int64) []int64 {
	r := c.Rank()
	all := c.AllGather(Int64sToBytes(v))
	out := make([]int64, len(v))
	for src := 0; src < r; src++ {
		sv := BytesToInt64s(all[src])
		for i := range out {
			out[i] += sv[i]
		}
	}
	return out
}

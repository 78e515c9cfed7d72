// Package psort implements the distributed sort used by the tree
// construction: a parallel sample sort by regular sampling, which
// Morton-orders the input points (the paper's dominant setup cost).
package psort

import (
	"sort"

	"kifmm/internal/mpi"
)

// Codec serializes items for the wire.
type Codec[T any] struct {
	Enc func([]T) []byte
	Dec func([]byte) []T
}

// SampleSort globally sorts the distributed multiset whose local share is
// items: afterwards each rank holds a contiguous chunk of the global sorted
// order (rank r's chunk precedes rank r+1's). Chunk sizes are approximately
// balanced by regular sampling, but a chunk may be empty: every copy of an
// item goes to one rank, so an input with fewer distinct items than ranks
// leaves some ranks without any. The greatest item always goes to the last
// rank. The input slice is not modified.
func SampleSort[T any](c *mpi.Comm, items []T, less func(a, b T) bool, codec Codec[T]) []T {
	p := c.Size()
	local := append([]T(nil), items...)
	sort.SliceStable(local, func(i, j int) bool { return less(local[i], local[j]) })
	if p == 1 {
		return local
	}

	// Regular sampling: p−1 evenly spaced local samples.
	var samples []T
	if len(local) > 0 {
		for i := 1; i < p; i++ {
			samples = append(samples, local[i*len(local)/p])
		}
	}
	gathered := c.AllGather(codec.Enc(samples))
	var all []T
	for _, g := range gathered {
		all = append(all, codec.Dec(g)...)
	}
	sort.SliceStable(all, func(i, j int) bool { return less(all[i], all[j]) })

	// Global splitters: p−1 evenly spaced positions in the sample union.
	splitters := make([]T, 0, p-1)
	if len(all) > 0 {
		for i := 1; i < p; i++ {
			splitters = append(splitters, all[i*len(all)/p])
		}
	}

	// Partition local items into destination bins.
	parts := make([][]T, p)
	for _, it := range local {
		dst := sort.Search(len(splitters), func(i int) bool { return less(it, splitters[i]) })
		parts[dst] = append(parts[dst], it)
	}
	enc := make([][]byte, p)
	for i := range parts {
		enc[i] = codec.Enc(parts[i])
	}
	recv := c.Alltoallv(enc)
	var out []T
	for _, b := range recv {
		out = append(out, codec.Dec(b)...)
	}
	sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// IsGloballySorted verifies (collectively) that each rank's chunk is sorted
// and chunk boundaries are nondecreasing across ranks. All ranks receive the
// verdict.
func IsGloballySorted[T any](c *mpi.Comm, items []T, less func(a, b T) bool, codec Codec[T]) bool {
	ok := int64(1)
	for i := 1; i < len(items); i++ {
		if less(items[i], items[i-1]) {
			ok = 0
		}
	}
	// Exchange boundary elements: send my first element to the left
	// neighbor, which checks it is >= its last element.
	var boundary []T
	if len(items) > 0 {
		boundary = items[:1]
	}
	all := c.AllGather(codec.Enc(boundary))
	// Rank r checks against the first element of the next nonempty rank.
	if len(items) > 0 {
		last := items[len(items)-1]
		for nr := c.Rank() + 1; nr < c.Size(); nr++ {
			next := codec.Dec(all[nr])
			if len(next) == 0 {
				continue
			}
			if less(next[0], last) {
				ok = 0
			}
			break
		}
	}
	return c.SumInt64([]int64{ok})[0] == int64(c.Size())
}

package psort

import (
	"math/rand"
	"testing"

	"kifmm/internal/mpi"
)

var int64Codec = Codec[int64]{Enc: mpi.Int64sToBytes, Dec: mpi.BytesToInt64s}

func lessInt64(a, b int64) bool { return a < b }

// gatherAll collects every rank's chunk in rank order (rank 0 only).
func gatherAll(c *mpi.Comm, chunk []int64) []int64 {
	parts := c.AllGather(mpi.Int64sToBytes(chunk))
	if c.Rank() != 0 {
		return nil
	}
	var out []int64
	for _, p := range parts {
		out = append(out, mpi.BytesToInt64s(p)...)
	}
	return out
}

func checkGlobalSort(t *testing.T, name string, global, original []int64) {
	t.Helper()
	if len(global) != len(original) {
		t.Fatalf("%s: length changed: %d vs %d", name, len(global), len(original))
	}
	for i := 1; i < len(global); i++ {
		if global[i] < global[i-1] {
			t.Fatalf("%s: not sorted at %d", name, i)
		}
	}
	// Same multiset.
	count := make(map[int64]int)
	for _, v := range original {
		count[v]++
	}
	for _, v := range global {
		count[v]--
	}
	for k, c := range count {
		if c != 0 {
			t.Fatalf("%s: multiset changed for %d (delta %d)", name, k, c)
		}
	}
}

func TestSampleSortVariousSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8, 9} {
		for _, perRank := range []int{0, 1, 50, 333} {
			var original []int64
			rng := rand.New(rand.NewSource(int64(p*1000 + perRank)))
			chunks := make([][]int64, p)
			for r := 0; r < p; r++ {
				for i := 0; i < perRank; i++ {
					v := int64(rng.Intn(500))
					chunks[r] = append(chunks[r], v)
					original = append(original, v)
				}
			}
			var global []int64
			mpi.Run(p, func(c *mpi.Comm) {
				out := SampleSort(c, chunks[c.Rank()], lessInt64, int64Codec)
				if !IsGloballySorted(c, out, lessInt64, int64Codec) {
					t.Errorf("p=%d perRank=%d: IsGloballySorted false", p, perRank)
				}
				if g := gatherAll(c, out); g != nil {
					global = g
				}
			})
			checkGlobalSort(t, "sample", global, original)
		}
	}
}

func TestSampleSortBalance(t *testing.T) {
	const p, perRank = 8, 1000
	rng := rand.New(rand.NewSource(1))
	chunks := make([][]int64, p)
	for r := 0; r < p; r++ {
		for i := 0; i < perRank; i++ {
			chunks[r] = append(chunks[r], rng.Int63n(1<<40))
		}
	}
	sizes := make([]int, p)
	mpi.Run(p, func(c *mpi.Comm) {
		out := SampleSort(c, chunks[c.Rank()], lessInt64, int64Codec)
		sizes[c.Rank()] = len(out)
	})
	for r, s := range sizes {
		if s < perRank/3 || s > perRank*3 {
			t.Fatalf("rank %d badly imbalanced: %d items (ideal %d)", r, s, perRank)
		}
	}
}

func TestSampleSortDoesNotMutateInput(t *testing.T) {
	chunks := [][]int64{{5, 1, 3}, {4, 2, 0}}
	mpi.Run(2, func(c *mpi.Comm) {
		in := chunks[c.Rank()]
		before := append([]int64(nil), in...)
		SampleSort(c, in, lessInt64, int64Codec)
		for i := range in {
			if in[i] != before[i] {
				t.Errorf("input mutated")
			}
		}
	})
}

func TestIsGloballySortedDetectsViolations(t *testing.T) {
	chunks := [][]int64{{5, 6}, {1, 2}} // boundary violation
	mpi.Run(2, func(c *mpi.Comm) {
		if IsGloballySorted(c, chunks[c.Rank()], lessInt64, int64Codec) {
			t.Errorf("boundary violation not detected")
		}
	})
	local := [][]int64{{2, 1}, {3, 4}} // local violation
	mpi.Run(2, func(c *mpi.Comm) {
		if IsGloballySorted(c, local[c.Rank()], lessInt64, int64Codec) {
			t.Errorf("local violation not detected")
		}
	})
}

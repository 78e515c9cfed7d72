package mpi

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property-based checks: every collective must agree with its serial
// reference for random payloads, sizes and roots.

func TestQuickAlltoallvTransposes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(9)
		// payload[i][j] is what rank i sends to rank j.
		payload := make([][][]byte, p)
		for i := range payload {
			payload[i] = make([][]byte, p)
			for j := range payload[i] {
				payload[i][j] = make([]byte, rng.Intn(50))
				rng.Read(payload[i][j])
			}
		}
		ok := true
		Run(p, func(c *Comm) {
			got := c.Alltoallv(payload[c.Rank()])
			for src := 0; src < p; src++ {
				if !bytes.Equal(got[src], payload[src][c.Rank()]) {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSumMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(9)
		vals := make([][]int64, p)
		want := make([]int64, 4)
		for r := range vals {
			vals[r] = make([]int64, 4)
			for k := range vals[r] {
				vals[r][k] = rng.Int63n(1000) - 500
				want[k] += vals[r][k]
			}
		}
		ok := true
		Run(p, func(c *Comm) {
			got := c.SumInt64(vals[c.Rank()])
			for k := range want {
				if got[k] != want[k] {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExScanMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(9)
		vals := make([]int64, p)
		for r := range vals {
			vals[r] = rng.Int63n(100)
		}
		ok := true
		Run(p, func(c *Comm) {
			got := c.ExScanInt64([]int64{vals[c.Rank()]})[0]
			var want int64
			for r := 0; r < c.Rank(); r++ {
				want += vals[r]
			}
			if got != want {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

package mpi

import (
	"bytes"
	"testing"
)

func TestRunSpawnsAllRanks(t *testing.T) {
	const p = 7
	seen := make([]bool, p)
	Run(p, func(c *Comm) {
		if c.Size() != p {
			t.Errorf("Size = %d", c.Size())
		}
		seen[c.Rank()] = true
	})
	for r, ok := range seen {
		if !ok {
			t.Fatalf("rank %d never ran", r)
		}
	}
}

func TestSendRecvBasic(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("hello"))
		} else {
			d, src := c.Recv(0, 5)
			if string(d) != "hello" || src != 0 {
				t.Errorf("got %q from %d", d, src)
			}
		}
	})
}

func TestRecvTagMatching(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("one"))
			c.Send(1, 2, []byte("two"))
		} else {
			// Receive out of order by tag.
			d2, _ := c.Recv(0, 2)
			d1, _ := c.Recv(0, 1)
			if string(d1) != "one" || string(d2) != "two" {
				t.Errorf("tag matching broken: %q %q", d1, d2)
			}
		}
	})
}

func TestSendCopiesData(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			c.Send(1, 0, buf)
			buf[0] = 99 // must not affect the delivered message
			c.Send(1, 1, nil)
		} else {
			c.Recv(0, 1) // rank 0 has written its buffer
			d, _ := c.Recv(0, 0)
			if d[0] != 1 {
				t.Errorf("message aliased sender buffer")
			}
		}
	})
}

func TestFIFOPerSourceAndTag(t *testing.T) {
	Run(2, func(c *Comm) {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 3, []byte{byte(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				d, _ := c.Recv(0, 3)
				if d[0] != byte(i) {
					t.Errorf("message %d arrived out of order as %d", i, d[0])
					return
				}
			}
		}
	})
}

func TestAllGather(t *testing.T) {
	for _, p := range []int{1, 2, 4, 6, 9} {
		Run(p, func(c *Comm) {
			all := c.AllGather([]byte{byte(c.Rank() * 2)})
			for r := 0; r < p; r++ {
				if len(all[r]) != 1 || all[r][0] != byte(r*2) {
					t.Errorf("p=%d: allgather slot %d = %v", p, r, all[r])
				}
			}
		})
	}
}

func TestAlltoallv(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 5, 7} {
		Run(p, func(c *Comm) {
			parts := make([][]byte, p)
			for dst := range parts {
				parts[dst] = []byte{byte(c.Rank()), byte(dst)}
			}
			got := c.Alltoallv(parts)
			for src := 0; src < p; src++ {
				want := []byte{byte(src), byte(c.Rank())}
				if !bytes.Equal(got[src], want) {
					t.Errorf("p=%d rank=%d from %d: got %v want %v",
						p, c.Rank(), src, got[src], want)
				}
			}
		})
	}
}

func TestSumAndMaxReduce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		Run(p, func(c *Comm) {
			s := c.SumInt64([]int64{int64(c.Rank()), 1})
			wantSum := int64(p * (p - 1) / 2)
			if s[0] != wantSum || s[1] != int64(p) {
				t.Errorf("p=%d: sum = %v", p, s)
			}
		})
	}
}

func TestExScan(t *testing.T) {
	Run(6, func(c *Comm) {
		got := c.ExScanInt64([]int64{int64(c.Rank() + 1)})
		// Exclusive prefix of 1,2,3,...: rank r gets r(r+1)/2.
		want := int64(c.Rank() * (c.Rank() + 1) / 2)
		if got[0] != want {
			t.Errorf("rank %d: exscan = %d want %d", c.Rank(), got[0], want)
		}
	})
}

func TestStatsCountTraffic(t *testing.T) {
	stats := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]byte, 100))
			c.Send(0, 0, make([]byte, 10)) // self-send
			c.Recv(0, 0)
		} else {
			c.Recv(0, 0)
		}
	})
	if got := stats[0].Snap(); got != (Snapshot{Messages: 2, Bytes: 110, RemoteBytes: 100}) {
		t.Fatalf("stats[0] = %+v", got)
	}
	if got := stats[1].Snap(); got != (Snapshot{}) {
		t.Fatalf("rank 1 sent nothing but counted %+v", got)
	}
}

func TestSnapshotDelta(t *testing.T) {
	s := NewStats()
	a := s.Snap()
	s.record(50, false)
	b := s.Snap()
	d := a.Delta(b)
	if d.Messages != 1 || d.Bytes != 50 || d.RemoteBytes != 50 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestCodecsRoundTrip(t *testing.T) {
	f := []float64{1.5, -2.25, 0, 1e-300}
	if got := BytesToFloat64s(Float64sToBytes(f)); len(got) != 4 || got[1] != -2.25 || got[3] != 1e-300 {
		t.Fatalf("float64 codec broken: %v", got)
	}
	i := []int64{-5, 0, 1 << 60}
	if got := BytesToInt64s(Int64sToBytes(i)); got[0] != -5 || got[2] != 1<<60 {
		t.Fatalf("int64 codec broken: %v", got)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

package stream

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestLaunchRunsAllBlocksAndThreads(t *testing.T) {
	d := NewDevice()
	var total atomic.Int64
	d.Launch(10, 32, 0, func(b *Block) {
		b.ForEachThread(func(tid int) {
			total.Add(int64(b.Idx*100 + tid))
		})
	})
	// Σ over blocks of (100·idx·32 + Σ tid) = 100·45·32 + 10·496.
	want := int64(100*45*32 + 10*496)
	if total.Load() != want {
		t.Fatalf("thread coverage wrong: %d want %d", total.Load(), want)
	}
	if d.Snapshot().Launches != 1 {
		t.Fatalf("launch count wrong")
	}
}

func TestForEachThreadBarrierSemantics(t *testing.T) {
	// A cooperative load phase must be fully visible to the compute phase.
	d := NewDevice()
	ok := true
	d.Launch(1, 64, 64, func(b *Block) {
		b.ForEachThread(func(tid int) { b.Shared[tid] = float32(tid) })
		b.ForEachThread(func(tid int) {
			// Every thread sees every other thread's write.
			if b.Shared[63-tid] != float32(63-tid) {
				ok = false
			}
		})
	})
	if !ok {
		t.Fatalf("shared memory writes not visible across phase boundary")
	}
}

func TestCountersAccumulate(t *testing.T) {
	d := NewDevice()
	d.H2D(1000)
	d.Launch(2, 4, 0, func(b *Block) {
		b.GlobalLoad(100, true)
		b.GlobalLoad(50, false)
		b.GlobalStore(10, true)
		b.Flops(1000)
	})
	d.D2H(500)
	c := d.Snapshot()
	if c.TransferBytes != 1500 {
		t.Fatalf("transfer bytes %d", c.TransferBytes)
	}
	if c.CoalescedBytes != 2*110 || c.UncoalescedBytes != 2*50 {
		t.Fatalf("memory bytes %d/%d", c.CoalescedBytes, c.UncoalescedBytes)
	}
	if c.Flops != 2000 {
		t.Fatalf("flops %d", c.Flops)
	}
}

func TestSnapshotSub(t *testing.T) {
	d := NewDevice()
	d.H2D(100)
	before := d.Snapshot()
	d.H2D(50)
	delta := d.Snapshot().Sub(before)
	if delta.TransferBytes != 50 {
		t.Fatalf("delta wrong: %+v", delta)
	}
}

func TestModeledTimeRoofline(t *testing.T) {
	// Compute-bound: 26 GFlop at 260 GFlop/s = 100 ms.
	ct := Counters{Flops: 26e9}.ModeledTime()
	if ct < 99*time.Millisecond || ct > 101*time.Millisecond {
		t.Fatalf("compute-bound time %v", ct)
	}
	// Memory-bound: 10 GB at 100 GB/s = 100 ms, dominating 1 GFlop compute.
	mt := Counters{Flops: 1e9, CoalescedBytes: 10e9}.ModeledTime()
	if mt < 99*time.Millisecond || mt > 101*time.Millisecond {
		t.Fatalf("memory-bound time %v", mt)
	}
	// Uncoalesced penalty multiplies.
	ut := Counters{UncoalescedBytes: 10e9 / 8}.ModeledTime()
	if ut < 99*time.Millisecond || ut > 101*time.Millisecond {
		t.Fatalf("uncoalesced time %v", ut)
	}
	// Transfers add serially.
	tt := Counters{TransferBytes: transferGBs * 1e9}.ModeledTime()
	if tt < 999*time.Millisecond || tt > 1001*time.Millisecond {
		t.Fatalf("transfer time %v", tt)
	}
	// Each launch adds its overhead.
	if lt := (Counters{Launches: 3}).ModeledTime(); lt != 3*launchOverhead {
		t.Fatalf("launch time %v", lt)
	}
}

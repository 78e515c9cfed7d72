// Package stream simulates the streaming accelerator of the paper's GPU
// experiments: a CUDA-like device with a two-level thread hierarchy (grids
// of thread blocks, per-block shared memory, barrier-phased cooperative
// execution), single-precision arithmetic, and an explicit cost model that
// converts counted flops, (un)coalesced global-memory transactions, and
// host↔device transfers into modeled device time.
//
// Kernels execute for real (on host goroutines, one worker per block slot),
// so results are bit-comparable with the CPU path at float32 precision; the
// modeled time is what the benchmarks report, reproducing the paper's
// GPU-vs-CPU shape (Table III, Figure 6) without GPU hardware.
package stream

import (
	"sync/atomic"
	"time"

	"kifmm/internal/sched"
)

// The device roofline: one GPU of an NVIDIA Tesla S1070 (the Lincoln
// cluster's accelerator). The host and network the device is compared with
// are modelled in internal/perfmodel.
const (
	gflops             = 260 // sustainable single-precision GFlop/s
	bandwidthGBs       = 100 // coalesced global-memory GB/s
	uncoalescedPenalty = 8   // cost multiplier of a non-coalesced transaction
	transferGBs        = 5   // host↔device (PCIe) GB/s
	launchOverhead     = 8 * time.Microsecond
)

// Device is one simulated accelerator. Counter updates are atomic, so
// kernels may run blocks concurrently.
type Device struct {
	flops            atomic.Int64
	coalescedBytes   atomic.Int64
	uncoalescedBytes atomic.Int64
	transferBytes    atomic.Int64
	launches         atomic.Int64
}

// NewDevice creates a device with zeroed counters.
func NewDevice() *Device { return &Device{} }

// Block is the execution context handed to a kernel, mirroring a CUDA
// thread block: an index, a thread count, and a shared-memory scratchpad.
// Thread-level parallelism is expressed with ForEachThread; consecutive
// ForEachThread calls are separated by an implicit block barrier
// (__syncthreads), which preserves the cooperative load-then-compute
// structure of the paper's Algorithm 4.
type Block struct {
	Idx    int
	Size   int
	Shared []float32
	dev    *Device
}

// ForEachThread runs body(tid) for every thread 0..Size-1. A call boundary
// is a block-wide barrier.
func (b *Block) ForEachThread(body func(tid int)) {
	for tid := 0; tid < b.Size; tid++ {
		body(tid)
	}
}

// GlobalLoad accounts a global-memory read of n bytes; coalesced indicates
// whether the warp's accesses were contiguous.
func (b *Block) GlobalLoad(n int, coalesced bool) {
	if coalesced {
		b.dev.coalescedBytes.Add(int64(n))
	} else {
		b.dev.uncoalescedBytes.Add(int64(n))
	}
}

// GlobalStore accounts a global-memory write of n bytes.
func (b *Block) GlobalStore(n int, coalesced bool) { b.GlobalLoad(n, coalesced) }

// Flops accounts n floating-point operations.
func (b *Block) Flops(n int) { b.dev.flops.Add(int64(n)) }

// Launch executes a kernel over grid blocks of blockSize threads each, with
// sharedPerBlock float32 words of shared memory. Blocks run concurrently on
// host goroutines.
func (d *Device) Launch(grid, blockSize, sharedPerBlock int, kernel func(b *Block)) {
	if grid <= 0 {
		return
	}
	d.launches.Add(1)
	sched.For(sched.DefaultWorkers(), grid, func(i int) {
		blk := &Block{Idx: i, Size: blockSize, Shared: make([]float32, sharedPerBlock), dev: d}
		kernel(blk)
	})
}

// H2D accounts a host-to-device transfer.
func (d *Device) H2D(bytes int) { d.transferBytes.Add(int64(bytes)) }

// D2H accounts a device-to-host transfer.
func (d *Device) D2H(bytes int) { d.transferBytes.Add(int64(bytes)) }

// Counters is a snapshot of the device's accumulated activity.
type Counters struct {
	Flops            int64
	CoalescedBytes   int64
	UncoalescedBytes int64
	TransferBytes    int64
	Launches         int64
}

// Snapshot returns the current counters.
func (d *Device) Snapshot() Counters {
	return Counters{
		Flops:            d.flops.Load(),
		CoalescedBytes:   d.coalescedBytes.Load(),
		UncoalescedBytes: d.uncoalescedBytes.Load(),
		TransferBytes:    d.transferBytes.Load(),
		Launches:         d.launches.Load(),
	}
}

// Sub returns a − b, counter-wise.
func (a Counters) Sub(b Counters) Counters {
	return Counters{
		Flops:            a.Flops - b.Flops,
		CoalescedBytes:   a.CoalescedBytes - b.CoalescedBytes,
		UncoalescedBytes: a.UncoalescedBytes - b.UncoalescedBytes,
		TransferBytes:    a.TransferBytes - b.TransferBytes,
		Launches:         a.Launches - b.Launches,
	}
}

// ModeledTime converts counters into device time under the roofline model:
// each kernel's time is the max of its compute time and its memory time
// (approximated globally), plus launch overheads and PCIe transfers.
func (cnt Counters) ModeledTime() time.Duration {
	compute := float64(cnt.Flops) / (gflops * 1e9)
	memBytes := float64(cnt.CoalescedBytes) + float64(cnt.UncoalescedBytes)*uncoalescedPenalty
	memory := memBytes / (bandwidthGBs * 1e9)
	kernel := compute
	if memory > kernel {
		kernel = memory
	}
	transfer := float64(cnt.TransferBytes) / (transferGBs * 1e9)
	total := kernel + transfer
	return time.Duration(total*1e9)*time.Nanosecond + time.Duration(cnt.Launches)*launchOverhead
}

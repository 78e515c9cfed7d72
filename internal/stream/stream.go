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

// Params models the device characteristics. Defaults approximate one GPU of
// an NVIDIA Tesla S1070 (the Lincoln cluster's accelerator) and the paper's
// 500 MFlop/s single CPU core.
type Params struct {
	// GFlops is the sustainable single-precision throughput (GFlop/s).
	GFlops float64
	// BandwidthGBs is the global-memory bandwidth (GB/s) for coalesced
	// access.
	BandwidthGBs float64
	// UncoalescedPenalty multiplies the cost of non-coalesced transactions.
	UncoalescedPenalty float64
	// TransferGBs is the host↔device (PCIe) bandwidth (GB/s).
	TransferGBs float64
	// LaunchOverhead is the fixed cost per kernel launch.
	LaunchOverhead time.Duration
	// HostGFlops is the modeled CPU scalar throughput used for CPU-side
	// comparisons (the paper reports ~0.5 GFlop/s per core for the FMM
	// evaluation loops).
	HostGFlops float64
	// HostFFTGFlops is the modeled CPU throughput of the cache-friendly
	// per-octant FFTs that stay on the host in the V-list phase.
	HostFFTGFlops float64
	// HostMatGFlops is the modeled CPU throughput of the dense
	// matrix-vector work that stays on the host (U2U, D2D, the downward
	// solves) — far above the scalar particle-loop rate.
	HostMatGFlops float64
	// Workers bounds host goroutines executing blocks (0 = GOMAXPROCS).
	Workers int
}

// DefaultParams returns the Tesla-S1070-like model used by the benchmarks.
func DefaultParams() Params {
	return Params{
		GFlops:             260,
		BandwidthGBs:       100,
		UncoalescedPenalty: 8,
		TransferGBs:        5,
		LaunchOverhead:     8 * time.Microsecond,
		HostGFlops:         0.5,
		HostFFTGFlops:      2.0,
		HostMatGFlops:      3.0,
	}
}

// Device is one simulated accelerator. Counter updates are atomic, so
// kernels may run blocks concurrently.
type Device struct {
	Params
	flops            atomic.Int64
	coalescedBytes   atomic.Int64
	uncoalescedBytes atomic.Int64
	sharedBytes      atomic.Int64
	transferBytes    atomic.Int64
	launches         atomic.Int64
}

// NewDevice creates a device with the given parameters.
func NewDevice(p Params) *Device {
	if p.GFlops <= 0 || p.BandwidthGBs <= 0 || p.TransferGBs <= 0 || p.HostGFlops <= 0 {
		panic("stream: invalid device parameters")
	}
	if p.UncoalescedPenalty <= 0 {
		p.UncoalescedPenalty = 8
	}
	if p.HostFFTGFlops <= 0 {
		p.HostFFTGFlops = 4 * p.HostGFlops
	}
	if p.HostMatGFlops <= 0 {
		p.HostMatGFlops = 6 * p.HostGFlops
	}
	return &Device{Params: p}
}

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

// SharedAccess accounts shared-memory traffic (free in the cost model, but
// tracked for reporting).
func (b *Block) SharedAccess(n int) { b.dev.sharedBytes.Add(int64(n)) }

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
	workers := d.Workers
	if workers <= 0 {
		workers = sched.DefaultWorkers()
	}
	sched.For(workers, grid, func(i int) {
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
	SharedBytes      int64
	TransferBytes    int64
	Launches         int64
}

// Snapshot returns the current counters.
func (d *Device) Snapshot() Counters {
	return Counters{
		Flops:            d.flops.Load(),
		CoalescedBytes:   d.coalescedBytes.Load(),
		UncoalescedBytes: d.uncoalescedBytes.Load(),
		SharedBytes:      d.sharedBytes.Load(),
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
		SharedBytes:      a.SharedBytes - b.SharedBytes,
		TransferBytes:    a.TransferBytes - b.TransferBytes,
		Launches:         a.Launches - b.Launches,
	}
}

// ModeledTime converts counters into device time under the roofline model:
// each kernel's time is the max of its compute time and its memory time
// (approximated globally), plus launch overheads and PCIe transfers.
func (d *Device) ModeledTime(cnt Counters) time.Duration {
	compute := float64(cnt.Flops) / (d.GFlops * 1e9)
	memBytes := float64(cnt.CoalescedBytes) + float64(cnt.UncoalescedBytes)*d.UncoalescedPenalty
	memory := memBytes / (d.BandwidthGBs * 1e9)
	kernel := compute
	if memory > kernel {
		kernel = memory
	}
	transfer := float64(cnt.TransferBytes) / (d.TransferGBs * 1e9)
	total := kernel + transfer
	return time.Duration(total*1e9)*time.Nanosecond + time.Duration(cnt.Launches)*d.LaunchOverhead
}

// HostTime models the time a single CPU core would need for the same flops.
func (d *Device) HostTime(flops int64) time.Duration {
	return time.Duration(float64(flops) / (d.HostGFlops * 1e9) * 1e9)
}

// HostFFTTime models host time for FFT work, which sustains a higher rate
// than the scalar interaction loops.
func (d *Device) HostFFTTime(flops int64) time.Duration {
	return time.Duration(float64(flops) / (d.HostFFTGFlops * 1e9) * 1e9)
}

// HostMatTime models host time for dense matrix-vector work (U2U, D2D,
// downward solves).
func (d *Device) HostMatTime(flops int64) time.Duration {
	return time.Duration(float64(flops) / (d.HostMatGFlops * 1e9) * 1e9)
}

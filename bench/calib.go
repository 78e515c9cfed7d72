package main

import (
	"math"
	"sync"
	"time"
)

// calRefMS is the calibration reading of the reference box in its fast
// state: the minimum of 200 readings taken while this benchmark was written
// (`-calibrate` repeats the measurement; see README.md, "Noise"). Every reported
// timing is scaled by calRefMS / (calibration time measured around the op),
// so a result reads as "milliseconds on the reference box at full speed"
// whichever speed state the host was in.
const calRefMS = 4.63

const (
	calChain  = 200_000 // dependent 1/sqrt steps: latency-bound scalar work
	calSweeps = 80      // FMA sweeps over the first calSmall floats: L2-resident streaming
	calSmall  = 32768   // float64s, 256 KiB
	calLarge  = 1 << 20 // float64s, 8 MiB: beyond the L2 cache, streamed twice
	calReps   = 5       // kernel runs per reading; the reading is their median
)

// calSink keeps the kernel's result live so the compiler cannot drop it.
var calSink float64

// calBuf holds one slice per goroutine index. Readings are taken one at a
// time, from the goroutine that runs the ops.
var calBuf [][]float64

// calKernel is the fixed unit of work the host's speed is measured by. It
// uses nothing from the repo under test, so no change to the program can
// move it. Its three parts load what an FMM op loads: a dependent
// reciprocal-square-root chain (the near-field kernels), multiply-add
// sweeps over a slice that fits the L2 cache (FFTs and small dense
// products), and a read-modify-write stream over a slice that does not
// (Hadamard products over spectra). Dividing by any one of them alone
// tracked the op's slow-downs on the reference box worse than their sum.
func calKernel(buf []float64) float64 {
	s, x := 0.0, 1.0
	for i := 0; i < calChain; i++ {
		s += 1 / math.Sqrt(x)
		x += s * 1e-9
	}
	small := buf[:calSmall]
	for k := 0; k < calSweeps; k++ {
		for i := range small {
			small[i] = math.FMA(small[i], 1.0000001, 1e-9)
		}
	}
	for k := 0; k < 2; k++ {
		for i := range buf {
			s += buf[i]
			buf[i] = s * 1e-12
		}
	}
	return s
}

// calibrate takes one reading: it runs the kernel calReps times on each of
// n goroutines at once — as many as the op it brackets has workers, so
// contention between them is part of the reading — and returns the mean
// over goroutines of each one's median kernel time, in milliseconds. The
// median discards the millisecond-scale interruptions that a long op
// averages over but a single short kernel run may or may not hit.
func calibrate(n int) float64 {
	if n < 1 {
		n = 1
	}
	for len(calBuf) < n {
		calBuf = append(calBuf, make([]float64, calLarge))
	}
	bufs := calBuf[:n]
	ms := make([]float64, n)
	sinks := make([]float64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var reps [calReps]float64
			for r := range reps {
				t0 := time.Now()
				sinks[g] += calKernel(bufs[g])
				reps[r] = float64(time.Since(t0)) / float64(time.Millisecond)
			}
			ms[g] = median(reps[:])
		}(g)
	}
	wg.Wait()
	sum := 0.0
	for g := range ms {
		sum += ms[g]
		calSink += sinks[g]
	}
	return sum / float64(n)
}

// normalise converts a wall-clock duration into calibrated milliseconds
// given the calibration readings taken right before and right after it. It
// is the identity (in ms) when both readings equal calRefMS.
func normalise(wall time.Duration, calBefore, calAfter float64) float64 {
	return float64(wall) / float64(time.Millisecond) * calRefMS / ((calBefore + calAfter) / 2)
}

// calibrationMin is the fastest of runs readings on n goroutines, the
// figure calRefMS is pinned from.
func calibrationMin(runs, n int) float64 {
	best := math.Inf(1)
	for i := 0; i < runs; i++ {
		best = math.Min(best, calibrate(n))
	}
	return best
}

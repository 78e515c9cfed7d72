// Package plain has no deterministic marker: clocks and RNG are fine, except
// in a function that opts in by annotation.
package plain

import (
	"math/rand"
	"time"
)

func Seeded() float64 {
	_ = time.Now()
	return rand.Float64()
}

// Kernel opts in: only its body is in deterministic scope.
//
//fmm:deterministic
func Kernel() int64 {
	return time.Now().Unix() // want `time.Now in deterministic scope`
}

package par

import (
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		for _, n := range []int{0, 1, 7, 100, 1000} {
			hits := make([]int32, n)
			For(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForSequentialOrderWhenSingleWorker(t *testing.T) {
	var order []int
	For(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("single worker should run in order, got %v", order)
		}
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers = %d", DefaultWorkers())
	}
}

package runctx

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrdered holds the pool's contract for several sizes and worker
// counts: every index runs exactly once, emit sees the indices strictly
// in order (each only after its own do returned), and no more than
// workers do calls ever overlap. Run it under -race -count=10 to
// exercise the interleavings.
func TestOrdered(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 1}, {0, 4}, {1, 0}, {1, 8}, {7, 1}, {16, 3}, {64, 4}, {5, 64},
	} {
		runs := make([]atomic.Int32, tc.n)
		finished := make([]bool, tc.n) // written by do, read by emit
		var running, peak atomic.Int32
		var mu sync.Mutex
		var emitted []int
		do := func(i int) {
			cur := running.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			runs[i].Add(1)
			if i%3 == 0 {
				time.Sleep(50 * time.Microsecond) // let later indices overtake
			}
			finished[i] = true
			running.Add(-1)
		}
		emit := func(i int) {
			if !finished[i] {
				t.Errorf("n=%d workers=%d: emit(%d) before its do returned", tc.n, tc.workers, i)
			}
			mu.Lock()
			emitted = append(emitted, i)
			mu.Unlock()
		}
		Ordered(tc.n, tc.workers, do, emit)

		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: index %d ran %d times, want 1", tc.n, tc.workers, i, got)
			}
		}
		if len(emitted) != tc.n {
			t.Fatalf("n=%d workers=%d: %d emits, want %d", tc.n, tc.workers, len(emitted), tc.n)
		}
		for k, i := range emitted {
			if i != k {
				t.Fatalf("n=%d workers=%d: emit #%d was index %d, want strict index order", tc.n, tc.workers, k, i)
			}
		}
		if limit := int32(max(tc.workers, 1)); peak.Load() > limit {
			t.Errorf("n=%d workers=%d: %d do calls overlapped, want at most %d", tc.n, tc.workers, peak.Load(), limit)
		}
	}
}

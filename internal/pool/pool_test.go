package pool

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
)

var (
	sizes   = []int{0, 1, 2, 7, 1000}
	workers = []int{-1, 0, 1, 2, 3, 64}
)

// goid returns the ID of the calling goroutine, read from its stack header
// ("goroutine 18 [running]:").
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestPoolRunsEveryIndexOnce: every index of [0, n) is called exactly once,
// whatever the worker count, and Run returns only after the last call — the
// counts are plain writes the race detector holds to Run's return.
func TestPoolRunsEveryIndexOnce(t *testing.T) {
	for _, n := range sizes {
		for _, w := range workers {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(t *testing.T) {
				calls := make([]int, n)
				Run(n, w, func(i int) { calls[i]++ })
				for i, c := range calls {
					if c != 1 {
						t.Fatalf("index %d called %d times", i, c)
					}
				}
			})
		}
	}
}

// TestPoolInlineAtOneWorker: with at most one worker the calls run in index
// order on the caller's goroutine, and Run allocates nothing.
func TestPoolInlineAtOneWorker(t *testing.T) {
	caller := goid()
	for _, n := range sizes {
		for _, w := range []int{-1, 0, 1} {
			var order []int
			var elsewhere int
			Run(n, w, func(i int) {
				order = append(order, i)
				if goid() != caller {
					elsewhere++
				}
			})
			if elsewhere > 0 {
				t.Errorf("n=%d workers=%d: %d calls ran off the caller's goroutine", n, w, elsewhere)
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("n=%d workers=%d: call %d was index %d", n, w, i, got)
				}
			}
		}
	}
	sum := 0
	add := func(i int) { sum += i }
	for _, w := range []int{-1, 0, 1} {
		if allocs := testing.AllocsPerRun(100, func() { Run(1000, w, add) }); allocs != 0 {
			t.Errorf("workers=%d: %v allocations per Run, want 0", w, allocs)
		}
	}
	// A single index runs inline whatever the worker count.
	if allocs := testing.AllocsPerRun(100, func() { Run(1, 64, add) }); allocs != 0 {
		t.Errorf("n=1 workers=64: %v allocations per Run, want 0", allocs)
	}
}

// TestPoolBoundsConcurrency: no more than min(workers, n) calls are ever in
// flight at once.
func TestPoolBoundsConcurrency(t *testing.T) {
	for _, n := range sizes {
		for _, w := range workers {
			var inFlight, high atomic.Int64
			Run(n, w, func(int) {
				now := inFlight.Add(1)
				for {
					h := high.Load()
					if now <= h || high.CompareAndSwap(h, now) {
						break
					}
				}
				runtime.Gosched()
				inFlight.Add(-1)
			})
			if limit := int64(max(1, min(w, n))); high.Load() > limit {
				t.Errorf("n=%d workers=%d: %d calls in flight, limit %d", n, w, high.Load(), limit)
			}
		}
	}
}

// TestPoolReturnsAfterLastCall: the last call to finish — here the one that
// yields longest — has returned before Run does.
func TestPoolReturnsAfterLastCall(t *testing.T) {
	for _, w := range workers {
		var done atomic.Int64
		Run(7, w, func(i int) {
			for range 100 * i {
				runtime.Gosched()
			}
			done.Add(1)
		})
		if got := done.Load(); got != 7 {
			t.Errorf("workers=%d: Run returned after %d of 7 calls", w, got)
		}
	}
}

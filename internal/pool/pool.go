// Package pool spreads the independent iterations of a batch over a bounded
// set of goroutines: the fleet's per-rack shards, dcsim's sweep groups and
// the scenario matrix's cells.
package pool

// Run calls fn(i) once for every i in [0, n) and returns after the last call
// has returned. With min(workers, n) <= 1 the calls run in index order on the
// caller's goroutine and Run allocates nothing. Otherwise min(workers, n)
// goroutines take the indices in order from one channel, so no more calls
// than that run at once; fn must then be safe to call concurrently.
func Run(n, workers int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	for range workers {
		go func() {
			for i := <-jobs; i >= 0; i = <-jobs {
				fn(i)
			}
		}()
	}
	for i := range n {
		jobs <- i
	}
	// Each worker takes one -1 and stops; it takes it only after its last
	// call has returned, so the last send returns after every call.
	for range workers {
		jobs <- -1
	}
}

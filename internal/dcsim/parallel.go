// The epoch walk: one walk over a trace's consolidation epochs carries every
// config that shares the trace, the period and the worker count — the one
// config of Run, the six of CompareOpts, one (trace, period) group of a Sweep.
// A difference pass yields every epoch's Demand, then the epochs are planned
// and priced in contiguous ranges walked concurrently and merged in epoch
// order.

package dcsim

import (
	"sync"

	"repro/internal/consolidation"
	"repro/internal/exact"
)

// cut returns how many contiguous ranges of n items workers walk: one range
// per worker, with none empty, and one for workers of 0 or 1.
func cut(n, workers int) int { return max(1, min(workers, n)) }

// inParallel cuts [0, n) into parts contiguous ranges of near-equal length
// and calls fn(p, lo, hi) for the p-th, each on its own goroutine, the first
// on the caller's. It returns when every call has.
func inParallel(n, parts int, fn func(p, lo, hi int)) {
	var wg sync.WaitGroup
	for p := 1; p < parts; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(p, p*n/parts, (p+1)*n/parts)
		}()
	}
	fn(0, 0, n/parts)
	wg.Wait()
}

// walk simulates every config over the epochs of their trace, on its grid,
// and returns their results in config order. The configs are prepared, and
// share one trace, one consolidation period and one Workers value; Workers
// of 0 or 1 walks on the caller's goroutine.
//
// The difference pass (epochDemands) yields each epoch's Demand, then every
// config plans and prices each epoch's Demand from its own previous plan,
// starting from the all-awake posture, over Workers equal ranges of epochs.
// No locks are needed: the Demands are read-only and the goroutines write
// disjoint ranges of stats.
//
// With transition costs or chaos, each epoch additionally depends on the
// PREVIOUS epoch's plan, itself a pure function of the previous epoch's
// Demand, so a range that does not start at epoch 0 derives it with a
// one-epoch lookback — exactly the evaluation the neighbouring range
// performs for that epoch — and bit-identity with the sequential engine is
// preserved.
func walk(cfgs []Config, grid exact.Grid) []Result {
	if len(cfgs) == 0 {
		return nil
	}
	lead := &cfgs[0]
	spans := epochSpans(lead.Trace.HorizonSec, lead.ConsolidationPeriodSec)
	n := len(spans)
	demand := epochDemands(lead.Trace, grid, lead.ConsolidationPeriodSec, n, lead.Workers)
	stats := make([]epochStats, len(cfgs)*n) // config c's epoch i is stats[c*n+i]
	inParallel(n, cut(n, lead.Workers), func(_, lo, hi int) {
		prev := make([]consolidation.FleetPlan, len(cfgs))
		for c := range prev {
			prev[c] = consolidation.InitialPlan(lead.Trace.Machines)
			if lo > 0 && (cfgs[c].TransitionCosts || !cfgs[c].Chaos.Empty()) {
				prev[c] = epochPlan(&cfgs[c], demand[lo-1], spans[lo-1])
			}
		}
		for i := lo; i < hi; i++ {
			for c := range cfgs {
				stats[c*n+i], prev[c] = simulateEpoch(&cfgs[c], demand[i], spans[i], prev[c])
			}
		}
	})
	results := make([]Result, len(cfgs))
	for c := range cfgs {
		results[c] = mergeEpochStats(cfgs[c], stats[c*n:(c+1)*n])
	}
	return results
}

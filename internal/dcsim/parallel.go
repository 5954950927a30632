// The epoch walk: one walk over a trace's consolidation epochs carries every
// config that shares the trace, the period and the worker count — the one
// config of Run, the six of CompareOpts, one (trace, period) group of a Sweep.
// Contiguous shards of epochs are walked concurrently, and each config's
// per-epoch contributions are merged in epoch order, so the accumulation
// order — and therefore every floating-point result — matches a lone
// sequential run exactly: independent workers, deterministic merge.

package dcsim

import (
	"sync"

	"repro/internal/consolidation"
)

// shard is a half-open range [lo, hi) of epoch indices.
type shard struct {
	lo, hi int
}

// shardEpochs splits the epochs into at most workers contiguous shards
// covering [0, len(live)) exactly. An epoch costs about what its population
// holds (live[i], plus one so an empty epoch still counts), so the shards are
// cut at equal shares of that weight rather than at equal epoch counts: a
// trace whose load sits in one half of the day no longer leaves one worker
// with most of the work.
func shardEpochs(live []int, workers int) []shard {
	workers = max(1, min(workers, len(live)))
	total := len(live)
	for _, l := range live {
		total += l
	}
	shards := make([]shard, 0, workers)
	lo, acc, done := 0, 0, 0
	for i, l := range live {
		acc += l + 1
		if share := acc * workers / total; share > done {
			shards = append(shards, shard{lo: lo, hi: i + 1})
			lo, done = i+1, share
		}
	}
	return shards
}

// walk simulates every config over the epochs of the trace idx replays and
// returns their results in config order. The configs are validated and
// defaulted, and share one trace, one consolidation period and one Workers
// value; Workers of 0 or 1 is a single shard.
//
// Each shard's replayer seeks to the shard's first epoch — one filtered scan
// of the tasks started by then, one integer sort of those still running — and
// holds the same running set a sequential walk would at that epoch. It folds
// each epoch's population once into a consolidation.Demand, and every config
// plans and prices that Demand from its own previous plan, starting from
// the all-awake posture. No locks are needed: the index is read-only and the
// goroutines write disjoint ranges of stats.
//
// With transition costs or chaos, each epoch additionally depends on the
// PREVIOUS epoch's plan. That plan is itself a pure function of the previous
// epoch's population, so a shard that does not start at epoch 0 derives it
// with a one-epoch lookback: it replays the population of the epoch just
// before its range and evaluates the policy on it — exactly the evaluation
// the neighbouring shard performs for that epoch — and shard independence
// (and therefore bit-identity with the sequential engine) is preserved.
func walk(idx *ReplayIndex, cfgs []Config) []Result {
	if len(cfgs) == 0 {
		return nil
	}
	lead := &cfgs[0]
	spans := epochSpans(lead.Trace.HorizonSec, lead.ConsolidationPeriodSec)
	live := idx.liveCounts(lead.ConsolidationPeriodSec, len(spans))
	n := len(spans)
	stats := make([]epochStats, len(cfgs)*n) // config c's epoch i is stats[c*n+i]
	var wg sync.WaitGroup
	for _, sh := range shardEpochs(live, lead.Workers) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := newReplayer(idx, live)
			prev := make([]consolidation.FleetPlan, len(cfgs))
			for c := range prev {
				prev[c] = consolidation.InitialPlan(lead.Trace.Machines)
			}
			if sh.lo > 0 {
				lookback := spans[sh.lo-1]
				d := rep.population(lookback)
				for c := range cfgs {
					if cfgs[c].TransitionCosts || !cfgs[c].Chaos.Empty() {
						prev[c] = epochPlan(&cfgs[c], d, lookback)
					}
				}
			}
			for i := sh.lo; i < sh.hi; i++ {
				d := rep.population(spans[i])
				for c := range cfgs {
					stats[c*n+i], prev[c] = simulateEpoch(&cfgs[c], d, spans[i], prev[c])
				}
			}
		}()
	}
	wg.Wait()
	results := make([]Result, len(cfgs))
	for c := range cfgs {
		results[c] = mergeEpochStats(cfgs[c], stats[c*n:(c+1)*n])
	}
	return results
}

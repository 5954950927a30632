// The epoch walk: one walk over a trace's consolidation epochs carries every
// config that shares the trace, the period and the worker count — the one
// config of Run, the six of CompareOpts, one (trace, period) group of a Sweep
// — in contiguous shards walked concurrently and merged in epoch order.

package dcsim

import (
	"sync"

	"repro/internal/consolidation"
)

// shard is a half-open range [lo, hi) of epoch indices.
type shard struct {
	lo, hi int
}

// The shard cut's costs in VM arrivals or departures (85 ns each on a 2-vCPU
// Xeon): an epoch's nine roundings, one config's plan and price for an epoch,
// and the tasks a seek skips in the time of one event.
const epochCost, configCost, scansPerEvent = 12, 4, 12

// shardEpochs cuts the epochs into at most workers contiguous shards of equal
// cost, or keeps one when that cut would not beat it. Epoch e costs its
// arrivals, its departures (bucket e of the walk's departures, whose bounds
// are goneAt) and configs, and a shard starting at epoch k > 0 its seek too:
// epoch k-1's population to admit, the tasks started to scan.
func shardEpochs(arrive []int, goneAt []int32, workers, configs int) []shard {
	workers = max(1, workers)
	depart := func(e int) int { return int(goneAt[e+1] - goneAt[e]) }
	fixed, total := epochCost+configs*configCost, 0
	for e := range arrive {
		total += arrive[e] + depart(e) + fixed
	}
	shards := make([]shard, 0, workers)
	lo, acc, done, live, started, cost, costliest := 0, 0, 0, 0, 0, 0, 0
	for e := range arrive {
		acc += arrive[e] + depart(e) + fixed
		cost += arrive[e] + depart(e) + fixed
		live += arrive[e] - depart(e)
		started += arrive[e]
		if share := acc * workers / total; share > done {
			shards = append(shards, shard{lo: lo, hi: e + 1})
			lo, done, costliest = e+1, share, max(costliest, cost)
			cost = live + started/scansPerEvent + fixed // the next shard's seek
		}
	}
	if 8*costliest >= 5*total { // two shards at once each ran at 5/8 speed there
		return []shard{{lo: 0, hi: len(arrive)}}
	}
	return shards
}

// walk simulates every config over the epochs of the trace idx replays and
// returns their results in config order. The configs are prepared, and share
// one trace, one consolidation period and one Workers value; Workers of 0 or
// 1 is a single shard.
//
// Each shard's replayer seeks to the shard's first epoch, where its exact
// sums hold the Demand a sequential walk holds there, and every config plans
// and prices each epoch's Demand from its own previous plan, starting from
// the all-awake posture. No locks are needed: the index and the departure
// buckets are read-only and the goroutines write disjoint ranges of stats.
//
// With transition costs or chaos, each epoch additionally depends on the
// PREVIOUS epoch's plan, itself a pure function of the previous epoch's
// Demand, so a shard that does not start at epoch 0 derives it with a
// one-epoch lookback — exactly the evaluation the neighbouring shard
// performs for that epoch — and bit-identity with the sequential engine is
// preserved.
func walk(idx *ReplayIndex, cfgs []Config) []Result {
	if len(cfgs) == 0 {
		return nil
	}
	lead := &cfgs[0]
	period := lead.ConsolidationPeriodSec
	spans := epochSpans(lead.Trace.HorizonSec, period)
	n := len(spans)
	goneAt, gone := idx.departures(period, n)
	shards := []shard{{lo: 0, hi: n}}
	if lead.Workers > 1 {
		arrive := make([]int, n)
		for _, start := range idx.starts {
			arrive[start/period]++
		}
		shards = shardEpochs(arrive, goneAt, lead.Workers, len(cfgs))
	}
	stats := make([]epochStats, len(cfgs)*n) // config c's epoch i is stats[c*n+i]
	var wg sync.WaitGroup
	for _, sh := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := &replayer{idx: idx, spans: spans, goneAt: goneAt, gone: gone}
			prev := make([]consolidation.FleetPlan, len(cfgs))
			for c := range prev {
				prev[c] = consolidation.InitialPlan(lead.Trace.Machines)
			}
			if sh.lo > 0 {
				lookback := spans[sh.lo-1]
				d := rep.population(sh.lo - 1)
				for c := range cfgs {
					if cfgs[c].TransitionCosts || !cfgs[c].Chaos.Empty() {
						prev[c] = epochPlan(&cfgs[c], d, lookback)
					}
				}
			}
			for i := sh.lo; i < sh.hi; i++ {
				d := rep.population(i)
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

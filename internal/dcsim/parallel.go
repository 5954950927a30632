// The parallel engine: consolidation epochs are split into contiguous shards
// and simulated by a pool of workers, each walking the run's shared replay
// index with its own replayer. Every worker writes the per-epoch contributions
// of its shard into a disjoint part of a shared slice, and the caller merges
// the slice in epoch order, so the accumulation order — and therefore every
// floating-point result — matches the sequential engine exactly: independent
// workers, deterministic merge.

package dcsim

import (
	"sync"
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

// simulateShards fills stats[i] for every epoch i, one goroutine per shard.
// Each shard's replayer seeks to the shard's first epoch — one filtered scan
// of the tasks started by then, one integer sort of those still running — and
// holds the same running set the sequential walk would at that epoch, so a
// shard costs its own epochs and nothing else. No cross-shard state is shared
// and no locks are needed: the index is read-only and the goroutines write
// disjoint ranges of stats.
//
// With transition costs enabled, each epoch additionally depends on the
// PREVIOUS epoch's plan. That plan is itself a pure function of the previous
// epoch's population, so a shard that does not start at epoch 0 derives it
// with a one-epoch lookback: it replays the population of the epoch just
// before its range and evaluates the policy on it — exactly the evaluation
// the neighbouring shard performs for that epoch — and shard independence
// (and therefore bit-identity with the sequential engine) is preserved.
func simulateShards(cfg *Config, idx *ReplayIndex, spans []epochSpan, live []int, stats []epochStats) {
	var wg sync.WaitGroup
	for _, sh := range shardEpochs(live, cfg.Workers) {
		wg.Add(1)
		go func(sh shard) {
			defer wg.Done()
			rep := newReplayer(idx, live)
			prev := initialPlan(cfg)
			if (cfg.TransitionCosts || !cfg.Chaos.Empty()) && sh.lo > 0 {
				lookback := spans[sh.lo-1]
				prev = epochPlan(cfg, rep.population(lookback), lookback)
			}
			for i := sh.lo; i < sh.hi; i++ {
				stats[i], prev = simulateEpoch(cfg, rep.population(spans[i]), spans[i], prev)
			}
		}(sh)
	}
	wg.Wait()
}

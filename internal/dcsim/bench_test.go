package dcsim

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/consolidation"
	"repro/internal/energy"
	"repro/internal/trace"
)

// benchConfig is the canonical engine benchmark scenario: a 30 s
// consolidation period gives the engine many epochs to shard. End-to-end
// numbers come from benchmark/ (dcsim.run_seq_ms.*, dcsim.run_par_ms.*);
// these benchmarks are for profiles and quick comparisons while working.
func benchConfig(b *testing.B, workers int, transitions bool) Config {
	b.Helper()
	tr, err := trace.Generate(trace.GeneratorConfig{
		Name: "bench", Machines: 200, HorizonSec: 24 * 3600, Tasks: 3000,
		MemoryToCPURatio: 3, MeanUtilization: 0.35, IdleFraction: 0.25, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Trace:                  tr,
		Policy:                 consolidation.NewZombieStack(),
		Machine:                energy.HPProfile(),
		ServerSpec:             consolidation.DefaultServerSpec(),
		ConsolidationPeriodSec: 30,
		Workers:                workers,
		TransitionCosts:        transitions,
	}
}

func benchRun(b *testing.B, cfg Config) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDCSimSequential(b *testing.B) { benchRun(b, benchConfig(b, 0, false)) }

func BenchmarkDCSimParallel(b *testing.B) {
	benchRun(b, benchConfig(b, runtime.GOMAXPROCS(0), false))
}

func BenchmarkDCSimTransitions(b *testing.B) { benchRun(b, benchConfig(b, 0, true)) }

// BenchmarkDCSimLargeLive is the regime benchConfig's 3 000 tasks never reach:
// gang-scheduled long jobs keep a five-digit population live, which is where a
// per-admission cost in the replayer turns quadratic.
func BenchmarkDCSimLargeLive(b *testing.B) {
	tr, err := trace.GenerateFamily("mlbatch", trace.FamilyParams{Machines: 1300, HorizonSec: 24 * 3600, Tasks: 20000, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{0, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchRun(b, Config{
				Trace: tr, Policy: consolidation.NewZombieStack(), Machine: energy.HPProfile(),
				ServerSpec: consolidation.DefaultServerSpec(), ConsolidationPeriodSec: 300,
				Workers: workers, TransitionCosts: true,
			})
		})
	}
}

// BenchmarkCompareOpts is one offline_compare pass over its memory-heavy
// trace: the six Figure 10 runs in one walk, transition costs on, epochs
// sharded over GOMAXPROCS workers. Run it with -cpuprofile to see where a
// comparison spends its time.
func BenchmarkCompareOpts(b *testing.B) {
	gen := trace.ModifiedConfig()
	gen.Machines, gen.Tasks, gen.HorizonSec, gen.Seed = 1300, 20000, 24*3600, 42
	tr, err := trace.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	opts := CompareOptions{Workers: runtime.GOMAXPROCS(0), TransitionCosts: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompareOpts(tr, energy.Profiles(), consolidation.DefaultServerSpec(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// countAllocs returns the number of heap allocations fn performs.
func countAllocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestEpochLoopAllocationBudget pins the allocation-free epoch loop: a run's
// allocation count is dominated by per-run setup (the replay index, the
// replayer and its buffers, the spans and stats slices) and must NOT scale
// with the number of epochs. Tripling the epoch count by shrinking the
// consolidation period may only add a fixed slack — if the per-epoch path
// (population, plan, pricing, stats) starts allocating, the growth is at
// least one allocation per extra epoch and the budget fails loudly.
func TestEpochLoopAllocationBudget(t *testing.T) {
	tr := engineTestTrace(t)
	cfg := Config{
		Trace:      tr,
		Policy:     consolidation.NewZombieStack(),
		Machine:    energy.HPProfile(),
		ServerSpec: consolidation.DefaultServerSpec(),
	}
	runOnce := func(periodSec int64) func() {
		c := cfg
		c.ConsolidationPeriodSec = periodSec
		return func() {
			if _, err := Run(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm up lazy runtime and profile state (the Sz power-fraction cache,
	// trace bookkeeping) so neither measurement pays first-use allocations.
	runOnce(300)()
	runOnce(100)()

	base := countAllocs(runOnce(300))
	tripled := countAllocs(runOnce(100))

	spansBase := len(epochSpans(tr.HorizonSec, 300))
	spansTripled := len(epochSpans(tr.HorizonSec, 100))
	extraEpochs := uint64(spansTripled - spansBase)
	// The budget is far below one allocation per extra epoch (the signature
	// of a per-epoch allocation creeping back in) but absorbs background
	// runtime noise between the two ReadMemStats windows.
	budget := base + extraEpochs/4
	if tripled > budget {
		t.Fatalf("epoch loop allocates per epoch: %d epochs cost %d allocs, %d epochs cost %d (budget %d)",
			spansBase, base, spansTripled, tripled, budget)
	}
}

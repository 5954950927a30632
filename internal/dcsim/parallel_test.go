package dcsim

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/consolidation"
	"repro/internal/energy"
	"repro/internal/trace"
)

// engineTestTrace generates a small but non-trivial trace (many epochs,
// overlapping tasks) for the engine tests.
func engineTestTrace(t testing.TB) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.GeneratorConfig{
		Name: "engine-test", Machines: 60, HorizonSec: 6 * 3600, Tasks: 500,
		MemoryToCPURatio: 3, MeanUtilization: 0.35, IdleFraction: 0.25, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestParallelMatchesSequential is the bit-identity guarantee: sharding the
// per-epoch accounting across workers must not change a single output field,
// for every policy on every machine profile.
func TestParallelMatchesSequential(t *testing.T) {
	tr := engineTestTrace(t)
	for _, m := range energy.Profiles() {
		for _, pol := range consolidation.AllPolicies() {
			cfg := Config{
				Trace:      tr,
				Policy:     pol,
				Machine:    m,
				ServerSpec: consolidation.DefaultServerSpec(),
			}
			seq, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", m.Name, pol.Name(), err)
			}
			for _, workers := range []int{2, 4, 7, 64} {
				cfg.Workers = workers
				par, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", m.Name, pol.Name(), workers, err)
				}
				if !reflect.DeepEqual(seq, par) {
					t.Errorf("%s/%s workers=%d: parallel result diverges\nseq: %+v\npar: %+v",
						m.Name, pol.Name(), workers, seq, par)
				}
			}
		}
	}
}

// TestParallelEnergySavingExact pins the headline metric explicitly: the
// EnergySaving outputs of a workers=4 run and a sequential run are identical,
// not merely close.
func TestParallelEnergySavingExact(t *testing.T) {
	tr := engineTestTrace(t)
	cfg := Config{
		Trace:      tr,
		Policy:     consolidation.NewZombieStack(),
		Machine:    energy.HPProfile(),
		ServerSpec: consolidation.DefaultServerSpec(),
	}
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.SavingPercent != par.SavingPercent {
		t.Fatalf("SavingPercent diverges: sequential %v, parallel %v", seq.SavingPercent, par.SavingPercent)
	}
	if seq.EnergyJoules != par.EnergyJoules || seq.BaselineJoules != par.BaselineJoules {
		t.Fatalf("energy integrals diverge: sequential %+v, parallel %+v", seq, par)
	}
}

// TestShardEpochs checks the shard plan covers every epoch exactly once with
// contiguous, non-empty ranges, that equal populations give near-equal shards,
// and that skewed populations are cut by weight, not by epoch count.
func TestShardEpochs(t *testing.T) {
	uniform := func(n int) []int { return slices.Repeat([]int{40}, n) }
	skewed := append(slices.Repeat([]int{900}, 10), slices.Repeat([]int{0}, 90)...)
	cases := []struct {
		live    []int
		workers int
	}{
		{uniform(1), 1}, {uniform(1), 8}, {uniform(5), 2}, {uniform(7), 3}, {uniform(8), 8},
		{uniform(100), 7}, {uniform(3), 0}, {skewed, 2}, {skewed, 64}, {[]int{0, 0, 5000, 0}, 3},
	}
	for _, c := range cases {
		n := len(c.live)
		shards := shardEpochs(c.live, c.workers)
		if len(shards) > max(1, c.workers) {
			t.Fatalf("n=%d workers=%d: %d shards", n, c.workers, len(shards))
		}
		lo := 0
		for _, sh := range shards {
			if sh.lo != lo {
				t.Fatalf("n=%d workers=%d: gap or overlap at %d (shard starts at %d)", n, c.workers, lo, sh.lo)
			}
			if sh.hi <= sh.lo {
				t.Fatalf("n=%d workers=%d: empty shard %+v", n, c.workers, sh)
			}
			lo = sh.hi
		}
		if lo != n {
			t.Fatalf("n=%d workers=%d: shards end at %d, want %d", n, c.workers, lo, n)
		}
		if slices.Min(c.live) != slices.Max(c.live) {
			continue
		}
		for _, sh := range shards {
			if size := sh.hi - sh.lo; size > n/max(1, min(c.workers, n))+1 {
				t.Fatalf("n=%d workers=%d: unbalanced shard %+v", n, c.workers, sh)
			}
		}
	}
	// Ten busy epochs then ninety idle ones: two workers split the busy ten.
	if got := shardEpochs(skewed, 2); got[0].hi > 6 {
		t.Fatalf("skewed load cut by epoch count, not weight: %+v", got)
	}
}

// TestParallelFreshProfileRaceFree runs the parallel engine with a freshly
// constructed machine profile (no precomputed Sz entry): the shard goroutines
// all evaluate the Sz power fraction, which must not mutate the shared
// profile (caught by -race if it does).
func TestParallelFreshProfileRaceFree(t *testing.T) {
	cfg := Config{
		Trace:      engineTestTrace(t),
		Policy:     consolidation.NewZombieStack(),
		Machine:    energy.HPProfile(),
		ServerSpec: consolidation.DefaultServerSpec(),
		Workers:    8,
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsNegativeWorkers checks validation of the new knob.
func TestRunRejectsNegativeWorkers(t *testing.T) {
	cfg := Config{
		Trace:      engineTestTrace(t),
		Policy:     consolidation.NewNeat(),
		Machine:    energy.HPProfile(),
		ServerSpec: consolidation.DefaultServerSpec(),
		Workers:    -1,
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected an error for negative workers")
	}
}

// TestCompareOptsWorkersMatchSequential checks the comparison entry point is
// engine agnostic too.
func TestCompareOptsWorkersMatchSequential(t *testing.T) {
	tr := engineTestTrace(t)
	spec := consolidation.DefaultServerSpec()
	seq, err := CompareOpts(tr, energy.Profiles(), spec, CompareOptions{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	par, err := CompareOpts(tr, energy.Profiles(), spec, CompareOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("CompareOpts with 4 workers diverges from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestCompareOptsMatchesSeparateRuns: a comparison walks its six runs
// together, planning one population per epoch, and each result must equal the
// same config walked alone — on a balanced and a gang-skewed trace, sequential
// and sharded, transition costs off and on.
func TestCompareOptsMatchesSeparateRuns(t *testing.T) {
	ml, err := trace.GenerateFamily("mlbatch", trace.FamilyParams{Machines: 60, HorizonSec: 6 * 3600, Tasks: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	spec := consolidation.DefaultServerSpec()
	for _, tr := range []*trace.Trace{engineTestTrace(t), ml} {
		idx, err := NewReplayIndex(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 4} {
			for _, costed := range []bool{false, true} {
				got, err := CompareOpts(tr, energy.Profiles(), spec, CompareOptions{Workers: workers, TransitionCosts: costed})
				if err != nil {
					t.Fatal(err)
				}
				var want []Result
				for _, m := range energy.Profiles() {
					for _, pol := range consolidation.Contenders() {
						r, err := RunIndexed(Config{
							Trace: tr, Policy: pol, Machine: m, ServerSpec: spec,
							Workers: workers, TransitionCosts: costed,
						}, idx)
						if err != nil {
							t.Fatal(err)
						}
						want = append(want, r)
					}
				}
				if !reflect.DeepEqual(got.Results, want) {
					t.Errorf("%s workers=%d transitions=%v: CompareOpts diverges from separate runs\ncompare: %+v\nruns:    %+v",
						tr.Name, workers, costed, got.Results, want)
				}
			}
		}
	}
}

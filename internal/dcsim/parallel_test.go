package dcsim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/chaos"
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
		for _, workers := range []int{0, 2, 4} {
			for _, costed := range []bool{false, true} {
				got, err := CompareOpts(tr, energy.Profiles(), spec, CompareOptions{Workers: workers, TransitionCosts: costed})
				if err != nil {
					t.Fatal(err)
				}
				var want []Result
				for _, m := range energy.Profiles() {
					for _, pol := range consolidation.Contenders() {
						r, err := Run(Config{
							Trace: tr, Policy: pol, Machine: m, ServerSpec: spec,
							Workers: workers, TransitionCosts: costed,
						})
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

// relabel returns a copy of tr with its rows shuffled and every task ID
// replaced through a random bijection onto IDs of one to nineteen digits,
// either sign, so the ID order of the copy's tasks is unrelated to theirs.
func relabel(tr *trace.Trace, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	out := *tr
	out.Tasks = make([]trace.Task, 0, len(tr.Tasks))
	used := map[int]bool{}
	for _, i := range rng.Perm(len(tr.Tasks)) {
		task := tr.Tasks[i]
		for used[task.ID] || task.ID == tr.Tasks[i].ID {
			task.ID = int(rng.Int63()>>uint(rng.Intn(63))) * (1 - 2*rng.Intn(2))
		}
		used[task.ID] = true
		out.Tasks = append(out.Tasks, task)
	}
	return &out
}

// TestRelabelLeavesResultsBitIdentical is the offline relabel law: any
// bijection of task IDs, rows shuffled too, leaves every Result bit for bit
// — with transition costs, under chaos and sharded — because every demand
// sum is exact and so does not depend on the ID order the ranks follow.
func TestRelabelLeavesResultsBitIdentical(t *testing.T) {
	tr := engineTestTrace(t)
	plan, err := chaos.Scenario("heavy", tr.HorizonSec, tr.Machines, 7)
	if err != nil {
		t.Fatal(err)
	}
	spec := consolidation.DefaultServerSpec()
	results := func(tr *trace.Trace) []Result {
		cmp, err := CompareOpts(tr, energy.Profiles(), spec, CompareOptions{Workers: 3, TransitionCosts: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range consolidation.AllPolicies() {
			res, err := Run(Config{
				Trace: tr, Policy: pol, Machine: energy.HPProfile(), ServerSpec: spec,
				ConsolidationPeriodSec: 120, TransitionCosts: true, Chaos: plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			cmp.Results = append(cmp.Results, res)
		}
		return cmp.Results
	}
	want := results(tr)
	for seed := int64(1); seed <= 3; seed++ {
		for i, got := range results(relabel(tr, seed)) {
			if !bitEqual(got, want[i]) {
				t.Fatalf("relabelling %d: run %d differs\n got %+v\nwant %+v", seed, i, got, want[i])
			}
		}
	}
}

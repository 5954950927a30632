package dcsim

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/consolidation"
	"repro/internal/energy"
	"repro/internal/trace"
)

// TestParallelMatchesSequentialWithTransitions extends the bit-identity
// guarantee to the event-driven engine: with transition costs enabled the
// per-epoch bill depends on the previous epoch's plan, which shards derive
// with a one-epoch lookback, and the parallel result must still not differ in
// a single output field.
func TestParallelMatchesSequentialWithTransitions(t *testing.T) {
	tr := engineTestTrace(t)
	for _, m := range energy.Profiles() {
		for _, pol := range consolidation.AllPolicies() {
			cfg := Config{
				Trace:           tr,
				Policy:          pol,
				Machine:         m,
				ServerSpec:      consolidation.DefaultServerSpec(),
				TransitionCosts: true,
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
					t.Errorf("%s/%s workers=%d: costed parallel result diverges\nseq: %+v\npar: %+v",
						m.Name, pol.Name(), workers, seq, par)
				}
			}
		}
	}
}

// TestTransitionCostsReduceSavings is the regression the event engine exists
// for: the steady-state integration is an optimistic bound, so charging the
// transitions of the same scenario must strictly lower the reported saving
// for every contender policy.
func TestTransitionCostsReduceSavings(t *testing.T) {
	tr := engineTestTrace(t)
	for _, m := range energy.Profiles() {
		for _, pol := range consolidation.Contenders() {
			cfg := Config{
				Trace:      tr,
				Policy:     pol,
				Machine:    m,
				ServerSpec: consolidation.DefaultServerSpec(),
			}
			steady, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.TransitionCosts = true
			costed, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !costed.TransitionCosts || steady.TransitionCosts {
				t.Errorf("%s/%s: TransitionCosts flags wrong: steady=%v costed=%v",
					m.Name, pol.Name(), steady.TransitionCosts, costed.TransitionCosts)
			}
			if costed.TransitionJoules <= 0 {
				t.Errorf("%s/%s: no transition energy charged", m.Name, pol.Name())
			}
			if costed.StateTransitions <= 0 {
				t.Errorf("%s/%s: no state transitions counted", m.Name, pol.Name())
			}
			if costed.SavingPercent >= steady.SavingPercent {
				t.Errorf("%s/%s: costed saving %.4f%% not below steady %.4f%%",
					m.Name, pol.Name(), costed.SavingPercent, steady.SavingPercent)
			}
			if costed.BaselineJoules != steady.BaselineJoules {
				t.Errorf("%s/%s: baseline must not pay transition costs (%.1f vs %.1f)",
					m.Name, pol.Name(), costed.BaselineJoules, steady.BaselineJoules)
			}
			if got, want := costed.EnergyJoules, steady.EnergyJoules+costed.TransitionJoules; !closeEnough(got, want) {
				t.Errorf("%s/%s: EnergyJoules %.3f should be steady %.3f + transitions %.3f",
					m.Name, pol.Name(), got, steady.EnergyJoules, costed.TransitionJoules)
			}
		}
	}
}

// closeEnough compares two accumulations of the same terms added in different
// groupings (steady+transitions summed per epoch versus across epochs).
func closeEnough(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return diff/scale < 1e-9
}

// TestFirstEpochPaysConsolidation pins the initial posture: the fleet starts
// with every server awake (the baseline posture), so even a single-epoch run
// pays the suspends that consolidate it.
func TestFirstEpochPaysConsolidation(t *testing.T) {
	// A single 300 s epoch with a lightly loaded fleet: the plan sleeps most
	// of the 60 hosts, and all of those suspends happen in epoch 0.
	tr, err := trace.Generate(trace.GeneratorConfig{
		Name: "first-epoch", Machines: 60, HorizonSec: 300, Tasks: 40,
		MemoryToCPURatio: 3, MeanUtilization: 0.35, IdleFraction: 0.25, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Trace:                  tr,
		Policy:                 consolidation.NewZombieStack(),
		Machine:                energy.HPProfile(),
		ServerSpec:             consolidation.DefaultServerSpec(),
		ConsolidationPeriodSec: tr.HorizonSec, // one epoch
		TransitionCosts:        true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 1 {
		t.Fatalf("epochs = %d, want 1", res.Epochs)
	}
	if res.MeanSleepHosts+res.MeanZombieHosts == 0 {
		t.Fatalf("scenario did not consolidate at all: %+v", res)
	}
	if res.StateTransitions == 0 || res.TransitionJoules <= 0 {
		t.Errorf("first epoch should pay the initial consolidation: %+v", res)
	}
}

// TestMigrationDrainCharged checks the drain accounting is populated when the
// plan releases hosts (the engine trace has enough churn for that to happen).
func TestMigrationDrainCharged(t *testing.T) {
	tr := engineTestTrace(t)
	cfg := Config{
		Trace:           tr,
		Policy:          consolidation.NewNeat(),
		Machine:         energy.HPProfile(),
		ServerSpec:      consolidation.DefaultServerSpec(),
		TransitionCosts: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 || res.MigrationSeconds <= 0 {
		t.Errorf("expected migration drains over %d epochs: %+v", res.Epochs, res)
	}
}

// TestSweepTransitionAxis checks the sweep's transition-cost axis: the grid
// doubles, both branches are retrievable, and the costed branch saves less.
func TestSweepTransitionAxis(t *testing.T) {
	cfg := SweepConfig{
		Policies:        consolidation.Contenders(),
		Machines:        energy.Profiles(),
		Traces:          figure10Traces(t),
		PeriodsSec:      []int64{300},
		TransitionCosts: []bool{false, true},
		ServerSpec:      consolidation.DefaultServerSpec(),
		SweepWorkers:    4,
	}
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := len(cfg.Policies) * len(cfg.Machines) * len(cfg.Traces) * len(cfg.PeriodsSec) * 2
	if len(res.Runs) != wantRuns {
		t.Fatalf("runs = %d, want %d", len(res.Runs), wantRuns)
	}
	steady, ok := res.Saving("google-like", "HP", "zombiestack", 300)
	i := slices.IndexFunc(res.Runs, func(r Result) bool {
		return r.Trace == "google-like" && r.Machine == "HP" && r.Policy == "zombiestack" && r.PeriodSec == 300 && r.TransitionCosts
	})
	if !ok || i < 0 {
		t.Fatal("missing grid cells for the transition axis")
	}
	costed := res.Runs[i].SavingPercent
	if costed >= steady {
		t.Errorf("costed saving %.4f%% not below steady %.4f%%", costed, steady)
	}

	// A mixed-axis sweep must keep the two accounting models apart in the
	// per-policy aggregation instead of blending them into one statistic.
	sums := res.SummaryByPolicy()
	if _, blended := sums["zombiestack"]; blended {
		t.Error("mixed-axis summary blends steady and costed runs under one key")
	}
	s, okS := sums["zombiestack (steady)"]
	c, okC := sums["zombiestack (costed)"]
	if !okS || !okC {
		t.Fatalf("mixed-axis summary keys missing: %v", sums)
	}
	if c.Mean >= s.Mean {
		t.Errorf("costed mean %.4f%% not below steady mean %.4f%%", c.Mean, s.Mean)
	}

	// A costed-only sweep still resolves Saving lookups (falling back to the
	// costed branch) and keeps unqualified policy keys.
	cfg.TransitionCosts = []bool{true}
	onlyCosted, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := onlyCosted.Saving("google-like", "HP", "zombiestack", 300); !ok || got != costed {
		t.Errorf("costed-only Saving = (%v, %v), want (%v, true)", got, ok, costed)
	}
	if _, ok := onlyCosted.SummaryByPolicy()["zombiestack"]; !ok {
		t.Error("single-branch sweep should keep unqualified policy keys")
	}
}

package dcsim

import (
	"math"
	"testing"

	"repro/internal/acpi"
	"repro/internal/consolidation"
	"repro/internal/energy"
	"repro/internal/trace"
)

func testTrace(t *testing.T, modified bool) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultConfig()
	if modified {
		cfg = trace.ModifiedConfig()
	}
	cfg.Tasks = 600
	cfg.Machines = 60
	cfg.HorizonSec = 6 * 3600
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConfigValidation(t *testing.T) {
	tr := testTrace(t, false)
	hp, _ := energy.ProfileByName("HP")
	good := Config{Trace: tr, Policy: consolidation.NewNeat(), Machine: hp, ServerSpec: consolidation.DefaultServerSpec()}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{Trace: tr},
		{Trace: tr, Policy: consolidation.NewNeat()},
		{Trace: tr, Policy: consolidation.NewNeat(), Machine: hp},
		{Trace: &trace.Trace{}, Policy: consolidation.NewNeat(), Machine: hp, ServerSpec: consolidation.DefaultServerSpec()},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestRunProducesSavings(t *testing.T) {
	tr := testTrace(t, false)
	hp, _ := energy.ProfileByName("HP")
	res, err := Run(Config{Trace: tr, Policy: consolidation.NewNeat(), Machine: hp, ServerSpec: consolidation.DefaultServerSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyJoules <= 0 || res.BaselineJoules <= 0 {
		t.Fatalf("energy should be positive: %+v", res)
	}
	if res.EnergyJoules >= res.BaselineJoules {
		t.Error("consolidation should use less energy than the baseline")
	}
	if res.SavingPercent <= 0 || res.SavingPercent >= 100 {
		t.Errorf("saving = %.1f%%, implausible", res.SavingPercent)
	}
	if res.Epochs == 0 {
		t.Error("epochs should be counted")
	}
	if res.MeanActiveHosts <= 0 || res.MeanActiveHosts > float64(tr.Machines) {
		t.Errorf("mean active hosts = %v", res.MeanActiveHosts)
	}
	if res.MeanActiveUtilization <= 0 {
		t.Error("active utilization should be positive")
	}
}

func TestFigure10Ordering(t *testing.T) {
	// The headline result: ZombieStack > Oasis > Neat in energy saving, on
	// both machine profiles and both trace variants, and ZombieStack's
	// relative advantage over Neat grows on the modified (memory-heavy)
	// traces — the paper reports it reaching about 86%.
	spec := consolidation.DefaultServerSpec()
	machines := energy.Profiles()
	var gapOriginal, gapModified float64
	for _, modified := range []bool{false, true} {
		tr := testTrace(t, modified)
		cmp, err := CompareOpts(tr, machines, spec, CompareOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(cmp.Results) != len(machines)*3 {
			t.Fatalf("results = %d", len(cmp.Results))
		}
		for _, m := range machines {
			neat, ok1 := cmp.Saving("neat", m.Name)
			oasis, ok2 := cmp.Saving("oasis", m.Name)
			zombie, ok3 := cmp.Saving("zombiestack", m.Name)
			if !ok1 || !ok2 || !ok3 {
				t.Fatalf("missing results for %s", m.Name)
			}
			if !(zombie > oasis && oasis > neat) {
				t.Errorf("modified=%v %s: ordering violated neat=%.1f oasis=%.1f zombie=%.1f",
					modified, m.Name, neat, oasis, zombie)
			}
			if neat <= 5 || zombie >= 95 {
				t.Errorf("savings out of plausible range: neat=%.1f zombie=%.1f", neat, zombie)
			}
			if m.Name == "HP" {
				gap := (zombie - neat) / neat
				if modified {
					gapModified = gap
				} else {
					gapOriginal = gap
				}
			}
		}
	}
	if gapModified <= gapOriginal {
		t.Errorf("zombiestack's relative advantage over neat should grow on the memory-heavy traces (%.2f vs %.2f)",
			gapModified, gapOriginal)
	}
}

func TestSavingLookupMiss(t *testing.T) {
	c := Comparison{}
	if _, ok := c.Saving("neat", "HP"); ok {
		t.Error("empty comparison should miss")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestDefaultsApplied(t *testing.T) {
	res, err := Run(Config{
		Trace: engineTestTrace(t), Policy: consolidation.NewNeat(), Machine: energy.HPProfile(),
		ServerSpec: consolidation.DefaultServerSpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeriodSec != 300 {
		t.Errorf("default period = %d, want 300", res.PeriodSec)
	}
}

// TestPosturePowerMatchesLedger checks the one pricing rule against the
// rack's energy ledger: a posture's PosturePowerWatts·dt, and the baseline's
// BaselinePowerWatts·dt, equal the sum of per-server energy.Accumulator
// joules for the same states over the same interval. An Oasis memory server
// has no ACPI state of its own; the ledger charges it 0.4 of peak power.
func TestPosturePowerMatchesLedger(t *testing.T) {
	const dtSec = 300.0
	ledger := func(m *energy.MachineProfile, state acpi.SleepState, util float64, n int) float64 {
		var joules float64
		for range n {
			acc := energy.NewAccumulator(m)
			acc.SetState(0, state)
			acc.SetUtilization(0, util)
			acc.AdvanceTo(int64(dtSec * 1e9))
			joules += acc.Joules()
		}
		return joules
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }
	postures := []consolidation.FleetPlan{
		{ActiveHosts: 10},
		{ActiveHosts: 7, ActiveCPUUtilization: 0.37},
		{ActiveHosts: 4, ActiveCPUUtilization: 1, ZombieHosts: 5, SleepHosts: 3},
		{ActiveHosts: 2, ActiveCPUUtilization: 0.6, MemoryServers: 3, SleepHosts: 7},
		{ActiveHosts: 3, ActiveCPUUtilization: 0.25, ZombieHosts: 2, MemoryServers: 1, SleepHosts: 6},
		{SleepHosts: 12},
	}
	spec := consolidation.DefaultServerSpec()
	for _, m := range energy.Profiles() {
		for _, plan := range postures {
			want := ledger(m, acpi.S0, plan.ActiveCPUUtilization, plan.ActiveHosts) +
				ledger(m, acpi.Sz, 0, plan.ZombieHosts) +
				ledger(m, acpi.S3, 0, plan.SleepHosts) +
				float64(plan.MemoryServers)*0.4*m.MaxPowerWatts*dtSec
			if got := PosturePowerWatts(m, plan) * dtSec; !near(got, want) {
				t.Errorf("%s %+v: posture %v J, ledger %v J", m.Name, plan, got, want)
			}
		}
		for _, usedCPU := range []float64{0, 13.5, 80, 1e6} {
			const servers = 12
			util := min(usedCPU/(servers*spec.Cores), 1)
			want := ledger(m, acpi.S0, util, servers)
			if got := BaselinePowerWatts(m, spec, usedCPU, servers) * dtSec; !near(got, want) {
				t.Errorf("%s used %v cores: baseline %v J, ledger %v J", m.Name, usedCPU, got, want)
			}
		}
	}
}

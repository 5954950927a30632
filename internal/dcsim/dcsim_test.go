package dcsim

import (
	"math"
	"slices"
	"strings"
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
		prices := m.Prices()
		for _, plan := range postures {
			want := ledger(m, acpi.S0, plan.ActiveCPUUtilization, plan.ActiveHosts) +
				ledger(m, acpi.Sz, 0, plan.ZombieHosts) +
				ledger(m, acpi.S3, 0, plan.SleepHosts) +
				float64(plan.MemoryServers)*0.4*m.MaxPowerWatts*dtSec
			if got := PosturePowerWatts(&prices, plan) * dtSec; !near(got, want) {
				t.Errorf("%s %+v: posture %v J, ledger %v J", m.Name, plan, got, want)
			}
		}
		for _, usedCPU := range []float64{0, 13.5, 80, 1e6} {
			const servers = 12
			util := min(usedCPU/(servers*spec.Cores), 1)
			want := ledger(m, acpi.S0, util, servers)
			if got := BaselinePowerWatts(&prices, spec, usedCPU, servers) * dtSec; !near(got, want) {
				t.Errorf("%s used %v cores: baseline %v J, ledger %v J", m.Name, usedCPU, got, want)
			}
		}
	}
}

// TestTraceErrorWinsOverConfig: a walk validates its trace once, before any
// config, so when the trace and a config are both bad every entry point
// reports the trace's own error, and a good trace lets the config's through.
func TestTraceErrorWinsOverConfig(t *testing.T) {
	bad := *engineTestTrace(t)
	bad.Tasks = slices.Clone(bad.Tasks)
	bad.Tasks[7].UsedCPU = 2 * bad.Tasks[7].BookedCPU
	traceErr := bad.Validate()
	if traceErr == nil {
		t.Fatal("the trace validates")
	}
	spec := consolidation.DefaultServerSpec()
	noMachine := Config{Trace: &bad, Policy: consolidation.NewNeat(), ServerSpec: spec}
	if _, err := Run(noMachine); err == nil || err.Error() != traceErr.Error() {
		t.Fatalf("Run: got %v, want %v", err, traceErr)
	}
	if _, err := CompareOpts(&bad, []*energy.MachineProfile{nil}, spec, CompareOptions{}); err == nil || err.Error() != traceErr.Error() {
		t.Fatalf("CompareOpts: got %v, want %v", err, traceErr)
	}
	good := engineTestTrace(t)
	want := "dcsim: a machine power profile is required"
	if _, err := CompareOpts(good, []*energy.MachineProfile{energy.HPProfile(), nil}, spec, CompareOptions{}); err == nil || err.Error() != want {
		t.Fatalf("CompareOpts with a valid trace: got %v, want %q", err, want)
	}
	if _, err := Sweep(SweepConfig{Policies: consolidation.Contenders(), Machines: []*energy.MachineProfile{nil}, Traces: []*trace.Trace{good}, PeriodsSec: []int64{300, 600}}); err == nil || err.Error() != want {
		t.Fatalf("Sweep with a valid trace: got %v, want %q", err, want)
	}
}

// FuzzScanValidates holds the scan that validates a walk's trace to
// Trace.Validate: one task of a small valid trace takes the fuzzed fields,
// and Run must fail with Trace.Validate's error, the same text, or succeed
// where it succeeds, at every worker count from 1 to 4.
func FuzzScanValidates(f *testing.F) {
	tr, err := trace.Generate(trace.GeneratorConfig{
		Name: "scan", Machines: 12, HorizonSec: 2 * 3600, Tasks: 40,
		MemoryToCPURatio: 3, MeanUtilization: 0.35, IdleFraction: 0.25, Seed: 5,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), int64(0), int64(600), 1.0, 2.0, 0.5, 1.0)                  // valid
	f.Add(uint8(20), int64(300), int64(300), 1.0, 2.0, 0.5, 1.0)               // ends as it starts
	f.Add(uint8(39), int64(0), int64(600), math.NaN(), 2.0, 0.5, 1.0)          // non-finite
	f.Add(uint8(7), int64(0), int64(600), 1.0, math.Inf(1), 0.5, 1.0)          // non-finite
	f.Add(uint8(13), int64(0), int64(600), 0.0, 2.0, 0.0, 1.0)                 // no booking
	f.Add(uint8(26), int64(0), int64(600), 1.0, 2.0, 1.6, 1.0)                 // implausible CPU
	f.Add(uint8(30), int64(0), int64(600), 1.0, 2.0, 0.5, -1.0)                // implausible memory
	f.Add(uint8(10), int64(-1), int64(600), 1.0, 2.0, 0.5, 1.0)                // starts before the horizon
	f.Add(uint8(19), int64(7000), int64(2*3600+1), 1.0, 2.0, 0.5, 1.0)         // ends after it
	f.Add(uint8(5), int64(0), int64(2*3600), 1e300, 1e-300, 0x1p-1074, 1e-300) // valid, a wide grid
	f.Fuzz(func(t *testing.T, pos uint8, start, end int64, bookedCPU, bookedMem, usedCPU, usedMem float64) {
		edited := *tr
		edited.Tasks = slices.Clone(tr.Tasks)
		task := &edited.Tasks[int(pos)%len(edited.Tasks)]
		task.StartSec, task.EndSec = start, end
		task.BookedCPU, task.BookedMemGiB, task.UsedCPU, task.UsedMemGiB = bookedCPU, bookedMem, usedCPU, usedMem
		want := edited.Validate()
		for workers := 1; workers <= 4; workers++ {
			_, err := Run(Config{
				Trace: &edited, Policy: consolidation.NewZombieStack(), Machine: energy.HPProfile(),
				ServerSpec: consolidation.DefaultServerSpec(), ConsolidationPeriodSec: 900, Workers: workers,
			})
			if (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
				t.Fatalf("task %d edited to %+v, %d workers: Run returned %v, Trace.Validate %v", task.ID, *task, workers, err, want)
			}
		}
	})
}

// TestEpochClockCannotOverflow: the epoch walk steps its clock a period at a
// time to the first start past the horizon, so a horizon within a period of
// MaxInt64 would wrap it negative and grow the epoch list without bound. Run
// refuses such a horizon upfront, the 300 s default period included, and
// walks one a period short of it.
func TestEpochClockCannotOverflow(t *testing.T) {
	run := func(horizon, period int64) error {
		tr := &trace.Trace{Name: "edge", Machines: 1, HorizonSec: horizon, Tasks: []trace.Task{
			{ID: 1, StartSec: 0, EndSec: 60, BookedCPU: 1, BookedMemGiB: 1, UsedCPU: 0.5, UsedMemGiB: 0.5},
		}}
		_, err := Run(Config{Trace: tr, Policy: consolidation.NewNeat(), Machine: energy.HPProfile(),
			ServerSpec: consolidation.DefaultServerSpec(), ConsolidationPeriodSec: period})
		return err
	}
	for _, c := range []struct{ horizon, period int64 }{{math.MaxInt64 - 1, 1 << 62}, {math.MaxInt64 - 299, 0}} {
		if err := run(c.horizon, c.period); err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("horizon %d, period %d: error %v, want an overflow", c.horizon, c.period, err)
		}
	}
	if err := run(math.MaxInt64-1<<62, 1<<62); err != nil {
		t.Errorf("a horizon a period short of MaxInt64: %v", err)
	}
}

package autopilot

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/acpi"
	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/dcsim"
	"repro/internal/energy"
	"repro/internal/trace"
)

// chaosTrace is a smaller diurnal trace so the chaos matrix (4 simulations
// per report) stays fast.
func chaosTrace(t testing.TB) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Machines = 80
	cfg.Tasks = 900
	cfg.HorizonSec = 8 * 3600
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestChaosDeterminism pins the determinism contract: the same seed and
// fault plan produce a bit-identical chaos.Report across repeated runs and
// across oracle worker counts.
func TestChaosDeterminism(t *testing.T) {
	tr := chaosTrace(t)
	plan, err := chaos.Scenario("heavy", tr.HorizonSec, tr.Machines, 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) chaos.Report {
		cfg := baseConfig(tr)
		cfg.TickSec = 600
		cfg.Workers = workers
		cfg.Policy = NewHysteresis(consolidation.NewZombieStack())
		rep, err := RunChaos(cfg, plan)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	first := run(1)
	if first.Faults.Total() == 0 {
		t.Fatal("heavy scenario injected no faults")
	}
	for _, workers := range []int{1, 4, 9} {
		if got := run(workers); !reflect.DeepEqual(got, first) {
			t.Fatalf("chaos report diverged at Workers=%d:\n got %+v\nwant %+v", workers, got, first)
		}
	}
}

// TestChaosResilienceBound pins the resilience ordering for every bundled
// policy: savings under faults <= savings fault-free <= the offline oracle —
// fault penalties are pure additions to the consolidated side's energy, so
// injecting faults can only lower the saving. The plan deliberately carries
// no trace bursts: a burst changes the population (and with it the baseline)
// on both sides, which is a different experiment than degrading the fleet
// under an identical load.
func TestChaosResilienceBound(t *testing.T) {
	tr := chaosTrace(t)
	plan, err := chaos.New(chaos.PlanConfig{
		Name: "bound", Seed: 11, HorizonSec: tr.HorizonSec, Machines: tr.Machines,
		Crashes: 3, WakeFailures: 4, ControllerLosses: 2, FabricDegradations: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range Policies(consolidation.NewZombieStack()) {
		cfg := baseConfig(tr)
		cfg.TickSec = 600
		cfg.Policy = pol
		rep, err := RunChaos(cfg, plan)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if rep.ServerCrashes == 0 || rep.WastedJoules <= 0 {
			t.Errorf("%s: plan did not strike (crashes %d, wasted %.1f J)",
				pol.Name(), rep.ServerCrashes, rep.WastedJoules)
		}
		if rep.SavingPercent >= rep.FaultFreeSavingPercent {
			t.Errorf("%s: faulted saving %.4f%% not below fault-free %.4f%%",
				pol.Name(), rep.SavingPercent, rep.FaultFreeSavingPercent)
		}
		if rep.FaultFreeSavingPercent >= rep.OracleSavingPercent {
			t.Errorf("%s: fault-free saving %.4f%% not below the oracle %.4f%%",
				pol.Name(), rep.FaultFreeSavingPercent, rep.OracleSavingPercent)
		}
		if rep.SavingsRetainedPercent <= 0 || rep.SavingsRetainedPercent >= 100 {
			t.Errorf("%s: savings retained %.4f%%, want in (0,100)", pol.Name(), rep.SavingsRetainedPercent)
		}
	}
}

// TestChaosEmptyPlanBitIdentical pins the other half of the determinism
// contract: a run under an empty fault plan is bit-identical to the plain
// no-chaos path (every chaos branch must add exact zeros or not run at all).
func TestChaosEmptyPlanBitIdentical(t *testing.T) {
	tr := chaosTrace(t)
	empty, err := chaos.Scenario("off", tr.HorizonSec, tr.Machines, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !empty.Empty() {
		t.Fatal("scenario off is not empty")
	}
	for _, pol := range []func() Policy{
		func() Policy { return NewReactive(consolidation.NewZombieStack()) },
		func() Policy { return NewPredictiveEWMA(consolidation.NewZombieStack()) },
	} {
		plain := baseConfig(tr)
		plain.Policy = pol()
		want, err := Run(plain)
		if err != nil {
			t.Fatal(err)
		}
		chaosCfg := baseConfig(tr)
		chaosCfg.Policy = pol()
		chaosCfg.Chaos = empty
		got, err := Run(chaosCfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: empty-plan run diverged from the no-chaos path:\n got %+v\nwant %+v",
				want.Policy, got, want)
		}
	}
}

// TestChaosWakeFailuresStrand pins the stuck-zombie path: a wake-failure
// window covering the whole horizon forces emergency wakes to fail, bill
// wasted transitions and escalate.
func TestChaosWakeFailuresStrand(t *testing.T) {
	tr := chaosTrace(t)
	plan := &chaos.Plan{
		Name: "stuck", Seed: 1, HorizonSec: tr.HorizonSec,
		Faults: []chaos.Fault{{Kind: chaos.WakeFailure, AtSec: 0, DurationSec: tr.HorizonSec, Count: 25}},
	}
	cfg := baseConfig(tr)
	cfg.Policy = NewReactive(consolidation.NewZombieStack())
	rep, err := RunChaos(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StuckZombies == 0 || rep.WastedTransitions == 0 {
		t.Fatalf("no stuck zombies despite a horizon-wide wake-failure window: %+v", rep)
	}
	if rep.StuckZombies > 25 {
		t.Fatalf("stuck zombies %d exceed the fault budget 25", rep.StuckZombies)
	}
	if rep.SavingPercent >= rep.FaultFreeSavingPercent {
		t.Fatalf("wasted wakes did not lower the saving: %.4f%% vs %.4f%%",
			rep.SavingPercent, rep.FaultFreeSavingPercent)
	}
}

// TestChaosTraceBurstPerturbsBothSides checks the burst axis: the perturbed
// trace carries more tasks, and both the online run and the oracle replay it
// (arrivals match the perturbed population).
func TestChaosTraceBurstPerturbsBothSides(t *testing.T) {
	tr := chaosTrace(t)
	plan := &chaos.Plan{
		Name: "burst", Seed: 3, HorizonSec: tr.HorizonSec,
		Faults: []chaos.Fault{{Kind: chaos.TraceBurst, AtSec: tr.HorizonSec / 3, DurationSec: 900, Count: 40}},
	}
	perturbed := plan.PerturbTrace(tr)
	if got, want := len(perturbed.Tasks), len(tr.Tasks)+40; got != want {
		t.Fatalf("perturbed trace has %d tasks, want %d", got, want)
	}
	if err := perturbed.Validate(); err != nil {
		t.Fatalf("perturbed trace invalid: %v", err)
	}
	again := plan.PerturbTrace(tr)
	if !reflect.DeepEqual(perturbed, again) {
		t.Fatal("trace perturbation is not deterministic")
	}
	cfg := baseConfig(tr)
	cfg.Policy = NewHysteresis(consolidation.NewZombieStack())
	rep, err := RunChaos(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrivals != len(perturbed.Tasks) {
		t.Fatalf("faulted run saw %d arrivals, perturbed trace has %d tasks", rep.Arrivals, len(perturbed.Tasks))
	}
}

// failingExecutor refuses every posture change after the first.
type failingExecutor struct{ applies int }

func (e *failingExecutor) Advance(int64) {}
func (e *failingExecutor) Apply(nowSec int64, prev, next consolidation.FleetPlan) error {
	e.applies++
	if e.applies > 1 {
		return errors.New("transition hardware refused")
	}
	return nil
}

// TestRunSurfacesExecutorFailure pins the emergency-wake error path: a
// backing system refusing a transition must surface as an error from Run —
// never a panic, never a silently stranded admitted task.
func TestRunSurfacesExecutorFailure(t *testing.T) {
	tr := chaosTrace(t)
	cfg := baseConfig(tr)
	cfg.Policy = NewReactive(consolidation.NewZombieStack())
	cfg.Executor = &failingExecutor{}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("Run swallowed the executor failure")
	}
	if !strings.Contains(err.Error(), "executor apply") {
		t.Fatalf("executor failure not surfaced with context: %v", err)
	}
}

// TestValidateRejectsChaosWithExecutor pins the configuration guard: chaos
// runs stay on the abstract ledger.
func TestValidateRejectsChaosWithExecutor(t *testing.T) {
	tr := chaosTrace(t)
	plan, err := chaos.Scenario("light", tr.HorizonSec, tr.Machines, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(tr)
	cfg.Policy = NewReactive(consolidation.NewZombieStack())
	cfg.Chaos = plan
	cfg.Executor = &failingExecutor{}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted chaos together with an executor")
	}
}

// TestCompareChaosScenarios runs the severity axis end to end and checks the
// ordering heavy <= light <= off in retained savings.
func TestCompareChaosScenarios(t *testing.T) {
	tr := chaosTrace(t)
	var plans []*chaos.Plan
	for _, name := range chaos.ScenarioNames() {
		p, err := chaos.Scenario(name, tr.HorizonSec, tr.Machines, 42)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	cfg := baseConfig(tr)
	cfg.TickSec = 600
	cfg.Policy = NewHysteresis(consolidation.NewZombieStack())
	reports, err := CompareChaos(cfg, plans)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("got %d reports, want 3", len(reports))
	}
	off, light, heavy := reports[0], reports[1], reports[2]
	if off.SavingPercent != off.FaultFreeSavingPercent {
		t.Errorf("scenario off diverged from the fault-free run: %.6f%% vs %.6f%%",
			off.SavingPercent, off.FaultFreeSavingPercent)
	}
	if !(heavy.WastedJoules > light.WastedJoules) {
		t.Errorf("heavy wasted %.1f J, light %.1f J — severity axis not monotone",
			heavy.WastedJoules, light.WastedJoules)
	}
	if rendered := chaos.RenderComparison(reports); !strings.Contains(rendered, "heavy") {
		t.Errorf("rendered comparison missing the heavy row:\n%s", rendered)
	}
}

// TestReplaySharesOneOrder: the online runs of a replay walk cursors over one
// event order, sorted once, and a pool may walk them at the same time; every
// result still equals a lone run over its own freshly sorted stream. The
// roster spans three planners, one behind a wrapper, and the comparison runs
// without chaos while the row runs under light chaos.
func TestReplaySharesOneOrder(t *testing.T) {
	tr := chaosTrace(t)
	roster := func() []Policy {
		return []Policy{
			NewReactive(consolidation.NewZombieStack()),
			NewHysteresis(planOnly{consolidation.NewZombieStack()}),
			NewPredictiveEWMA(consolidation.NewOasis()),
		}
	}
	cfg := baseConfig(tr)
	cfg.Workers = 2
	lone := func(i int) Config {
		c := cfg
		c.Policy = roster()[i]
		return c
	}
	got, err := CompareOnline(cfg, roster())
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want, err := Run(lone(i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Online, want) {
			t.Errorf("policy %d: CompareOnline ran\n%+v\nRun alone\n%+v", i, got[i].Online, want)
		}
	}

	light, err := chaos.Scenario("light", tr.HorizonSec, tr.Machines, 7)
	if err != nil {
		t.Fatal(err)
	}
	row, err := NewChaosRow(cfg, light, roster())
	if err != nil {
		t.Fatal(err)
	}
	jobs := row.Jobs()
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = job()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	for i, rep := range row.Reports() {
		want, err := RunChaos(lone(i), light)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, want) {
			t.Errorf("policy %d: the row reports\n%+v\nRunChaos alone\n%+v", i, rep, want)
		}
	}
}

// fixedPlan is a policy that holds one posture whatever the population.
type fixedPlan struct{ plan consolidation.FleetPlan }

func (p fixedPlan) Name() string { return p.plan.Policy }
func (p fixedPlan) Plan([]consolidation.VMDemand, consolidation.ServerSpec, int) consolidation.FleetPlan {
	return p.plan
}
func (p fixedPlan) PlanDemand(consolidation.Demand, consolidation.ServerSpec, int) consolidation.FleetPlan {
	return p.plan
}

// crashPrice is the bill of one crash fault: its joules and its ACPI
// transitions.
type crashPrice struct {
	joules      float64
	transitions int
}

// priceCrash prices one crash striking posture at instant at, online through
// a lane whose books hold usedCPU and offline through dcsim's bill of one
// epoch planned at posture. Transition costs are off offline, so the epoch's
// transitions and chaos joules are the fault's; the crashed servers' wedged
// S0 burn is taken out of the offline joules, since the online lane bills it
// when an interval closes. reHomed is the remote memory the lane re-homed.
func priceCrash(t *testing.T, posture consolidation.FleetPlan, usedCPU float64, crash chaos.Fault, at, horizon int64) (online, offline crashPrice, reHomed float64) {
	t.Helper()
	machine := energy.HPProfile()
	plan := &chaos.Plan{Name: "one-crash", HorizonSec: horizon, Faults: []chaos.Fault{crash}}

	// Online: strike the posture the loop holds. An active victim is
	// replaced through ensureActive, which re-plans against the planner and
	// the fleet size.
	l := &lane{
		walk: &walk{
			cfg:     &Config{Machine: machine, ServerSpec: consolidation.DefaultServerSpec()},
			prices:  machine.Prices(),
			total:   posture.TotalHosts(),
			usedCPU: usedCPU,
			chaos:   newChaosRun(plan),
		},
		planner: fixedPlan{posture},
		posture: posture,
	}
	if err := l.chaosCrash(at, crash, 0); err != nil {
		t.Fatal(err)
	}

	tr := &trace.Trace{Name: "one-task", Machines: posture.TotalHosts(), HorizonSec: horizon, Tasks: []trace.Task{
		{ID: 1, EndSec: horizon, BookedCPU: 1, BookedMemGiB: 1, UsedCPU: 0.5, UsedMemGiB: 0.5},
	}}
	res, err := dcsim.Run(dcsim.Config{
		Trace: tr, Policy: fixedPlan{posture}, Machine: machine,
		ServerSpec: consolidation.DefaultServerSpec(), ConsolidationPeriodSec: horizon, Chaos: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	wedged := plan.CrashedServerSeconds(0, horizon) * machine.PowerFraction(acpi.S0, 0) * machine.MaxPowerWatts
	return crashPrice{l.res.EnergyJoules, l.res.StateTransitions},
		crashPrice{res.ChaosJoules - wedged, res.StateTransitions}, l.res.ReHomedGiB
}

// TestCrashPricedAlikeOnlineAndOffline prices one count-1 crash of every
// role on a ZombieStack, an Oasis and a Neat posture through the online loop
// and through dcsim's epoch bill. Both strike in dcsim.StrikeOrder and bill
// dcsim.Replacement and dcsim.ReHomeJoules: a crashed zombie is replaced by
// a wake and a re-suspend to Sz, a memory server by a wake alone, an active
// host by a wake (online through the emergency-wake path), and a sleeper by
// nothing.
func TestCrashPricedAlikeOnlineAndOffline(t *testing.T) {
	const horizon, at = 300, 100
	postures := []consolidation.FleetPlan{
		{Policy: "zombiestack", ActiveHosts: 5, ZombieHosts: 2, SleepHosts: 3, ActiveCPUUtilization: 0.4, RemoteMemoryGiB: 12},
		{Policy: "oasis", ActiveHosts: 5, MemoryServers: 2, SleepHosts: 3, ActiveCPUUtilization: 0.4, RemoteMemoryGiB: 12},
		{Policy: "neat", ActiveHosts: 5, SleepHosts: 3, ActiveCPUUtilization: 0.4},
	}
	// The books hold the postures' utilization: 0.4 of 5 hosts of 8 cores.
	const usedCPU = 16
	// The bill of one crash per posture, in postures' order.
	wake, none := crashPrice{250.560, 1}, crashPrice{0, 0}
	cases := []struct {
		role chaos.CrashRole
		want [3]crashPrice
	}{
		{chaos.RoleAny, [3]crashPrice{wake, wake, wake}},
		{chaos.RoleActive, [3]crashPrice{wake, wake, wake}},
		{chaos.RoleServing, [3]crashPrice{{517.247, 2}, {329.327, 1}, wake}},
		{chaos.RoleSleep, [3]crashPrice{none, none, none}},
	}
	for _, tc := range cases {
		for i, posture := range postures {
			t.Run(posture.Policy+"/"+tc.role.String(), func(t *testing.T) {
				crash := chaos.Fault{Kind: chaos.ServerCrash, AtSec: at, DurationSec: 10 * horizon, Count: 1, Role: tc.role}
				online, offline, _ := priceCrash(t, posture, usedCPU, crash, at, horizon)
				want := tc.want[i]
				if offline.transitions != online.transitions || online.transitions != want.transitions {
					t.Errorf("transitions: offline %d, online %d, want %d each", offline.transitions, online.transitions, want.transitions)
				}
				if math.Abs(offline.joules-online.joules) > 1e-9*online.joules {
					t.Errorf("crash bill: offline %.3f J, online %.3f J", offline.joules, online.joules)
				}
				if math.Abs(online.joules-want.joules) > 5e-4 {
					t.Errorf("crash bill: online %.3f J, want %.3f J", online.joules, want.joules)
				}
			})
		}
	}
}

// TestCrashReHomesAtEntryUtilization: a crash that strikes the only active
// host and then a zombie re-homes the zombie's share at the utilization the
// fleet ran at when the crash struck, as the offline bill does, not at the
// struck posture's, which has no active host left.
func TestCrashReHomesAtEntryUtilization(t *testing.T) {
	const horizon, at = 300, 100
	posture := consolidation.FleetPlan{Policy: "zombiestack", ActiveHosts: 1, ZombieHosts: 2, SleepHosts: 3, ActiveCPUUtilization: 0.5, RemoteMemoryGiB: 12}
	crash := chaos.Fault{Kind: chaos.ServerCrash, AtSec: at, DurationSec: 10 * horizon, Count: 2, Role: chaos.RoleAny}
	online, offline, reHomed := priceCrash(t, posture, 4, crash, at, horizon) // 0.5 of 1 host of 8 cores
	if reHomed != 6 {
		t.Fatalf("re-homed %v GiB, want one zombie's 6 GiB", reHomed)
	}
	if offline.transitions != online.transitions || online.transitions != 3 {
		t.Errorf("transitions: offline %d, online %d, want 3 each", offline.transitions, online.transitions)
	}
	if math.Abs(offline.joules-online.joules) > 1e-9*online.joules {
		t.Errorf("crash bill: offline %.3f J, online %.3f J", offline.joules, online.joules)
	}
}

// TestReplaysReportTraceErrorsFirst: the online entry points check their
// trace as they index it, after the rest of the configuration, yet when the
// trace and the configuration, a second policy or a fault plan are both bad
// each reports the trace's error, as Config.Validate orders them; with a good
// trace the other error comes through. A burst on a trace shorter than a
// burst task's 60 s floor stays inside the horizon, so its row runs.
func TestReplaysReportTraceErrorsFirst(t *testing.T) {
	good := chaosTrace(t)
	bad := *good
	bad.Tasks = slices.Clone(good.Tasks)
	bad.Tasks[7].UsedCPU = 2 * bad.Tasks[7].BookedCPU
	traceErr := bad.Validate()
	if traceErr == nil {
		t.Fatal("the trace validates")
	}
	light, err := chaos.Scenario("light", good.HorizonSec, good.Machines, 1)
	if err != nil {
		t.Fatal(err)
	}
	badPlan := &chaos.Plan{Name: "bad", HorizonSec: -1}
	entries := map[string]func(cfg Config) error{
		"Run, no machine": func(cfg Config) error {
			cfg.Machine = nil
			_, err := Run(cfg)
			return err
		},
		"Regret, no machine": func(cfg Config) error {
			cfg.Machine = nil
			_, err := Regret(cfg)
			return err
		},
		"CompareOnline, a nil policy": func(cfg Config) error {
			_, err := CompareOnline(cfg, []Policy{cfg.Policy, nil})
			return err
		},
		"RunChaos, no machine": func(cfg Config) error {
			cfg.Machine = nil
			_, err := RunChaos(cfg, light)
			return err
		},
		"RunChaos, a bad plan": func(cfg Config) error {
			_, err := RunChaos(cfg, badPlan)
			return err
		},
		"CompareChaos, a bad plan": func(cfg Config) error {
			_, err := CompareChaos(cfg, []*chaos.Plan{badPlan})
			return err
		},
	}
	for name, entry := range entries {
		cfg := baseConfig(&bad)
		cfg.Policy = NewReactive(consolidation.NewZombieStack())
		if err := entry(cfg); fmt.Sprint(err) != traceErr.Error() {
			t.Errorf("%s, bad trace: got %v, want %v", name, err, traceErr)
		}
		cfg.Trace = good
		cfg.Policy = NewReactive(consolidation.NewZombieStack())
		if err := entry(cfg); err == nil || err.Error() == traceErr.Error() {
			t.Errorf("%s, good trace: got %v, want the configuration's error", name, err)
		}
	}

	short := &trace.Trace{Name: "short", Machines: 4, HorizonSec: 30, Tasks: []trace.Task{
		{ID: 1, EndSec: 30, BookedCPU: 1, BookedMemGiB: 2, UsedCPU: 0.5, UsedMemGiB: 1},
	}}
	burst := &chaos.Plan{Name: "burst", Seed: 1, HorizonSec: short.HorizonSec,
		Faults: []chaos.Fault{{Kind: chaos.TraceBurst, AtSec: 10, DurationSec: 10, Count: 3}}}
	if err := burst.PerturbTrace(short).Validate(); err != nil {
		t.Fatalf("perturbed short trace: %v", err)
	}
	cfg := baseConfig(short)
	cfg.Policy = NewReactive(consolidation.NewZombieStack())
	if _, err := RunChaos(cfg, burst); err != nil {
		t.Fatalf("a burst on a %d s trace: %v", short.HorizonSec, err)
	}
}

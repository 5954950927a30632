package autopilot

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/acpi"
	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/trace"
)

// diurnalTrace is the canonical synthetic diurnal trace (the default
// generator config: 200 machines, 3000 tasks, one day, seed 42).
func diurnalTrace(t testing.TB) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func baseConfig(tr *trace.Trace) Config {
	return Config{
		Trace:      tr,
		Machine:    energy.HPProfile(),
		ServerSpec: consolidation.DefaultServerSpec(),
		TickSec:    300,
	}
}

// TestAutopilotRegret is the acceptance test of the online control plane: on
// the synthetic diurnal trace every online policy's costed saving stays
// strictly below the offline dcsim oracle's, hysteresis flaps less than the
// reactive threshold without giving up savings, and the whole regret report
// is bit-identical across repeated runs of the same seed.
func TestAutopilotRegret(t *testing.T) {
	tr := diurnalTrace(t)
	cfg := baseConfig(tr)
	planner := consolidation.NewZombieStack()

	run := func() []Report {
		reports, err := CompareOnline(cfg, Policies(planner))
		if err != nil {
			t.Fatal(err)
		}
		return reports
	}
	reports := run()
	if len(reports) != 3 {
		t.Fatalf("expected 3 policy reports, got %d", len(reports))
	}

	byName := make(map[string]Report, len(reports))
	for _, r := range reports {
		byName[r.Policy] = r

		// The oracle bound: online knowledge is a strict subset of the
		// oracle's, and both sides pay the same transition-cost model, so the
		// costed online saving must be strictly below the oracle's.
		if r.Online.SavingPercent >= r.Oracle.SavingPercent {
			t.Errorf("%s: online saving %.3f%% not strictly below the oracle's %.3f%%",
				r.Policy, r.Online.SavingPercent, r.Oracle.SavingPercent)
		}
		if r.RegretPercent <= 0 {
			t.Errorf("%s: regret %.3f points, want > 0", r.Policy, r.RegretPercent)
		}
		if r.RegretPercent != r.Oracle.SavingPercent-r.Online.SavingPercent {
			t.Errorf("%s: regret %.6f != oracle - online = %.6f",
				r.Policy, r.RegretPercent, r.Oracle.SavingPercent-r.Online.SavingPercent)
		}

		// Sanity of the run itself: the full population was seen, every tick
		// fired, and transition costs were actually charged.
		if r.Online.Arrivals != len(tr.Tasks) || r.Online.Admitted+r.Online.Rejected != r.Online.Arrivals {
			t.Errorf("%s: arrivals %d admitted %d rejected %d, trace has %d tasks",
				r.Policy, r.Online.Arrivals, r.Online.Admitted, r.Online.Rejected, len(tr.Tasks))
		}
		if want := int(tr.HorizonSec/cfg.TickSec) - 1; r.Online.Ticks != want {
			t.Errorf("%s: %d ticks, want %d", r.Policy, r.Online.Ticks, want)
		}
		if r.Online.TransitionJoules <= 0 || r.Online.StateTransitions == 0 {
			t.Errorf("%s: no transition costs charged (%.1f J, %d events)",
				r.Policy, r.Online.TransitionJoules, r.Online.StateTransitions)
		}
		if r.Online.SavingPercent <= 0 {
			t.Errorf("%s: online consolidation saved nothing (%.3f%%)", r.Policy, r.Online.SavingPercent)
		}
	}

	// Hysteresis exists to damp flapping: on the same trace it must perform
	// fewer ACPI transitions than the reactive threshold at equal or better
	// savings.
	reactive, hysteresis := byName["reactive"], byName["hysteresis"]
	if hysteresis.Online.StateTransitions >= reactive.Online.StateTransitions {
		t.Errorf("hysteresis performed %d ACPI transitions, reactive %d — watermarks did not damp flapping",
			hysteresis.Online.StateTransitions, reactive.Online.StateTransitions)
	}
	if hysteresis.Online.SavingPercent < reactive.Online.SavingPercent {
		t.Errorf("hysteresis saving %.3f%% below reactive %.3f%%",
			hysteresis.Online.SavingPercent, reactive.Online.SavingPercent)
	}

	// A fixed seed reproduces the full regret report bit for bit: the
	// rendered tables and every field of every report.
	again := run()
	if !reflect.DeepEqual(reports, again) {
		t.Fatalf("regret reports differ across identical runs:\n%+v\n%+v", reports, again)
	}
	if a, b := RenderComparison(reports), RenderComparison(again); a != b {
		t.Fatalf("rendered comparison differs across identical runs:\n%s\n%s", a, b)
	}
	for i := range reports {
		if a, b := reports[i].Render(), again[i].Render(); a != b {
			t.Fatalf("rendered report %d differs across identical runs:\n%s\n%s", i, a, b)
		}
	}
}

// TestAutopilotRegretAcrossPlanners checks the oracle bound for every bundled
// consolidation planner, not just ZombieStack.
func TestAutopilotRegretAcrossPlanners(t *testing.T) {
	tr := diurnalTrace(t)
	for _, planner := range consolidation.Contenders() {
		reports, err := CompareOnline(baseConfig(tr), Policies(planner))
		if err != nil {
			t.Fatalf("%s: %v", planner.Name(), err)
		}
		for _, r := range reports {
			if r.RegretPercent <= 0 {
				t.Errorf("%s/%s: regret %.3f points, want > 0", r.Policy, planner.Name(), r.RegretPercent)
			}
		}
	}
}

func TestAutopilotValidation(t *testing.T) {
	tr := diurnalTrace(t)
	good := baseConfig(tr)
	good.Policy = NewReactive(consolidation.NewZombieStack())
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"missing trace", func(c *Config) { c.Trace = nil }},
		{"missing policy", func(c *Config) { c.Policy = nil }},
		{"missing machine", func(c *Config) { c.Machine = nil }},
		{"bad server spec", func(c *Config) { c.ServerSpec = consolidation.ServerSpec{} }},
		{"negative tick", func(c *Config) { c.TickSec = -10 }},
		{"policy without planner", func(c *Config) { c.Policy = &ReactiveThreshold{} }},
	}
	for _, tc := range cases {
		cfg := good
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted an invalid config", tc.name)
		}
	}
}

// TestAutopilotAdmissionRejects starves the fleet: a task whose booked
// reservation exceeds even the fully awake fleet must be rejected and must
// not count toward the admitted population.
func TestAutopilotAdmissionRejects(t *testing.T) {
	tr := &trace.Trace{
		Name:       "tiny",
		Machines:   2,
		HorizonSec: 1000,
		Tasks: []trace.Task{
			{ID: 0, StartSec: 0, EndSec: 900, BookedCPU: 12, BookedMemGiB: 24, UsedCPU: 6, UsedMemGiB: 12},
			{ID: 1, StartSec: 100, EndSec: 900, BookedCPU: 12, BookedMemGiB: 24, UsedCPU: 6, UsedMemGiB: 12},
		},
	}
	cfg := baseConfig(tr)
	cfg.TickSec = 250
	cfg.Policy = NewReactive(consolidation.NewZombieStack())
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two servers of 8 cores / 16 GiB hold one 12-core booking, not two.
	if res.Admitted != 1 || res.Rejected != 1 {
		t.Fatalf("admitted %d rejected %d, want 1/1", res.Admitted, res.Rejected)
	}
	if res.Departures != 1 {
		t.Fatalf("departures %d, want 1 (the rejected task never departs)", res.Departures)
	}
}

// TestAutopilotEmergencyWake forces an arrival that does not fit the
// consolidated posture: after the fleet has shrunk around a small task, a
// burst arrives mid-interval and must wake servers immediately — billed as
// ACPI transitions and the tick-quantized retroactive power charge.
func TestAutopilotEmergencyWake(t *testing.T) {
	tasks := []trace.Task{
		{ID: 0, StartSec: 0, EndSec: 2000, BookedCPU: 2, BookedMemGiB: 4, UsedCPU: 1, UsedMemGiB: 2},
	}
	// A burst of six fat tasks arriving mid-interval at t=450.
	for i := 1; i <= 6; i++ {
		tasks = append(tasks, trace.Task{
			ID: i, StartSec: 450, EndSec: 2000,
			BookedCPU: 7, BookedMemGiB: 14, UsedCPU: 5, UsedMemGiB: 10,
		})
	}
	tr := &trace.Trace{Name: "burst", Machines: 8, HorizonSec: 2000, Tasks: tasks}
	cfg := baseConfig(tr)
	cfg.TickSec = 300
	cfg.Policy = NewReactive(consolidation.NewZombieStack())
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 7 {
		t.Fatalf("admitted %d, want 7", res.Admitted)
	}
	if res.EmergencyWakes == 0 {
		t.Fatal("burst arrival inside a consolidated interval should force emergency wakes")
	}
	if res.TransitionJoules <= 0 {
		t.Fatal("emergency wakes must be billed")
	}
	if res.PeakActiveHosts != tr.Machines {
		t.Fatalf("peak active hosts %d, want %d (the initial all-awake posture)", res.PeakActiveHosts, tr.Machines)
	}
}

// TestAutopilotStreamConsistency: the loop's arrival/departure counters must
// agree with an independent walk of the trace's stream.
func TestAutopilotStreamConsistency(t *testing.T) {
	tr := diurnalTrace(t)
	cfg := baseConfig(tr)
	cfg.Policy = NewHysteresis(consolidation.NewZombieStack())
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arrivals, departures := 0, 0
	s := trace.NewStream(tr)
	for ev, ok := s.Next(); ok; ev, ok = s.Next() {
		if ev.Kind == trace.Arrive {
			arrivals++
		} else {
			departures++
		}
	}
	if res.Arrivals != arrivals {
		t.Errorf("loop saw %d arrivals, stream has %d", res.Arrivals, arrivals)
	}
	// Every admitted task departs (tasks ending exactly at the horizon are
	// retired by the loop's final moment).
	if res.Departures != departures {
		t.Errorf("loop saw %d departures, stream has %d", res.Departures, departures)
	}
}

// TestFleetExecutorMirrorsPostures drives a live 2x2 fleet through posture
// changes and checks the per-server ACPI states track the plan.
func TestFleetExecutorMirrorsPostures(t *testing.T) {
	f, err := fleet.New(fleet.Config{Racks: 2, Rack: fleetRackConfig(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := NewFleetExecutor(f)
	if e.Servers() != 4 {
		t.Fatalf("executor sees %d servers, want 4", e.Servers())
	}

	count := func(states []acpi.SleepState, s acpi.SleepState) int {
		n := 0
		for _, st := range states {
			if st == s {
				n++
			}
		}
		return n
	}

	initial := consolidation.InitialPlan(4)
	consolidated := consolidation.FleetPlan{ActiveHosts: 1, ZombieHosts: 2, SleepHosts: 1}
	if err := e.Apply(0, initial, consolidated); err != nil {
		t.Fatal(err)
	}
	st := e.States()
	if count(st, acpi.S0) != 1 || count(st, acpi.Sz) != 2 || count(st, acpi.S3) != 1 {
		t.Fatalf("states after consolidation: %v, want 1xS0 2xSz 1xS3", st)
	}

	// Advance the fleet clock: the rack energy ledger must integrate the
	// mixed posture (cheaper than four awake servers).
	e.Advance(3600)
	mixed := e.EnergyJoules()
	if mixed <= 0 {
		t.Fatal("fleet ledger did not accumulate energy")
	}

	// Wake everything back up; sleep-to-zombie and zombie-to-sleep paths both
	// route through S0.
	if err := e.Apply(3600, consolidated, initial); err != nil {
		t.Fatal(err)
	}
	if n := count(e.States(), acpi.S0); n != 4 {
		t.Fatalf("after wake-all, %d servers in S0, want 4", n)
	}

	// A posture for the wrong fleet size is refused.
	if err := e.Apply(0, initial, consolidation.InitialPlan(5)); err == nil {
		t.Fatal("executor accepted a posture for 5 hosts on a 4-server fleet")
	}
}

// TestAutopilotWithFleetExecutor runs the full loop against a live fleet and
// checks the decisions execute without divergence.
func TestAutopilotWithFleetExecutor(t *testing.T) {
	f, err := fleet.New(fleet.Config{Racks: 2, Rack: fleetRackConfig(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{
		Name:       "mini",
		Machines:   4,
		HorizonSec: 1800,
		Tasks: []trace.Task{
			{ID: 0, StartSec: 0, EndSec: 1700, BookedCPU: 2, BookedMemGiB: 4, UsedCPU: 1, UsedMemGiB: 2},
			{ID: 1, StartSec: 400, EndSec: 1200, BookedCPU: 3, BookedMemGiB: 6, UsedCPU: 2, UsedMemGiB: 3},
		},
	}
	cfg := baseConfig(tr)
	cfg.TickSec = 300
	cfg.Policy = NewHysteresis(consolidation.NewZombieStack())
	cfg.Executor = NewFleetExecutor(f)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 2 {
		t.Fatalf("admitted %d, want 2", res.Admitted)
	}
	if got := f.TotalEnergyJoules(); got <= 0 {
		t.Fatalf("fleet ledger after the run: %.1f J, want > 0", got)
	}

	// A fleet that does not match the trace's machine count is a
	// configuration error, caught by Validate instead of a mid-run panic.
	bad := cfg
	wrong := *tr
	wrong.Machines = 5
	bad.Trace = &wrong
	bad.Policy = NewHysteresis(consolidation.NewZombieStack())
	bad.Executor = NewFleetExecutor(f)
	if _, err := Run(bad); err == nil {
		t.Fatal("Run accepted a 4-server executor against a 5-machine trace")
	}
}

// fleetRackConfig keeps the test boards small: every Sz entry delegates the
// server's free memory as real RDMA buffer allocations, and the executor
// tests only exercise postures and energy, not data content.
func fleetRackConfig() core.Config {
	board := acpi.DefaultBoardSpec()
	board.MemoryBytes = 1 << 30
	return core.Config{Servers: 2, Board: board}
}

// BenchmarkAutopilotTicks measures online control-loop throughput on the
// canonical diurnal trace — the hot path benchmark/ reports as
// autopilot.run_ms.* and autopilot.tasks_per_s.
func BenchmarkAutopilotTicks(b *testing.B) {
	tr := diurnalTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := baseConfig(tr)
		cfg.Policy = NewHysteresis(consolidation.NewZombieStack())
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Ticks == 0 {
			b.Fatal("no ticks executed")
		}
	}
}

// BenchmarkAutopilotLargeLive is the regime the diurnal trace's 3 000 tasks
// never reach: mlbatch keeps a five-digit population live, where a
// per-arrival cost in the size of the running set turns quadratic, and
// serverless pushes 100 000 short tasks through, where a per-task allocation
// shows.
func BenchmarkAutopilotLargeLive(b *testing.B) {
	for _, c := range []struct {
		family          string
		machines, tasks int
	}{{"mlbatch", 400, 20000}, {"serverless", 200, 100000}} {
		tr, err := trace.GenerateFamily(c.family, trace.FamilyParams{Machines: c.machines, HorizonSec: 24 * 3600, Tasks: c.tasks, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.family, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := baseConfig(tr)
				cfg.Policy = NewPredictiveEWMA(consolidation.NewZombieStack())
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
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

// TestOnlineLoopAllocationBudget pins the allocation-free online loop: a run
// allocates its setup (the replay index and its event orders, the loop's
// few growing buffers) and nothing per task or per tick. Doubling the task
// count may only regrow those buffers, far below one allocation per hundred
// extra tasks, and tripling the tick count may only add a fixed slack — a
// VM ID formatted per arrival, or a buffer made per tick, fails loudly. The
// last case is a walk of three lanes, which may not allocate per task or per
// tick either.
func TestOnlineLoopAllocationBudget(t *testing.T) {
	gen := func(tasks int) *trace.Trace {
		c := trace.DefaultConfig()
		c.Tasks = tasks
		tr, err := trace.Generate(c)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	small, large := gen(3000), gen(6000)
	// The last case plans with Oasis, which reads the busy/idle split of the
	// interval's Demand at every arrival: that path may not allocate either.
	one := func(mk func(consolidation.Policy) Policy) func(consolidation.Policy) []Policy {
		return func(b consolidation.Policy) []Policy { return []Policy{mk(b)} }
	}
	for _, c := range []struct {
		mk   func(consolidation.Policy) []Policy
		base consolidation.Policy
	}{
		{one(func(b consolidation.Policy) Policy { return NewReactive(b) }), consolidation.NewZombieStack()},
		{one(func(b consolidation.Policy) Policy { return NewHysteresis(b) }), consolidation.NewZombieStack()},
		{one(func(b consolidation.Policy) Policy { return NewPredictiveEWMA(b) }), consolidation.NewZombieStack()},
		{one(func(b consolidation.Policy) Policy { return NewReactive(b) }), consolidation.NewOasis()},
		{Policies, consolidation.NewOasis()},
	} {
		runOnce := func(tr *trace.Trace, tickSec int64) func() {
			return func() {
				cfg := baseConfig(tr)
				cfg.TickSec = tickSec
				if err := newWalk(&cfg, mustIndex(t, tr), c.mk(c.base)).run(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Warm up lazy runtime and profile state so no measurement pays
		// first-use allocations.
		runOnce(small, 300)()
		var names []string
		for _, pol := range c.mk(nil) {
			names = append(names, pol.Name())
		}
		name := strings.Join(names, "+") + "/" + c.base.Name()

		base := countAllocs(runOnce(small, 300))
		doubled := countAllocs(runOnce(large, 300))
		if budget := base + uint64(len(large.Tasks)-len(small.Tasks))/100; doubled > budget {
			t.Errorf("%s: the loop allocates per task: %d tasks cost %d allocs, %d tasks cost %d (budget %d)",
				name, len(small.Tasks), base, len(large.Tasks), doubled, budget)
		}
		tripled := countAllocs(runOnce(small, 100))
		extraTicks := uint64(small.HorizonSec/100 - small.HorizonSec/300)
		if budget := base + extraTicks/4; tripled > budget {
			t.Errorf("%s: the loop allocates per tick: %d-second ticks cost %d allocs, %d-second ticks cost %d (budget %d)",
				name, 300, base, 100, tripled, budget)
		}
		t.Logf("%s: %d allocs at 3000 tasks, %d at 6000, %d at three times the ticks", name, base, doubled, tripled)
	}
}

// TestDuplicateTaskIDsReplayDeterministically: trace.Validate does not look
// for repeated task IDs (only the CSV reader does), and no replay keys on an
// ID, so two tasks of one ID are two VMs. Both are admitted and run side by
// side, Run, Regret and RunChaos over a trace that repeats an ID give the
// same result twice, and the replay index ranks the two tasks apart.
func TestDuplicateTaskIDsReplayDeterministically(t *testing.T) {
	twins := &trace.Trace{Name: "twins", Machines: 4, HorizonSec: 1000, Tasks: []trace.Task{
		{ID: 5, StartSec: 0, EndSec: 900, BookedCPU: 2, BookedMemGiB: 4, UsedCPU: 1, UsedMemGiB: 2},
		{ID: 5, StartSec: 100, EndSec: 800, BookedCPU: 2, BookedMemGiB: 4, UsedCPU: 1, UsedMemGiB: 2},
	}}
	cfg := baseConfig(twins)
	cfg.TickSec = 250
	cfg.Policy = NewReactive(consolidation.NewNeat())
	running := 0
	cfg.OnTick = func(ev TickEvent) { running = max(running, ev.Running) }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 2 || res.Departures != 2 || running != 2 {
		t.Fatalf("two tasks of one ID: %d admitted, %d departed, %d running at most, want 2 each", res.Admitted, res.Departures, running)
	}

	tr := diurnalTrace(t)
	dup := *tr
	dup.Tasks = slices.Clone(tr.Tasks)
	dup.Tasks[len(dup.Tasks)-1].ID = dup.Tasks[3].ID
	if err := dup.Validate(); err != nil {
		t.Fatalf("trace.Validate rejects the trace: %v", err)
	}
	replay := func() []any {
		cfg := baseConfig(&dup)
		cfg.Policy = NewReactive(consolidation.NewNeat())
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Regret(cfg)
		if err != nil {
			t.Fatal(err)
		}
		light, err := chaos.Scenario("light", dup.HorizonSec, dup.Machines, 7)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := RunChaos(cfg, light)
		if err != nil {
			t.Fatal(err)
		}
		return []any{res, rep, ch}
	}
	if a, b := replay(), replay(); !reflect.DeepEqual(a, b) {
		t.Fatalf("two replays of a trace that repeats an ID differ:\n%+v\n%+v", a, b)
	}

	eng, err := trace.Generate(trace.GeneratorConfig{
		Name: "engine-test", Machines: 60, HorizonSec: 6 * 3600, Tasks: 500,
		MemoryToCPURatio: 3, MeanUtilization: 0.35, IdleFraction: 0.25, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Tasks[len(eng.Tasks)-1].ID = eng.Tasks[3].ID
	idx := mustIndex(t, eng)
	if a, b := slices.Index(idx.tasks, eng.Tasks[3]), slices.Index(idx.tasks, eng.Tasks[len(eng.Tasks)-1]); a < 0 || b < 0 || a == b {
		t.Fatalf("the two tasks of ID %d are at ranks %d and %d", eng.Tasks[3].ID, a, b)
	}
}

// TestRunLeavesNoGoroutine: a run leaves no goroutine behind, whatever it
// starts while it builds its replay index.
func TestRunLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := baseConfig(diurnalTrace(t))
	cfg.Policy = NewReactive(consolidation.NewZombieStack())
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("Run left %d goroutines running, %d before", n, base)
	}
}

// TestRowShuffleLeavesResultsBitIdentical is the online row-shuffle law: with
// task IDs unique, the order of a trace's rows is not part of the workload, so
// permuting them leaves Run, CompareOnline and RunChaos bit-identical.
func TestRowShuffleLeavesResultsBitIdentical(t *testing.T) {
	tr := chaosTrace(t)
	light, err := chaos.Scenario("light", tr.HorizonSec, tr.Machines, 7)
	if err != nil {
		t.Fatal(err)
	}
	type results struct {
		runs    []Result
		reports []Report
		chaos   []chaos.Report
	}
	replay := func(tr *trace.Trace) results {
		var r results
		for _, planner := range consolidation.AllPolicies() {
			for _, pol := range Policies(planner) {
				cfg := baseConfig(tr)
				cfg.Policy = pol
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				r.runs = append(r.runs, res)
				rep, err := RunChaos(cfg, light)
				if err != nil {
					t.Fatal(err)
				}
				r.chaos = append(r.chaos, rep)
			}
		}
		if r.reports, err = CompareOnline(baseConfig(tr), Policies(consolidation.NewOasis())); err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := replay(tr)
	for seed := int64(1); seed <= 2; seed++ {
		shuffled := *tr
		shuffled.Tasks = slices.Clone(tr.Tasks)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled.Tasks), func(i, j int) {
			shuffled.Tasks[i], shuffled.Tasks[j] = shuffled.Tasks[j], shuffled.Tasks[i]
		})
		if got := replay(&shuffled); !reflect.DeepEqual(got, want) {
			t.Fatalf("shuffle %d changed the results:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestCompareOnlineEqualsRegretPerPolicy: sharing the replay index and the
// oracle between the policies of a comparison changes no number. The roster
// spans three planners, so it also covers one oracle per distinct planner,
// and builds Neat twice: the two zero-size values may compare equal and then
// share one oracle.
func TestCompareOnlineEqualsRegretPerPolicy(t *testing.T) {
	tr := diurnalTrace(t)
	roster := func() []Policy {
		return append(Policies(consolidation.NewZombieStack()), NewReactive(consolidation.NewNeat()),
			NewHysteresis(consolidation.NewNeat()), NewReactive(consolidation.NewOasis()))
	}
	got, err := CompareOnline(baseConfig(tr), roster())
	if err != nil {
		t.Fatal(err)
	}
	for i, pol := range roster() {
		cfg := baseConfig(tr)
		cfg.Policy = pol
		want, err := Regret(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("policy %s/%s: CompareOnline reports\n%+v\nRegret alone reports\n%+v", want.Policy, want.Planner, got[i], want)
		}
	}
}

// TestTickClockCannotOverflow: the walk steps its tick clock a period at a
// time to the first tick past the horizon, so a horizon within a tick of
// MaxInt64 would wrap it negative and the walk would never end. Run and
// Regret refuse such a horizon upfront, the 300 s default tick included, and
// walk one a tick short of it.
func TestTickClockCannotOverflow(t *testing.T) {
	config := func(horizon, tick int64) Config {
		cfg := baseConfig(&trace.Trace{Name: "edge", Machines: 1, HorizonSec: horizon, Tasks: []trace.Task{
			{ID: 1, StartSec: 0, EndSec: 60, BookedCPU: 1, BookedMemGiB: 1, UsedCPU: 0.5, UsedMemGiB: 0.5},
		}})
		cfg.TickSec = tick
		cfg.Policy = NewReactive(consolidation.NewZombieStack())
		return cfg
	}
	for _, c := range []struct{ horizon, tick int64 }{{math.MaxInt64 - 1, 1 << 62}, {math.MaxInt64 - 299, 0}} {
		if _, err := Run(config(c.horizon, c.tick)); err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("Run, horizon %d, tick %d: error %v, want an overflow", c.horizon, c.tick, err)
		}
		if _, err := Regret(config(c.horizon, c.tick)); err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("Regret, horizon %d, tick %d: error %v, want an overflow", c.horizon, c.tick, err)
		}
	}
	if _, err := Regret(config(math.MaxInt64-1<<62, 1<<62)); err != nil {
		t.Errorf("a horizon a tick short of MaxInt64: %v", err)
	}
}

package autopilot

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/obs"
	"repro/internal/trace"
)

// runObservedAutopilot drives one chaos-laden online run with an attached
// obs bundle and returns the bundle and the run's result.
func runObservedAutopilot(t *testing.T) (*obs.Obs, Result) {
	t.Helper()
	tr := chaosTrace(t)
	plan, err := chaos.Scenario("heavy", tr.HorizonSec, tr.Machines, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(obs.Options{TraceCapacity: 4096})
	cfg := baseConfig(tr)
	cfg.TickSec = 600
	cfg.Policy = NewHysteresis(consolidation.NewZombieStack())
	cfg.Chaos = plan
	cfg.Obs = o
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o, res
}

// TestAutopilotObsCounters checks every counter against the run's own
// Result: the counters are incremented at the same sites as the result
// fields, so they must agree exactly.
func TestAutopilotObsCounters(t *testing.T) {
	o, res := runObservedAutopilot(t)
	snap := o.Metrics.Snapshot()
	want := map[string]uint64{
		"autopilot_ticks_total":           uint64(res.Ticks),
		"autopilot_arrivals_total":        uint64(res.Arrivals),
		"autopilot_admitted_total":        uint64(res.Admitted),
		"autopilot_rejected_total":        uint64(res.Rejected),
		"autopilot_departures_total":      uint64(res.Departures),
		"autopilot_emergency_wakes_total": uint64(res.EmergencyWakes),
		"autopilot_chaos_faults_total":    uint64(res.ServerCrashes + res.StuckZombies + res.ControllerFailovers),
	}
	for name, v := range want {
		if snap.Counters[name] != v {
			t.Errorf("%s = %d, want %d", name, snap.Counters[name], v)
		}
	}
	if res.ServerCrashes == 0 || res.Ticks == 0 || res.Arrivals == 0 {
		t.Fatalf("scenario did not exercise the loop: %+v", res)
	}
	// The transitions counter tracks billed posture changes only; the chaos
	// penalty path adds more state transitions to the result on top.
	billed := snap.Counters["autopilot_transitions_total"]
	if billed == 0 || billed > uint64(res.StateTransitions) {
		t.Errorf("billed transitions %d, want in [1, %d]", billed, res.StateTransitions)
	}
	if repairs := snap.Counters["autopilot_chaos_repairs_total"]; repairs == 0 {
		t.Error("no chaos repairs observed")
	}
}

// TestAutopilotObsTraceDeterministic pins the determinism contract at the
// autopilot layer: every event is stamped with the loop's simulated clock,
// so two identical runs export byte-identical NDJSON.
func TestAutopilotObsTraceDeterministic(t *testing.T) {
	render := func() []byte {
		o, _ := runObservedAutopilot(t)
		var buf bytes.Buffer
		if err := o.Trace.WriteNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Errorf("same-config runs diverged:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestAutopilotObsNilIdentical pins the telemetry-only contract: attaching
// an obs bundle leaves the run's result bit-identical to an unobserved run.
func TestAutopilotObsNilIdentical(t *testing.T) {
	tr := chaosTrace(t)
	run := func(o *obs.Obs) Result {
		cfg := baseConfig(tr)
		cfg.Policy = NewHysteresis(consolidation.NewZombieStack())
		cfg.Obs = o
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	observed := run(obs.New(obs.Options{}))
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("obs changed the run:\nplain    %+v\nobserved %+v", plain, observed)
	}
}

// runCountingFolds runs the reactive policy over base on tr with an attached
// bundle and returns the exact-fold counter beside the Result.
func runCountingFolds(t *testing.T, tr *trace.Trace, base consolidation.Policy) (uint64, Result) {
	t.Helper()
	o := obs.New(obs.Options{})
	cfg := baseConfig(tr)
	cfg.Policy = NewReactive(base)
	cfg.Obs = o
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o.Metrics.Snapshot().Counters["autopilot_sizing_exact_folds_total"], res
}

// TestExactFoldCounter: a planner with a sizing rule takes the exact fold on
// a straddled boundary only, a planner without one on every admission, and
// the count stays out of Result either way.
func TestExactFoldCounter(t *testing.T) {
	tr := chaosTrace(t)
	ruled, res := runCountingFolds(t, tr, consolidation.NewZombieStack())
	if ruled > uint64(res.Admitted)/100 {
		t.Errorf("%d of %d admissions fell back to the exact fold under a planner with a sizing rule", ruled, res.Admitted)
	}
	folded, wrapped := runCountingFolds(t, tr, planOnly{consolidation.NewZombieStack()})
	if folded != uint64(wrapped.Admitted) || wrapped.Admitted == 0 {
		t.Errorf("%d exact folds for %d admissions under a Plan-only planner", folded, wrapped.Admitted)
	}
	if res != wrapped {
		t.Errorf("the two paths disagree:\n%+v\n%+v", res, wrapped)
	}
}

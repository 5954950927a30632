package scenario

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/autopilot"
	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/dcsim"
	"repro/internal/energy"
	"repro/internal/trace"
)

// badTask is one way to break a trace task: the edit, and the error text
// trace validation gives the edited task.
type badTask struct {
	name string
	edit func(*trace.Task)
	want func(trace.Task) string
}

// badTasks lists each rule of Task.Validate, broken alone, and both halves
// of the horizon rule.
func badTasks(horizon int64) []badTask {
	var cases []badTask
	order := func(t trace.Task) string {
		return fmt.Sprintf("trace: task %d ends (%d) before it starts (%d)", t.ID, t.EndSec, t.StartSec)
	}
	cases = append(cases,
		badTask{"end=start", func(t *trace.Task) { t.EndSec = t.StartSec }, order},
		badTask{"end<start", func(t *trace.Task) { t.EndSec = t.StartSec - 1 }, order},
	)
	fields := []struct {
		name string
		at   func(*trace.Task) *float64
	}{
		{"booked-cpu", func(t *trace.Task) *float64 { return &t.BookedCPU }},
		{"booked-mem", func(t *trace.Task) *float64 { return &t.BookedMemGiB }},
		{"used-cpu", func(t *trace.Task) *float64 { return &t.UsedCPU }},
		{"used-mem", func(t *trace.Task) *float64 { return &t.UsedMemGiB }},
	}
	for _, f := range fields {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cases = append(cases, badTask{fmt.Sprintf("%s=%v", f.name, x), func(t *trace.Task) { *f.at(t) = x },
				func(t trace.Task) string { return fmt.Sprintf("trace: task %d has a non-finite demand", t.ID) }})
		}
	}
	booking := func(t trace.Task) string { return fmt.Sprintf("trace: task %d books non-positive resources", t.ID) }
	cpu := func(t trace.Task) string {
		return fmt.Sprintf("trace: task %d uses implausible CPU %v (booked %v)", t.ID, t.UsedCPU, t.BookedCPU)
	}
	mem := func(t trace.Task) string {
		return fmt.Sprintf("trace: task %d uses implausible memory %v (booked %v)", t.ID, t.UsedMemGiB, t.BookedMemGiB)
	}
	outside := func(t trace.Task) string { return fmt.Sprintf("trace: task %d outside the horizon", t.ID) }
	return append(cases,
		badTask{"booked-cpu=0", func(t *trace.Task) { t.BookedCPU = 0 }, booking},
		badTask{"booked-mem<0", func(t *trace.Task) { t.BookedMemGiB = -1 }, booking},
		badTask{"used-cpu<0", func(t *trace.Task) { t.UsedCPU = -0.5 }, cpu},
		badTask{"used-cpu>1.5x", func(t *trace.Task) { t.UsedCPU = 2 * t.BookedCPU }, cpu},
		badTask{"used-mem<0", func(t *trace.Task) { t.UsedMemGiB = -0.5 }, mem},
		badTask{"used-mem>1.5x", func(t *trace.Task) { t.UsedMemGiB = 2 * t.BookedMemGiB }, mem},
		badTask{"start<0", func(t *trace.Task) { t.StartSec = -5 }, outside},
		badTask{"end>horizon", func(t *trace.Task) { t.EndSec = horizon + 1 }, outside},
	)
}

// entryErrors runs every entry point that validates a trace on tr, at the
// given worker count, and returns each one's error text ("" for none). The
// entry points that take several traces get a valid one first.
func entryErrors(t *testing.T, good, tr *trace.Trace, workers int) map[string]string {
	t.Helper()
	spec := consolidation.DefaultServerSpec()
	online := autopilot.Config{
		Trace: tr, Policy: autopilot.NewReactive(consolidation.NewNeat()), Machine: energy.HPProfile(),
		ServerSpec: spec, TickSec: 300, Workers: workers,
	}
	plan, err := chaos.Scenario("light", tr.HorizonSec, tr.Machines, 42)
	if err != nil {
		t.Fatal(err)
	}
	errs := map[string]error{}
	_, errs["dcsim.Run"] = dcsim.Run(dcsim.Config{
		Trace: tr, Policy: consolidation.NewZombieStack(), Machine: energy.HPProfile(), ServerSpec: spec,
		Workers: workers, TransitionCosts: true,
	})
	_, errs["dcsim.CompareOpts"] = dcsim.CompareOpts(tr, energy.Profiles(), spec, dcsim.CompareOptions{Workers: workers, TransitionCosts: true})
	_, errs["dcsim.Sweep"] = dcsim.Sweep(dcsim.SweepConfig{
		Policies: consolidation.Contenders(), Machines: energy.Profiles(), Traces: []*trace.Trace{good, tr},
		PeriodsSec: []int64{300, 600}, SweepWorkers: workers,
	})
	_, errs["autopilot.Run"] = autopilot.Run(online)
	_, errs["autopilot.Regret"] = autopilot.Regret(online)
	_, errs["autopilot.RunChaos"] = autopilot.RunChaos(online, plan)
	_, errs["scenario.Run"] = Run(MatrixConfig{
		Packs: []Pack{{Name: "good", Trace: good}, {Name: "bad", Trace: tr}}, Policies: []string{"reactive"},
		Workers: workers,
	})
	texts := make(map[string]string, len(errs))
	for name, err := range errs {
		if err != nil {
			texts[name] = err.Error()
		}
	}
	return texts
}

// TestEntryPointsReportTraceErrors breaks one task of a valid trace, by each
// rule, at the first, a middle and the last position, and also two tasks in
// different worker ranges, and runs every entry point on it at workers 1 to
// 4: each reports the first broken task's error, in trace validation's text
// and its own wrapping, whichever pass finds it.
func TestEntryPointsReportTraceErrors(t *testing.T) {
	good, err := trace.Generate(trace.GeneratorConfig{
		Name: "valid", Machines: 12, HorizonSec: 2 * 3600, Tasks: 40,
		MemoryToCPURatio: 3, MeanUtilization: 0.35, IdleFraction: 0.25, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := len(good.Tasks)
	type brokenTrace struct {
		name string
		tr   *trace.Trace
		want string // the task error
	}
	var traces []brokenTrace
	breakAt := func(tr *trace.Trace, i int, b badTask) string {
		b.edit(&tr.Tasks[i])
		return b.want(tr.Tasks[i])
	}
	clone := func(name string) *trace.Trace {
		tr := *good
		tr.Name, tr.Tasks = name, slices.Clone(good.Tasks)
		return &tr
	}
	cases := badTasks(good.HorizonSec)
	for _, b := range cases {
		for _, i := range []int{0, n / 2, n - 1} {
			name := fmt.Sprintf("%s@%d", b.name, i)
			tr := clone(name)
			traces = append(traces, brokenTrace{name, tr, breakAt(tr, i, b)})
		}
	}
	// Two bad tasks, one in the first worker range and one in the last at
	// every worker count above 1, broken by different rules.
	two := clone("two-bad")
	want := breakAt(two, 3, cases[len(cases)-3]) // used-mem>1.5x
	breakAt(two, n-4, cases[0])                  // end=start
	traces = append(traces, brokenTrace{"two-bad", two, want})

	for _, c := range traces {
		if err := c.tr.Validate(); err == nil || err.Error() != c.want {
			t.Fatalf("%s: Trace.Validate gives %v, want %q", c.name, err, c.want)
		}
		wants := map[string]string{
			"dcsim.Run":          c.want,
			"dcsim.CompareOpts":  c.want,
			"dcsim.Sweep":        fmt.Sprintf("dcsim: sweep trace %q: %s", c.name, c.want),
			"autopilot.Run":      c.want,
			"autopilot.Regret":   c.want,
			"autopilot.RunChaos": c.want,
			"scenario.Run":       fmt.Sprintf("scenario: pack %q: %s", "bad", c.want),
		}
		for workers := 1; workers <= 4; workers++ {
			got := entryErrors(t, good, c.tr, workers)
			for name, want := range wants {
				if got[name] != want {
					t.Errorf("%s, %d workers: %s returned %q, want %q", c.name, workers, name, got[name], want)
				}
			}
		}
	}
}

package autopilot

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/trace"
)

// planOnly hides everything of a planner but Name and Plan, the sizing rule
// included: the loop must size every arrival under it by the exact fold.
type planOnly struct{ consolidation.Policy }

// TestArrivalSizingEqualsExactFold pins the bracketed sizing of an arrival to
// the fold it replaced: every bundled policy over every bundled planner, on a
// fault-free trace and under light chaos (the usable fleet moves and wakes
// fail), returns the same Result whether the planner states its sizing rule or
// only has Plan.
func TestArrivalSizingEqualsExactFold(t *testing.T) {
	quiet, err := trace.GenerateFamily("flashcrowd", trace.FamilyParams{Machines: 60, HorizonSec: 6 * 3600, Tasks: 2500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	faulted := chaosTrace(t)
	light, err := chaos.Scenario("light", faulted.HorizonSec, faulted.Machines, 7)
	if err != nil {
		t.Fatal(err)
	}
	var wakes, faults int
	for _, c := range []struct {
		tr   *trace.Trace
		plan *chaos.Plan
	}{{quiet, nil}, {light.PerturbTrace(faulted), light}} {
		for _, planner := range consolidation.Contenders() {
			for i := range Policies(planner) {
				run := func(base consolidation.Policy) Result {
					cfg := baseConfig(c.tr)
					cfg.Policy = Policies(base)[i]
					cfg.Chaos = c.plan
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				got, want := run(planner), run(planOnly{planner})
				if got != want {
					t.Errorf("%s/%s on %s: sized by the rule\n%+v\nsized by Plan\n%+v", got.Policy, got.Planner, c.tr.Name, got, want)
				}
				wakes += got.EmergencyWakes
				faults += got.StuckZombies + got.ServerCrashes
			}
		}
	}
	if wakes == 0 || faults == 0 {
		t.Fatalf("the runs exercised %d emergency wakes and %d faults: nothing was compared", wakes, faults)
	}
}

// TestStraddledBracketFoldsExactly drives the fallback under a planner that
// has the sizing rule: every task books exactly one server's packing target
// (8 cores and 16 GiB at 0.9), so the running sums sit on a Ceil boundary
// after almost every arrival, the bracket straddles it, and the loop must
// merge the pending arrivals and fold — to the same Result as a loop that
// always folds.
func TestStraddledBracketFoldsExactly(t *testing.T) {
	tr := &trace.Trace{Name: "boundary", Machines: 120, HorizonSec: 3600}
	for i := 0; i < 400; i++ {
		start := int64(i*7919%3000) + 1
		tr.Tasks = append(tr.Tasks, trace.Task{
			ID: i * 37 % 401, StartSec: start, EndSec: start + 90 + int64(i%300),
			BookedCPU: 7.2, BookedMemGiB: 14.4, UsedCPU: 3, UsedMemGiB: 5,
		})
	}
	slices.SortFunc(tr.Tasks, func(a, b trace.Task) int { return cmp.Compare(a.StartSec, b.StartSec) })
	folds, got := runCountingFolds(t, tr, consolidation.NewNeat())
	_, want := runCountingFolds(t, tr, planOnly{consolidation.NewNeat()})
	if got != want {
		t.Errorf("sized by the rule\n%+v\nsized by Plan\n%+v", got, want)
	}
	if folds == 0 || folds == uint64(got.Admitted) || got.EmergencyWakes == 0 {
		t.Errorf("%d exact folds and %d emergency wakes in %d admissions: want some straddles, not all", folds, got.EmergencyWakes, got.Admitted)
	}
}

// BenchmarkOnlineArrivals measures the per-arrival cost of the online loop on
// serverless traces, where arrivals dominate: the plain rows size an arrival
// from the running sums, the plan-only rows hide the sizing rule and so pay
// the merge-of-one insert and the fold per arrival, as every planner did
// before the rule existed.
func BenchmarkOnlineArrivals(b *testing.B) {
	for _, tasks := range []int{20000, 100000} {
		tr, err := trace.GenerateFamily("serverless", trace.FamilyParams{Machines: 200, HorizonSec: 24 * 3600, Tasks: tasks, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		for _, planner := range []consolidation.Policy{consolidation.NewZombieStack(), consolidation.NewNeat()} {
			for _, base := range []consolidation.Policy{planner, planOnly{planner}} {
				name := fmt.Sprintf("tasks=%d/%s", tasks, planner.Name())
				if base != planner {
					name += "/plan-only"
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						cfg := baseConfig(tr)
						cfg.Policy = NewReactive(base)
						if _, err := Run(cfg); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tasks), "ns/arrival")
				})
			}
		}
	}
}

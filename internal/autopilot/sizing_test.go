package autopilot

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/trace"
)

// planOnly is a wrapper planner, like an instrumented one: it forwards the
// Policy interface and nothing else.
type planOnly struct{ consolidation.Policy }

// intervalTrace draws a small random trace of size%301 tasks on a one-hour
// horizon from the fuzz arguments. Starts fall on a one-minute grid, so many
// tasks share one and many start or end on a tick; about a third are idle;
// rows are in random order and IDs may repeat. Shape 0 draws random demands;
// the other shapes are made of tasks of 0.9 and 7.2 cores (1.8 and 14.4 GiB),
// whose sums hug the packing boundaries of an 8-core, 16 GiB server.
func intervalTrace(seed int64, size uint16, shape uint8, total uint16) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	n := int(size) % 301
	tr := &trace.Trace{Name: "interval", Machines: 1 + int(total)%97, HorizonSec: 3600}
	for range n {
		start := 60 * rng.Int63n(60)
		task := trace.Task{ID: rng.Intn(n + 1), StartSec: start, EndSec: start + 1 + rng.Int63n(tr.HorizonSec-start)}
		task.BookedCPU = 0.25 + 7.75*rng.Float64()
		if shape%4 != 0 {
			task.BookedCPU = []float64{0.9, 7.2}[rng.Intn(2)]
		}
		task.BookedMemGiB = 2 * task.BookedCPU
		task.UsedMemGiB = task.BookedMemGiB * rng.Float64()
		if task.UsedCPU = task.BookedCPU * rng.Float64(); rng.Intn(3) == 0 {
			task.UsedCPU = 0.0099 * rng.Float64()
		}
		tr.Tasks = append(tr.Tasks, task)
	}
	return tr
}

// FuzzIntervalDemand is the interval law of the online loop. After every
// admitted arrival, the loop's interval Demand is SumDemand of the interval
// population in rank order, every field bit for bit, and the requirement it
// sizes the posture by is Plan's of that population. The population is the
// admitted VMs still running when the interval began and those admitted since
// (ranks follow arrival order, so that is every admitted rank so far that ends
// after the interval start). Every planner runs, a wrapper included, under
// every policy, with and without a heavy chaos plan. The corpus under
// testdata/fuzz holds an empty trace, one task, 184 tasks of random demands,
// 182 to 184 boundary-hugging tasks on 61 servers, and 291 of them on one
// server and on eight.
func FuzzIntervalDemand(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size uint16, shape uint8, total uint16) {
		tr := intervalTrace(seed, size, shape, total)
		heavy, err := chaos.Scenario("heavy", tr.HorizonSec, tr.Machines, seed)
		if err != nil {
			t.Fatal(err)
		}
		planners := append(consolidation.AllPolicies(), planOnly{consolidation.NewZombieStack()})
		for _, plan := range []*chaos.Plan{nil, heavy} {
			for _, planner := range planners {
				for _, pol := range Policies(planner) {
					checkInterval(t, tr, pol, plan)
				}
			}
		}
	})
}

// TestArrivalSizingEqualsExactFold holds the interval law on larger traces
// than the fuzz draws: every policy over every planner, a wrapper included, on
// a fault-free flashcrowd trace and under light chaos (the usable fleet moves
// and wakes fail). Every admitted arrival is sized as Plan sizes the interval
// population.
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
		for _, planner := range append(consolidation.AllPolicies(), planOnly{consolidation.NewNeat()}) {
			for _, pol := range Policies(planner) {
				res := checkInterval(t, c.tr, pol, c.plan)
				wakes += res.EmergencyWakes
				faults += res.StuckZombies + res.ServerCrashes
			}
		}
	}
	if wakes == 0 || faults == 0 {
		t.Fatalf("the runs exercised %d emergency wakes and %d faults", wakes, faults)
	}
}

// TestStraddledBracketFoldsExactly runs a trace whose every task books
// exactly one server's packing target (7.2 cores, 14.4 GiB), so the interval
// sums straddle a Ceil boundary after almost every arrival and some arrivals
// need an emergency wake. Under every policy over every planner, a wrapper
// included, each admitted arrival is sized as Plan sizes the interval
// population, and a planner replays exactly as the same planner behind a
// wrapper.
func TestStraddledBracketFoldsExactly(t *testing.T) {
	tr := &trace.Trace{Name: "boundary", Machines: 120, HorizonSec: 3600}
	for i := 0; i < 400; i++ {
		start := int64(i*7919%3000) + 1
		tr.Tasks = append(tr.Tasks, trace.Task{
			ID: i * 37 % 401, StartSec: start, EndSec: start + 90 + int64(i%300),
			BookedCPU: 7.2, BookedMemGiB: 14.4, UsedCPU: 3, UsedMemGiB: 5,
		})
	}
	wakes := 0
	for _, planner := range append(consolidation.AllPolicies(), planOnly{consolidation.NewNeat()}) {
		for _, pol := range Policies(planner) {
			wakes += checkInterval(t, tr, pol, nil).EmergencyWakes
		}
	}
	if wakes == 0 {
		t.Fatal("no admission straddled a boundary into an emergency wake")
	}
	got := checkInterval(t, tr, NewReactive(consolidation.NewNeat()), nil)
	want := checkInterval(t, tr, NewReactive(planOnly{consolidation.NewNeat()}), nil)
	if got != want {
		t.Errorf("sized by the planner\n%+v\nsized behind a wrapper\n%+v", got, want)
	}
}

// checkInterval runs one configuration and checks the interval law after
// every admission.
func checkInterval(t *testing.T, tr *trace.Trace, pol Policy, plan *chaos.Plan) Result {
	t.Helper()
	var ranks []int32 // admitted, in rank order
	endOf := make([]int64, len(tr.Tasks))
	admitted = func(l *lane, rank int32) {
		if len(ranks) == 0 {
			for i, r := range ranksOf(t, tr, l.idx) {
				endOf[r] = tr.Tasks[i].EndSec
			}
		}
		if n := len(ranks); n > 0 && rank <= ranks[n-1] {
			t.Fatalf("rank %d admitted after rank %d", rank, ranks[n-1])
		}
		ranks = append(ranks, rank)
		var pop []consolidation.VMDemand
		for _, r := range ranks {
			if endOf[r] > l.intervalStart {
				pop = append(pop, vmDemand(&l.idx.tasks[r]))
			}
		}
		if want := consolidation.SumDemand(pop); !bitEqual(l.cum, want) {
			t.Fatalf("%s/%s, chaos %v, rank %d at interval %d: the loop holds\n%+v\nSumDemand of the population is\n%+v",
				pol.Name(), l.planner.Name(), plan != nil, rank, l.intervalStart, l.cum, want)
		}
		if got, want := l.requiredHosts(), l.planner.Plan(pop, l.cfg.ServerSpec, l.available()).ActiveHosts; got != want {
			t.Fatalf("%s/%s, chaos %v, rank %d: the loop requires %d hosts, Plan of the population %d",
				pol.Name(), l.planner.Name(), plan != nil, rank, got, want)
		}
	}
	defer func() { admitted = nil }()
	cfg := baseConfig(tr)
	cfg.Policy, cfg.Chaos = pol, plan
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != res.Admitted {
		t.Fatalf("%d admissions observed, %d reported", len(ranks), res.Admitted)
	}
	return res
}

// bitEqual reports whether two structs hold the same fields, floats compared
// bit for bit (so -0 differs from 0 and a NaN equals itself).
func bitEqual(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := range va.NumField() {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if !fa.Equal(fb) {
			return false
		}
	}
	return true
}

// BenchmarkOnlineArrivals measures the per-arrival cost of the online loop on
// serverless traces, where arrivals dominate: an admitted arrival adds its
// terms to the interval's Demand and plans from it. Oasis reads the Demand's
// busy/idle split, which it used to fold over the whole interval.
func BenchmarkOnlineArrivals(b *testing.B) {
	for _, tasks := range []int{20000, 100000} {
		tr, err := trace.GenerateFamily("serverless", trace.FamilyParams{Machines: 200, HorizonSec: 24 * 3600, Tasks: tasks, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		for _, planner := range consolidation.Contenders() {
			b.Run(fmt.Sprintf("tasks=%d/%s", tasks, planner.Name()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cfg := baseConfig(tr)
					cfg.Policy = NewReactive(planner)
					if _, err := Run(cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tasks), "ns/arrival")
			})
		}
	}
}

// BenchmarkRun times whole runs on 20 000-task traces: mlbatch, whose
// population stays large, and serverless, whose tasks are many and short.
func BenchmarkRun(b *testing.B) {
	for _, c := range []struct {
		family   string
		machines int
	}{{"mlbatch", 400}, {"serverless", 200}} {
		tr, err := trace.GenerateFamily(c.family, trace.FamilyParams{Machines: c.machines, HorizonSec: 24 * 3600, Tasks: 20000, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		for _, base := range []consolidation.Policy{consolidation.NewOasis(), consolidation.NewZombieStack()} {
			b.Run(c.family+"/"+base.Name(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cfg := baseConfig(tr)
					cfg.Policy = NewReactive(base)
					if _, err := Run(cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

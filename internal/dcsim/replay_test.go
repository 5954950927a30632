package dcsim

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/consolidation"
	"repro/internal/energy"
	"repro/internal/exact"
	"repro/internal/trace"
)

// seekCase decodes a byte string into a small trace and a consolidation
// period: byte 0 is the horizon (1..256 s), byte 1 the period (1..256 s, so
// it may exceed the horizon), then three bytes per task — start, duration
// and a spread that also scatters the IDs, so ID order is not trace order.
func seekCase(data []byte) (*trace.Trace, int64) {
	if len(data) < 2 {
		data = []byte{0, 0}
	}
	horizon, period := int64(data[0])+1, int64(data[1])+1
	tr := &trace.Trace{Name: "seek", Machines: 4, HorizonSec: horizon}
	for i := 2; i+3 <= len(data) && len(tr.Tasks) < 64; i += 3 {
		start := int64(data[i]) % horizon
		end := start + 1 + int64(data[i+1])%(horizon-start)
		cpu := 1 + float64(data[i+2]%8)
		tr.Tasks = append(tr.Tasks, trace.Task{
			ID: len(tr.Tasks) + 1000*int(data[i+2]%3), StartSec: start, EndSec: end,
			BookedCPU: cpu, BookedMemGiB: 2 * cpu, UsedCPU: cpu / 2, UsedMemGiB: cpu,
		})
	}
	return tr, period
}

// exactDemand is the oracle for the difference pass's sums: the terms
// SumDemand folds, summed in big.Floats wide enough to hold any float64 sum
// exactly and rounded once each.
func exactDemand(vms []consolidation.VMDemand) consolidation.Demand {
	var sums [9]big.Float
	add := func(i int, x float64) {
		sums[i].SetPrec(2400).Add(&sums[i], new(big.Float).SetFloat64(x))
	}
	d := consolidation.Demand{VMs: len(vms)}
	for _, v := range vms {
		add(0, v.BookedCPU)
		add(1, v.BookedMemGiB)
		add(2, v.UsedCPU)
		add(3, v.UsedMemGiB)
		if v.Idle() {
			add(4, v.WSSGiB())
			add(5, v.BookedMemGiB-v.WSSGiB())
		} else {
			d.BusyVMs++
			add(6, v.BookedCPU)
			add(7, v.BookedMemGiB)
			add(8, v.UsedCPU)
		}
	}
	var f [9]float64
	for i := range sums {
		f[i], _ = sums[i].Float64()
	}
	d.BookedCPU, d.BookedMemGiB, d.UsedCPU, d.UsedMemGiB = f[0], f[1], f[2], f[3]
	d.IdleWSSGiB, d.IdleColdGiB = f[4], f[5]
	d.BusyBookedCPU, d.BusyBookedMemGiB, d.BusyUsedCPU = f[6], f[7], f[8]
	return d
}

// taskDemand is the consolidation view of one task.
func taskDemand(task trace.Task) consolidation.VMDemand {
	return consolidation.VMDemand{
		BookedCPU: task.BookedCPU, BookedMemGiB: task.BookedMemGiB, UsedCPU: task.UsedCPU, UsedMemGiB: task.UsedMemGiB,
	}
}

// checkSeek is the brute-force oracle: for workers 1 to 4, the Demand the
// difference pass yields for every epoch must be, bit for bit, the exact sums
// of "filter the tasks overlapping the span".
func checkSeek(t *testing.T, tr *trace.Trace, periodSec int64) {
	t.Helper()
	spans := epochSpans(tr.HorizonSec, periodSec)
	want := make([]consolidation.Demand, len(spans))
	for j, span := range spans {
		var vms []consolidation.VMDemand
		for _, task := range tr.Tasks {
			if task.StartSec < span.end && task.EndSec > span.start {
				vms = append(vms, taskDemand(task))
			}
		}
		want[j] = exactDemand(vms)
	}
	for workers := 1; workers <= 4; workers++ {
		for j, d := range passDemands(t, tr, periodSec, len(spans), workers) {
			if !bitEqual(d, want[j]) {
				t.Fatalf("period %d, %d workers: Demand of epoch %d\n got %+v\nwant %+v", periodSec, workers, j, d, want[j])
			}
		}
	}
}

// passDemands is the difference pass on the grid the tasks' four demands
// span. termGrid's scan must find that grid, or refuse the trace with
// Trace.Validate's error: demandCase's smallest scales use more CPU than they
// book, and the pass is still checked on them.
func passDemands(t *testing.T, tr *trace.Trace, periodSec int64, epochs, workers int) []consolidation.Demand {
	t.Helper()
	var span exact.Span
	for _, task := range tr.Tasks {
		span.Cover(task.BookedCPU, task.BookedMemGiB, task.UsedCPU, task.UsedMemGiB)
	}
	want := span.Grid(2 * len(tr.Tasks))
	grid, err := termGrid(tr, workers)
	if verr := tr.Validate(); fmt.Sprint(err) != fmt.Sprint(verr) || err == nil && grid != want {
		t.Fatalf("%d workers: the scan finds grid %+v with error %v; the demands span %+v, Trace.Validate says %v", workers, grid, err, want, verr)
	}
	return epochDemands(tr, want, periodSec, epochs, workers)
}

// TestReplayerSeekEqualsBruteForce runs the oracle over a seeded batch of
// random traces. Horizons, periods and task bounds all come from one byte, so
// shared starts and tasks ending or starting exactly on an epoch boundary are
// the common case, not the rare one.
func TestReplayerSeekEqualsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 300; i++ {
		data := make([]byte, 2+3*rng.Intn(65))
		rng.Read(data)
		tr, period := seekCase(data)
		checkSeek(t, tr, period)
	}
}

// TestIdleColdTermsFitTheGrid: the grid is found from the four demands of
// every task, and an idle VM's cold term, booked less used memory, must land
// on it exactly too — here 0.5, 0.25 and -0.25 beside demands whose last
// significand bits lie above theirs, and a cold term that rounds.
func TestIdleColdTermsFitTheGrid(t *testing.T) {
	tr := &trace.Trace{Name: "cold", Machines: 2, HorizonSec: 900, Tasks: []trace.Task{
		{ID: 1, EndSec: 900, BookedCPU: 1, BookedMemGiB: 2, UsedMemGiB: 1.5},
		{ID: 2, StartSec: 300, EndSec: 600, BookedCPU: 2, BookedMemGiB: 1, UsedMemGiB: 0.75},
		{ID: 3, StartSec: 299, EndSec: 301, BookedCPU: 4, BookedMemGiB: 1, UsedMemGiB: 1.25},
		{ID: 4, StartSec: 600, EndSec: 900, BookedCPU: 1, BookedMemGiB: 1e16, UsedMemGiB: 1.5, UsedCPU: 0.005},
	}}
	checkSeek(t, tr, 300)
}

// FuzzReplayerSeek feeds checkSeek arbitrary cases. The corpus checked in
// under testdata/fuzz holds the hand-written ones: on a 120 s horizon with a
// 30 s period, tasks that share a start, end exactly on an epoch start
// (10..30, 59..60), start exactly on an epoch end (60..61) and span the whole
// horizon; the same tasks under a 200 s period, longer than the horizon; a
// one-second horizon; and one-second epochs.
func FuzzReplayerSeek(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, period := seekCase(data)
		checkSeek(t, tr, period)
	})
}

// demandCase builds a trace of size%5001 tasks that all run through its one
// 300 s epoch, with IDs shuffled so rank order is not trace order. About
// idle percent of them are idle (below 1 % of a core) and the rest busy.
// Their demands spread over eight binary orders of magnitude, scaled by
// 2^(8·(mag%128)), so the sums may round, overflow or lose every small term.
func demandCase(seed int64, size uint16, idle uint8, mag int8) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	scale := math.Ldexp(1, 8*(int(mag)%128))
	draw := func() float64 { return scale * math.Ldexp(1+rng.Float64(), rng.Intn(8)-4) }
	tr := &trace.Trace{Name: "demand", Machines: 100, HorizonSec: 300}
	for _, id := range rng.Perm(int(size) % 5001) {
		task := trace.Task{ID: id, EndSec: 300, BookedCPU: draw(), BookedMemGiB: draw()}
		task.UsedMemGiB = task.BookedMemGiB * 1.5 * rng.Float64()
		if rng.Intn(100) < int(idle) {
			task.UsedCPU = 0.0099 * rng.Float64()
		} else {
			task.UsedCPU = 0.01 + task.BookedCPU*rng.Float64()
		}
		tr.Tasks = append(tr.Tasks, task)
	}
	return tr
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

// FuzzPlanDemand pins planning from sums to planning from the population:
// the difference pass's Demand is the exact sums of the population, whatever
// the worker count, and every built-in policy's Plan of that population is
// PlanDemand of its SumDemand, bit for bit. The corpus checked in under
// testdata/fuzz holds an empty population, one VM, all idle, none idle,
// 5 000 VMs, 5 000 VMs whose sums overflow and 400 VMs at a scale so small
// that they use more CPU than they book.
func FuzzPlanDemand(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size uint16, idle uint8, mag int8, total uint16) {
		tr := demandCase(seed, size, idle, mag)
		vms := make([]consolidation.VMDemand, len(tr.Tasks))
		for i, task := range tr.Tasks {
			vms[i] = taskDemand(task)
		}
		exact := exactDemand(vms)
		for workers := 1; workers <= 4; workers++ {
			if got := passDemands(t, tr, tr.HorizonSec, 1, workers)[0]; !bitEqual(got, exact) {
				t.Fatalf("%d tasks, %d workers: the difference pass's Demand is\n%+v\nthe exact sums\n%+v", len(vms), workers, got, exact)
			}
		}
		want := consolidation.SumDemand(vms)
		spec := consolidation.DefaultServerSpec()
		for _, p := range consolidation.AllPolicies() {
			plan, fromSums := p.Plan(vms, spec, int(total)), p.PlanDemand(want, spec, int(total))
			if !bitEqual(plan, fromSums) {
				t.Fatalf("%s on %d VMs, %d servers: Plan\n%+v\nPlanDemand of the sums\n%+v", p.Name(), len(vms), total, plan, fromSums)
			}
		}
	})
}

// TestDuplicateTaskIDsReplayDeterministically: trace.Validate does not look
// for repeated task IDs (only the CSV reader does), and no replay keys on an
// ID, so a trace that repeats one replays as two VMs: Run, CompareOpts and
// Sweep accept it, and twice the same call gives the same result.
func TestDuplicateTaskIDsReplayDeterministically(t *testing.T) {
	tr := engineTestTrace(t)
	dup := *tr
	dup.Tasks = slices.Clone(tr.Tasks)
	dup.Tasks[len(dup.Tasks)-1].ID = dup.Tasks[3].ID
	if err := dup.Validate(); err != nil {
		t.Fatalf("trace.Validate rejects the trace: %v", err)
	}
	spec := consolidation.DefaultServerSpec()
	replay := func() []Result {
		res, err := Run(Config{Trace: &dup, Policy: consolidation.NewNeat(), Machine: energy.HPProfile(), ServerSpec: spec})
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := CompareOpts(&dup, energy.Profiles(), spec, CompareOptions{TransitionCosts: true})
		if err != nil {
			t.Fatal(err)
		}
		sw, err := Sweep(SweepConfig{Policies: consolidation.Contenders(), Machines: energy.Profiles(), Traces: []*trace.Trace{&dup}, PeriodsSec: []int64{300}})
		if err != nil {
			t.Fatal(err)
		}
		return append(append([]Result{res}, cmp.Results...), sw.Runs...)
	}
	want := replay()
	for i, got := range replay() {
		if !bitEqual(got, want[i]) {
			t.Fatalf("run %d differs between two replays\n got %+v\nwant %+v", i, got, want[i])
		}
	}
}

// TestCompareFormatsVMIDsOncePerTrace pins the sharing: a comparison is six
// runs in one walk of one trace. It allocates the difference array and the
// epochs' Demands once, plus a small constant per run — no VM ID is formatted
// at all, let alone one per task per run.
func TestCompareFormatsVMIDsOncePerTrace(t *testing.T) {
	tr := engineTestTrace(t)
	spec := consolidation.DefaultServerSpec()
	compare := func() {
		if _, err := CompareOpts(tr, energy.Profiles(), spec, CompareOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	compare()
	runs := len(energy.Profiles()) * len(consolidation.Contenders())
	got := countAllocs(compare)
	if budget := uint64(23 + 4*runs); got > budget {
		t.Fatalf("CompareOpts over %d tasks x %d runs costs %d allocs, budget %d", len(tr.Tasks), runs, got, budget)
	}
	t.Logf("CompareOpts: %d allocs for %d tasks x %d runs", got, len(tr.Tasks), runs)
}

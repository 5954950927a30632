package dcsim

import (
	"cmp"
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
	idx := NewReplayIndex(&dup)
	if a, b := idx.Rank(3), idx.Rank(len(dup.Tasks)-1); a == b {
		t.Fatalf("the two tasks of ID %d share rank %d", dup.Tasks[3].ID, a)
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

// TestReplayIndexRanksAreTheArrivalOrder ranks hand-picked IDs whose decimal
// strings order differently from the numbers (a proper prefix, a digit-count
// boundary, a minus sign, both ends of int64) over five starts: each task's
// rank is its position in trace.ArrivalOrder, and the index holds its demand
// at that rank.
func TestReplayIndexRanksAreTheArrivalOrder(t *testing.T) {
	ids := []int{
		0, 9, 10, 12, 120, 1200, 99, 100, math.MaxInt64, math.MinInt64, -1, -10, -12, -120,
		1e18 - 1, 1e18, 1e18 + 1, 1, 2, 19, 20, 123456789, 1234567890, math.MaxInt64 - 1, math.MinInt64 + 1,
	}
	tr := &trace.Trace{Name: "ranks", Machines: 1, HorizonSec: 10}
	for i, id := range ids {
		tr.Tasks = append(tr.Tasks, trace.Task{ID: id, StartSec: int64(i % 5), EndSec: 10, BookedCPU: 1, BookedMemGiB: float64(i + 1)})
	}
	idx := NewReplayIndex(tr)
	for want, i := range trace.ArrivalOrder(tr.Tasks) {
		rank := idx.Rank(int(i))
		if rank != int32(want) {
			t.Fatalf("task %d (ID %d, start %d) has rank %d, arrival position %d", i, tr.Tasks[i].ID, tr.Tasks[i].StartSec, rank, want)
		}
		if v := idx.Demand(rank); v.BookedMemGiB != tr.Tasks[i].BookedMemGiB {
			t.Fatalf("task %d: rank %d holds %+v", i, rank, v)
		}
	}
}

// FuzzVMOrder pins the VM order: a task's rank is its position in the
// stream's arrival order, which is by start, then by ID as a number, then by
// position in the trace. A trace of five tasks repeats both IDs a and b and
// both starts, in the given row order and reversed, and the index must rank
// each task where the stream delivers it and where a stable sort by (start,
// ID) puts it, holding its demand at that rank. The corpus checked in under
// testdata/fuzz holds ID pairs whose decimal strings order differently from
// the numbers (a proper prefix, a digit-count boundary, a minus sign) and
// both ends of int64.
func FuzzVMOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b int64) {
		rows := []trace.Task{{ID: int(a)}, {ID: int(b)}, {ID: int(b), StartSec: 1}, {ID: int(a), StartSec: 1}, {ID: int(a)}}
		reversed := slices.Clone(rows)
		slices.Reverse(reversed)
		for _, tasks := range [][]trace.Task{rows, reversed} {
			tr := &trace.Trace{Name: "pair", Machines: 1, HorizonSec: 2, Tasks: tasks}
			for i := range tr.Tasks {
				tr.Tasks[i].EndSec, tr.Tasks[i].BookedCPU, tr.Tasks[i].BookedMemGiB = 2, 1, float64(i+1)
			}
			want := make([]int, len(tr.Tasks))
			for i := range want {
				want[i] = i
			}
			slices.SortStableFunc(want, func(i, j int) int {
				x, y := tr.Tasks[i], tr.Tasks[j]
				return cmp.Or(cmp.Compare(x.StartSec, y.StartSec), cmp.Compare(x.ID, y.ID))
			})
			idx := NewReplayIndex(tr)
			stream := trace.NewStream(tr)
			var rank int32
			for ev, ok := stream.Next(); ok; ev, ok = stream.Next() {
				if ev.Kind != trace.Arrive {
					continue
				}
				if ev.Index != want[rank] || idx.Rank(ev.Index) != rank {
					t.Fatalf("IDs %d, %d: arrival %d is task %d of rank %d, want task %d", a, b, rank, ev.Index, idx.Rank(ev.Index), want[rank])
				}
				if v := idx.Demand(rank); v.BookedMemGiB != ev.Task.BookedMemGiB {
					t.Fatalf("IDs %d, %d: rank %d holds %+v, task %d books %v GiB", a, b, rank, v, ev.Index, ev.Task.BookedMemGiB)
				}
				rank++
			}
		}
	})
}

// serialReplayIndex is the reference build of a replay index: the arrival
// pass, then the departure order, on one goroutine.
func serialReplayIndex(tr *trace.Trace) *ReplayIndex {
	order := trace.ArrivalOrder(tr.Tasks)
	n := len(order)
	idx := &ReplayIndex{
		starts: make([]int64, n), ends: make([]int64, n),
		demand: make([]consolidation.VMDemand, n), rankOf: make([]int32, n), busy: make([]uint64, (n+63)/64),
	}
	for rank, ti := range order {
		t := tr.Tasks[ti]
		idx.rankOf[ti] = int32(rank)
		idx.starts[rank], idx.ends[rank] = t.StartSec, t.EndSec
		idx.demand[rank] = consolidation.VMDemand{BookedCPU: t.BookedCPU, BookedMemGiB: t.BookedMemGiB, UsedCPU: t.UsedCPU, UsedMemGiB: t.UsedMemGiB}
		if !idx.demand[rank].Idle() {
			idx.busy[rank/64] |= 1 << (rank % 64)
		}
	}
	for _, ti := range trace.DepartureOrder(tr.Tasks) {
		idx.departs = append(idx.departs, idx.rankOf[ti])
	}
	return idx
}

// TestReplayIndexMatchesSerialBuild: the index built with its departure
// order sorted beside the arrival pass, checked or not, is the serial
// build's, departs, rankOf and busy included, on all five families, both
// Google-like presets, a trace whose tasks mostly end at one instant, and one
// whose times span 2^32 seconds and more, which sorts by comparator.
func TestReplayIndexMatchesSerialBuild(t *testing.T) {
	var traces []*trace.Trace
	for _, fam := range trace.Families() {
		tr, err := fam.Generate(trace.FamilyParams{Machines: 50, HorizonSec: 24 * 3600, Tasks: 3000, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	for _, cfg := range []trace.GeneratorConfig{trace.DefaultConfig(), trace.ModifiedConfig()} {
		cfg.Tasks = 3000
		tr, err := trace.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	rng := rand.New(rand.NewSource(3))
	cutOff := &trace.Trace{Name: "cut-off", Machines: 10, HorizonSec: 3600}
	wide := &trace.Trace{Name: "wide", Machines: 10, HorizonSec: 1 << 40}
	for i := range 2000 {
		start := rng.Int63n(3000)
		end := cutOff.HorizonSec
		if i%5 == 0 {
			end = start + 1 + rng.Int63n(cutOff.HorizonSec-start)
		}
		cutOff.Tasks = append(cutOff.Tasks, trace.Task{ID: rng.Intn(1 << 20), StartSec: start, EndSec: end, BookedCPU: 1, BookedMemGiB: 2, UsedCPU: rng.Float64(), UsedMemGiB: 1})
		start = rng.Int63n(wide.HorizonSec - 1)
		wide.Tasks = append(wide.Tasks, trace.Task{ID: i, StartSec: start, EndSec: start + 1 + rng.Int63n(wide.HorizonSec-start), BookedCPU: 1, BookedMemGiB: 2, UsedCPU: 0.5, UsedMemGiB: 1})
	}
	for _, tr := range []*trace.Trace{cutOff, wide} {
		slices.SortFunc(tr.Tasks, func(a, b trace.Task) int { return cmp.Compare(a.StartSec, b.StartSec) })
	}
	traces = append(traces, cutOff, wide)
	for _, tr := range traces {
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", tr.Name, err)
		}
		want := serialReplayIndex(tr)
		checked, err := CheckedReplayIndex(tr)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name, err)
		}
		for name, idx := range map[string]*ReplayIndex{"NewReplayIndex": NewReplayIndex(tr), "CheckedReplayIndex": checked} {
			if !slices.Equal(idx.departs, want.departs) || !slices.Equal(idx.rankOf, want.rankOf) || !slices.Equal(idx.busy, want.busy) ||
				!reflect.DeepEqual(idx, want) {
				t.Errorf("%s: %s differs from the serial build", tr.Name, name)
			}
		}
	}
	bad := *cutOff
	bad.Tasks = slices.Clone(cutOff.Tasks)
	bad.Tasks[len(bad.Tasks)/2].EndSec = bad.HorizonSec + 1
	bad.Tasks[len(bad.Tasks)-1].StartSec = -1 // arrives first, but Trace.Validate reports the task above
	if _, err := CheckedReplayIndex(&bad); fmt.Sprint(err) != fmt.Sprint(bad.Validate()) {
		t.Errorf("CheckedReplayIndex of a bad trace: error %v, want %v", err, bad.Validate())
	}
}

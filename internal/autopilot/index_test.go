package autopilot

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/ident"
	"repro/internal/trace"
)

// mustIndex is the replay index of a valid trace.
func mustIndex(t testing.TB, tr *trace.Trace) *replayIndex {
	t.Helper()
	idx, err := newReplayIndex(tr)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// walkEvent is one arrival or departure a walk handled.
type walkEvent struct {
	at     int64
	rank   int32
	depart bool
}

// walkEvents runs one reactive Neat walk over the index of tr and returns the
// arrivals and departures it handled, in its order. A walk stops at its
// horizon, so the walk's copy of the trace ends at the last departure when
// that is later, and its tick period grows with that horizon, so that a
// horizon of 2^62 s does not tick 2^54 times.
func walkEvents(t *testing.T, tr *trace.Trace, idx *replayIndex) []walkEvent {
	t.Helper()
	var got []walkEvent
	stepped = func(at int64, rank int32, depart bool) { got = append(got, walkEvent{at, rank, depart}) }
	defer func() { stepped = nil }()
	walked := *tr
	for i := range idx.tasks {
		walked.HorizonSec = max(walked.HorizonSec, idx.tasks[i].EndSec)
	}
	cfg := baseConfig(&walked)
	cfg.TickSec = max(cfg.TickSec, walked.HorizonSec/64)
	if err := newWalk(&cfg, idx, []Policy{NewReactive(consolidation.NewNeat())}).run(); err != nil {
		t.Fatal(err)
	}
	return got
}

// ranksOf returns the rank of each task of tr, its position in
// trace.ArrivalOrder, by its position in tr, and checks that the index holds
// each task at its rank.
func ranksOf(t testing.TB, tr *trace.Trace, idx *replayIndex) []int32 {
	t.Helper()
	ranks := make([]int32, len(tr.Tasks))
	for rank, ti := range trace.ArrivalOrder(tr.Tasks) {
		if idx.tasks[rank] != tr.Tasks[ti] {
			t.Fatalf("rank %d holds %+v, but task %d arrives %dth: %+v", rank, idx.tasks[rank], ti, rank, tr.Tasks[ti])
		}
		ranks[ti] = int32(rank)
	}
	return ranks
}

// checkWalk checks that a walk of tr handles the stream's events: the same
// instants and kinds, and for each the rank the index gives the stream's
// task, ties included. The trace need not be valid.
func checkWalk(t *testing.T, tr *trace.Trace) {
	t.Helper()
	idx, _ := newReplayIndex(tr)
	rankOf := ranksOf(t, tr, idx)
	got := walkEvents(t, tr, idx)
	stream := trace.NewStream(tr)
	for n := 0; ; n++ {
		want, more := stream.Next()
		if more != (n < len(got)) {
			t.Fatalf("after %d events the walk says more=%v, the stream %v", n, n < len(got), more)
		}
		if !more {
			return
		}
		if g := got[n]; g.at != want.AtSec || g.depart != (want.Kind == trace.Depart) || g.rank != rankOf[want.Index] {
			t.Fatalf("event %d of the walk is %+v, the stream's is %v of rank %d at %d",
				n, g, want.Kind, rankOf[want.Index], want.AtSec)
		}
	}
}

// TestWalkIsTheStream: on every bundled family at 2 000 tasks, a walk handles
// trace.Stream's events exactly — the same instants and kinds, and for each
// the rank of the stream's task — ties of both kinds included. At every 50th
// event the fold of the running ranks is SumDemand of their demands in rank
// order, every field bit for bit.
func TestWalkIsTheStream(t *testing.T) {
	for _, fam := range trace.Families() {
		tr, err := fam.Generate(trace.FamilyParams{Machines: 100, HorizonSec: 24 * 3600, Tasks: 2000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		idx := mustIndex(t, tr)
		rankOf := ranksOf(t, tr, idx)
		events, stream := walkEvents(t, tr, idx), trace.NewStream(tr)
		var running ident.Set
		ties, folds := 0, 0
		for n, prev := 0, (walkEvent{at: -1}); ; n++ {
			want, more := stream.Next()
			if ok := n < len(events); ok != more {
				t.Fatalf("%s: after %d events the walk says more=%v, the stream %v", fam.Name(), n, ok, more)
			}
			if !more {
				break
			}
			got := events[n]
			if got.at != want.AtSec || got.depart != (want.Kind == trace.Depart) || got.rank != rankOf[want.Index] {
				t.Fatalf("%s: event %d is %+v, the stream's is %v of rank %d at %d",
					fam.Name(), n, got, want.Kind, rankOf[want.Index], want.AtSec)
			}
			if got.at == prev.at && got.depart == prev.depart {
				ties++
			}
			prev = got
			if got.depart {
				running.Remove(ident.ID(got.rank))
			} else {
				running.Add(ident.ID(got.rank))
			}
			if n%50 == 0 {
				var vms []consolidation.VMDemand
				running.Each(func(rank ident.ID) { vms = append(vms, vmDemand(&idx.tasks[rank])) })
				if got, want := idx.fold(&running), consolidation.SumDemand(vms); !bitEqual(got, want) {
					t.Fatalf("%s: after event %d the fold of %d VMs is\n%+v\nSumDemand\n%+v", fam.Name(), n, len(vms), got, want)
				}
				folds++
			}
		}
		if ties == 0 {
			t.Errorf("%s: no two events of one kind shared an instant", fam.Name())
		}
		t.Logf("%s: %d ties, %d folds checked", fam.Name(), ties, folds)
	}
}

// slurpTasks is trace's FuzzStreamVsSlurp decoder: three bytes drive each of
// up to 200 always-valid tasks' start and duration, and IDs are distinct but
// not in position order (37 is a unit modulo the prime 211).
func slurpTasks(data []byte) []trace.Task {
	var tasks []trace.Task
	for i := 0; i+2 < len(data) && len(tasks) < 200; i += 3 {
		start := (int64(data[i])<<3 | int64(data[i+1])&7) % 977
		dur := int64(data[i+2])%120 + 1
		tasks = append(tasks, trace.Task{
			ID:           len(tasks) * 37 % 211,
			JobID:        int(data[i+1]) % 16,
			StartSec:     start,
			EndSec:       start + dur,
			BookedCPU:    1,
			BookedMemGiB: 1,
			UsedCPU:      0.5,
			UsedMemGiB:   0.5,
		})
	}
	return tasks
}

// orderTasks is trace's FuzzEventOrder decoder: the first byte scales the
// times, so they reach spans of 2^32 seconds and beyond and fall before zero,
// then three bytes make each one-second task, two for its time and one that
// shuffles its (always distinct) ID.
func orderTasks(data []byte) []trace.Task {
	shift := data[0] % 48
	var tasks []trace.Task
	for i := 1; i+2 < len(data) && len(tasks) < 1024; i += 3 {
		at := int64(int16(uint16(data[i])<<8|uint16(data[i+1]))) << shift
		tasks = append(tasks, trace.Task{ID: int(int8(data[i+2]))*1024 + len(tasks), StartSec: at, EndSec: at + 1})
	}
	return tasks
}

// FuzzWalkOrder pins the walk's merge of the index's arrival and departure
// orders to trace.Stream: departures before arrivals at one instant, each
// kind in its order. Every input is decoded as trace's FuzzStreamVsSlurp and
// FuzzEventOrder decode it, and each trace is walked. The seeds are
// FuzzStreamVsSlurp's, and testdata/fuzz holds a copy of both corpora.
func FuzzWalkOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{255, 255, 255, 0, 0, 255, 7, 7, 7, 200, 100, 50})
	f.Add(bytes.Repeat([]byte{42}, 60)) // many identical tasks: pure tie-breaking
	// Three tasks that start together, two that end together, one that ends
	// the second another starts, and one that runs from before the first
	// start to after the last end.
	f.Add([]byte{10, 0, 5, 10, 0, 9, 10, 0, 1})
	f.Add([]byte{10, 0, 9, 10, 5, 4})
	f.Add([]byte{10, 0, 7, 11, 0, 3})
	f.Add([]byte{0, 0, 119, 2, 0, 9, 5, 3, 30, 10, 0, 39})

	f.Fuzz(func(t *testing.T, data []byte) {
		checkWalk(t, &trace.Trace{Name: "fuzz", Machines: 1, HorizonSec: 1 << 20, Tasks: slurpTasks(data)})
		if len(data) > 0 {
			checkWalk(t, &trace.Trace{Name: "order", Machines: 1, HorizonSec: 1, Tasks: orderTasks(data)})
		}
	})
}

// TestReplayIndexRanksAreTheArrivalOrder ranks hand-picked IDs whose decimal
// strings order differently from the numbers (a proper prefix, a digit-count
// boundary, a minus sign, both ends of int64) over five starts: each task's
// rank is its position in trace.ArrivalOrder: the index holds the task at
// that rank.
func TestReplayIndexRanksAreTheArrivalOrder(t *testing.T) {
	ids := []int{
		0, 9, 10, 12, 120, 1200, 99, 100, math.MaxInt64, math.MinInt64, -1, -10, -12, -120,
		1e18 - 1, 1e18, 1e18 + 1, 1, 2, 19, 20, 123456789, 1234567890, math.MaxInt64 - 1, math.MinInt64 + 1,
	}
	tr := &trace.Trace{Name: "ranks", Machines: 1, HorizonSec: 10}
	for i, id := range ids {
		tr.Tasks = append(tr.Tasks, trace.Task{ID: id, StartSec: int64(i % 5), EndSec: 10, BookedCPU: 1, BookedMemGiB: float64(i + 1)})
	}
	idx, order := mustIndex(t, tr), trace.ArrivalOrder(tr.Tasks)
	for rank, i := range order {
		if idx.tasks[rank] != tr.Tasks[i] {
			t.Fatalf("task %d (ID %d, start %d) has arrival position %d, where the index holds %+v", i, tr.Tasks[i].ID, tr.Tasks[i].StartSec, rank, idx.tasks[rank])
		}
	}
}

// FuzzVMOrder pins the VM order: a task's rank is its position in the
// stream's arrival order, which is by start, then by ID as a number, then by
// position in the trace. A trace of five tasks repeats both IDs a and b and
// both starts, in the given row order and reversed, and the index must rank
// each task where the stream delivers it and where a stable sort by (start,
// ID) puts it, holding the task at that rank. The corpus checked in under
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
			idx := mustIndex(t, tr)
			stream := trace.NewStream(tr)
			var rank int32
			for ev, ok := stream.Next(); ok; ev, ok = stream.Next() {
				if ev.Kind != trace.Arrive {
					continue
				}
				if ev.Index != want[rank] {
					t.Fatalf("IDs %d, %d: arrival %d is task %d, want task %d", a, b, rank, ev.Index, want[rank])
				}
				if idx.tasks[rank] != tr.Tasks[ev.Index] {
					t.Fatalf("IDs %d, %d: rank %d holds %+v, task %d is %+v", a, b, rank, idx.tasks[rank], ev.Index, tr.Tasks[ev.Index])
				}
				rank++
			}
		}
	})
}

// serialReplayIndex is the reference build of a replay index: the arrival
// pass, then the departure order, on one goroutine.
func serialReplayIndex(tr *trace.Trace) *replayIndex {
	order := trace.ArrivalOrder(tr.Tasks)
	n := len(order)
	idx := &replayIndex{tasks: make([]trace.Task, n), busy: make([]uint64, (n+63)/64)}
	rankOf := make([]int32, n)
	for rank, ti := range order {
		t := tr.Tasks[ti]
		idx.tasks[rank], rankOf[ti] = t, int32(rank)
		v := consolidation.VMDemand{BookedCPU: t.BookedCPU, BookedMemGiB: t.BookedMemGiB, UsedCPU: t.UsedCPU, UsedMemGiB: t.UsedMemGiB}
		if !v.Idle() {
			idx.busy[rank/64] |= 1 << (rank % 64)
		}
	}
	for _, ti := range trace.DepartureOrder(tr.Tasks) {
		idx.departs = append(idx.departs, rankOf[ti])
	}
	return idx
}

// TestReplayIndexMatchesSerialBuild: the index built with its departure
// order sorted beside the arrival pass is the serial build's, tasks,
// departs and busy included, on all five families, both Google-like presets,
// a trace whose tasks mostly end at one instant, and one whose times span
// 2^32 seconds and more, which sorts by comparator. A bad trace's error is
// Trace.Validate's.
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
		if idx := mustIndex(t, tr); !slices.Equal(idx.departs, want.departs) || !slices.Equal(idx.tasks, want.tasks) ||
			!slices.Equal(idx.busy, want.busy) || !reflect.DeepEqual(idx, want) {
			t.Errorf("%s: the index differs from the serial build", tr.Name)
		}
	}
	bad := *cutOff
	bad.Tasks = slices.Clone(cutOff.Tasks)
	bad.Tasks[len(bad.Tasks)/2].EndSec = bad.HorizonSec + 1
	bad.Tasks[len(bad.Tasks)-1].StartSec = -1 // arrives first, but Trace.Validate reports the task above
	if _, err := newReplayIndex(&bad); fmt.Sprint(err) != fmt.Sprint(bad.Validate()) {
		t.Errorf("the index of a bad trace: error %v, want %v", err, bad.Validate())
	}
}

// serverless100k is the 100 000-task serverless trace online_replay replays.
func serverless100k(t testing.TB) *trace.Trace {
	t.Helper()
	tr, err := trace.GenerateFamily("serverless", trace.FamilyParams{Machines: 200, HorizonSec: 24 * 3600, Tasks: 100000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestReplayIndexOfASortedTraceIsTheTrace: a trace in arrival order, as every
// family leaves one, is its own index. The index holds the trace's slice, and
// building it on 100 000 serverless tasks allocates at most 20 B a task: the
// departure order, its sort's keys and scratch, and the busy bits.
func TestReplayIndexOfASortedTraceIsTheTrace(t *testing.T) {
	tr := serverless100k(t)
	if !trace.InArrivalOrder(tr.Tasks) {
		t.Fatal("the serverless family left its tasks out of arrival order")
	}
	if idx := mustIndex(t, tr); len(idx.tasks) != len(tr.Tasks) || &idx.tasks[0] != &tr.Tasks[0] {
		t.Fatal("the index of a sorted trace is not the trace's slice")
	}
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustIndex(t, tr)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	perTask := float64(least) / float64(len(tr.Tasks))
	if perTask > 20 {
		t.Errorf("indexing %d sorted tasks allocates %d B, %.1f B a task, want at most 20", len(tr.Tasks), least, perTask)
	}
	t.Logf("%d B, %.2f B a task", least, perTask)
}

// TestReplayIndexOfAnUnsortedTraceIsItsSortedClone: a trace out of arrival
// order is indexed through one sorted copy and is left as it was. Both
// trace.Generate's default trace (60 of its 3 000 tasks out of place) and
// that trace with the heavy scenario's bursts replay bit-identically to their
// clones sorted in arrival order, through Run, Regret and RunChaos.
func TestReplayIndexOfAnUnsortedTraceIsItsSortedClone(t *testing.T) {
	gen := diurnalTrace(t)
	heavy, err := chaos.Scenario("heavy", gen.HorizonSec, gen.Machines, 7)
	if err != nil {
		t.Fatal(err)
	}
	light, err := chaos.Scenario("light", gen.HorizonSec, gen.Machines, 7)
	if err != nil {
		t.Fatal(err)
	}
	replay := func(tr *trace.Trace) []any {
		cfg := baseConfig(tr)
		cfg.Policy = NewPredictiveEWMA(consolidation.NewZombieStack())
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = NewPredictiveEWMA(consolidation.NewZombieStack())
		rep, err := Regret(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = NewPredictiveEWMA(consolidation.NewZombieStack())
		ch, err := RunChaos(cfg, light)
		if err != nil {
			t.Fatal(err)
		}
		return []any{res, rep, ch}
	}
	for _, tr := range []*trace.Trace{gen, heavy.PerturbTrace(gen)} {
		if trace.InArrivalOrder(tr.Tasks) {
			t.Fatalf("%s is in arrival order", tr.Name)
		}
		rows, sorted := slices.Clone(tr.Tasks), *tr
		sorted.Tasks = nil
		for _, i := range trace.ArrivalOrder(tr.Tasks) {
			sorted.Tasks = append(sorted.Tasks, tr.Tasks[i])
		}
		if idx := mustIndex(t, tr); &idx.tasks[0] == &tr.Tasks[0] || !slices.Equal(idx.tasks, sorted.Tasks) {
			t.Fatalf("%s: the index is not the trace sorted in arrival order", tr.Name)
		}
		if got, want := replay(tr), replay(&sorted); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the trace replays\n%+v\nits sorted clone\n%+v", tr.Name, got, want)
		}
		if !slices.Equal(tr.Tasks, rows) {
			t.Fatalf("%s: a replay wrote the trace's rows", tr.Name)
		}
	}
}

// BenchmarkReplayIndex builds the index of the sorted 100 000-task serverless
// trace.
func BenchmarkReplayIndex(b *testing.B) {
	tr := serverless100k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		mustIndex(b, tr)
	}
}

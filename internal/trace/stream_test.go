package trace

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

func TestStreamOrdering(t *testing.T) {
	tr, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(tr)
	arrivals, departures, peak := 0, 0, 0
	var prev Event
	first := true
	for {
		ev, ok := s.Next()
		if !ok {
			break
		}
		if !first {
			if ev.AtSec < prev.AtSec {
				t.Fatalf("event at %d after event at %d: stream out of order", ev.AtSec, prev.AtSec)
			}
			if ev.AtSec == prev.AtSec && prev.Kind == Arrive && ev.Kind == Depart {
				t.Fatalf("at t=%d a departure followed an arrival: departures must come first", ev.AtSec)
			}
			if ev.AtSec == prev.AtSec && ev.Kind == prev.Kind && ev.Task.ID <= prev.Task.ID {
				t.Fatalf("at t=%d equal-kind events out of ID order (%d after %d)", ev.AtSec, ev.Task.ID, prev.Task.ID)
			}
		}
		switch ev.Kind {
		case Arrive:
			arrivals++
		case Depart:
			departures++
		}
		if s.Running() > peak {
			peak = s.Running()
		}
		prev, first = ev, false
	}
	if arrivals != len(tr.Tasks) || departures != len(tr.Tasks) {
		t.Fatalf("stream yielded %d arrivals / %d departures, trace has %d tasks", arrivals, departures, len(tr.Tasks))
	}
	if s.Running() != 0 {
		t.Fatalf("%d tasks still running after the stream drained", s.Running())
	}
	// The stream's peak concurrency must agree with the offline statistics
	// over the materialized trace.
	if want := tr.ComputeStats().PeakConcurrentTasks; peak != want {
		t.Fatalf("stream peak concurrency %d, offline stats say %d", peak, want)
	}
}

func TestStreamDeterministic(t *testing.T) {
	tr, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewStream(tr), NewStream(tr)
	for {
		ea, oka := a.Next()
		eb, okb := b.Next()
		if oka != okb {
			t.Fatal("streams exhausted at different points")
		}
		if !oka {
			return
		}
		if ea != eb {
			t.Fatalf("streams diverged: %+v vs %+v", ea, eb)
		}
	}
}

func TestStreamDepartBeforeArriveAtSameInstant(t *testing.T) {
	tr := &Trace{
		Name:       "handoff",
		Machines:   1,
		HorizonSec: 100,
		Tasks: []Task{
			{ID: 0, StartSec: 0, EndSec: 50, BookedCPU: 1, BookedMemGiB: 1},
			{ID: 1, StartSec: 50, EndSec: 100, BookedCPU: 1, BookedMemGiB: 1},
		},
	}
	s := NewStream(tr)
	var kinds []EventKind
	for ev, ok := s.Next(); ok; ev, ok = s.Next() {
		kinds = append(kinds, ev.Kind)
	}
	want := []EventKind{Arrive, Depart, Arrive, Depart}
	if len(kinds) != len(want) {
		t.Fatalf("got %d events, want %d", len(kinds), len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d is %v, want %v (task 0 must release before task 1 arrives at t=50)", i, kinds[i], want[i])
		}
	}
}

// TestStreamTimesBeyond32Bits: instants more than 2^32 seconds apart do not
// fit the packed sort keys, and the order (ties by ID included) must not
// depend on that.
func TestStreamTimesBeyond32Bits(t *testing.T) {
	const far = int64(1) << 40
	tr := &Trace{
		Name: "far", Machines: 1, HorizonSec: far + 100,
		Tasks: []Task{
			{ID: 7, StartSec: 0, EndSec: far, BookedCPU: 1, BookedMemGiB: 1},
			{ID: 3, StartSec: 0, EndSec: far, BookedCPU: 1, BookedMemGiB: 1},
			{ID: 5, StartSec: 10, EndSec: 20, BookedCPU: 1, BookedMemGiB: 1},
			{ID: 1, StartSec: far, EndSec: far + 100, BookedCPU: 1, BookedMemGiB: 1},
		},
	}
	type ev struct {
		at   int64
		kind EventKind
		id   int
	}
	want := []ev{
		{0, Arrive, 3}, {0, Arrive, 7}, {10, Arrive, 5}, {20, Depart, 5},
		{far, Depart, 3}, {far, Depart, 7}, {far, Arrive, 1}, {far + 100, Depart, 1},
	}
	s := NewStream(tr)
	for i, w := range want {
		e, ok := s.Next()
		if !ok || e.AtSec != w.at || e.Kind != w.kind || e.Task.ID != w.id || tr.Tasks[e.Index].ID != w.id {
			t.Fatalf("event %d = %+v (ok=%v), want %+v", i, e, ok, w)
		}
	}
	if e, ok := s.Next(); ok {
		t.Fatalf("stream yielded a ninth event %+v", e)
	}
}

func TestStreamEmptyTrace(t *testing.T) {
	s := NewStream(&Trace{Name: "empty", Machines: 1, HorizonSec: 10})
	if ev, ok := s.Next(); ok {
		t.Fatalf("empty trace yielded %+v", ev)
	}
	if s.Running() != 0 {
		t.Fatal("empty trace has running tasks")
	}
}

// TestStreamRestart interleaves two cursors over one sorted feed and restarts
// one of them mid-walk: each must yield exactly NewStream's events, so sharing
// the permutations never lets one consumer move another.
func TestStreamRestart(t *testing.T) {
	tr, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var want []Event
	for s := NewStream(tr); ; {
		ev, ok := s.Next()
		if !ok {
			break
		}
		want = append(want, ev)
	}
	first := NewStream(tr)
	cursors := []*Stream{first, first.Restart()}
	pos := []int{0, 0}
	step := func(c int) {
		ev, ok := cursors[c].Next()
		if pos[c] == len(want) {
			if ok {
				t.Fatalf("cursor %d yielded %+v past the end", c, ev)
			}
			return
		}
		if !ok || ev != want[pos[c]] {
			t.Fatalf("cursor %d event %d: got %+v (ok %v), want %+v", c, pos[c], ev, ok, want[pos[c]])
		}
		pos[c]++
	}
	restarted := false
	for pos[0] < len(want) || pos[1] < len(want) {
		step(0)
		step(1)
		step(1)
		if !restarted && pos[0] == len(want)/2 {
			cursors[0], pos[0], restarted = cursors[1].Restart(), 0, true
		}
	}
	if len(want) == 0 {
		t.Fatal("the trace yielded no events")
	}
}

// TestRadixSortMatchesStableSort pins radixSort, with ties broken by
// position and with no tie function (which keeps the identity order's
// positions), to a stable comparator sort by key on key sets that exercise
// every digit, shared digits and heavy ties.
func TestRadixSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name string
		key  func(i int) uint32
	}{
		{"random", func(int) uint32 { return rng.Uint32() }},
		{"few", func(int) uint32 { return uint32(rng.Intn(4)) << 24 }},
		{"equal", func(int) uint32 { return 7 }},
		{"descending", func(i int) uint32 { return uint32(1<<20 - i) }},
		{"middle-digit", func(int) uint32 { return 0xab0000ff | uint32(rng.Intn(256))<<8 }},
	} {
		for _, n := range []int{0, 1, 2, 1000} {
			keys := make([]uint32, n)
			order := make([]int32, n)
			for i := range keys {
				keys[i], order[i] = c.key(i), int32(i)
			}
			want := slices.Clone(order)
			slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
			for _, tie := range []func(a, b int32) int{func(a, b int32) int { return cmp.Compare(a, b) }, nil} {
				got := slices.Clone(order)
				radixSort(got, make([]int32, n), keys, tie)
				if !slices.Equal(got, want) {
					t.Errorf("%s, %d keys, tie %v: got %v, want %v", c.name, n, tie != nil, got, want)
				}
			}
		}
	}
}

// TestSortByStartThenIDIsArrivalOrder: sortByStartThenID leaves a list as
// ArrivalOrder lists it, repeated (start, ID) pairs in their row order, and
// InArrivalOrder holds exactly for the lists a stable sort by (start, ID)
// would leave unchanged. Every list is tried as drawn and sorted by start
// alone, as Generate leaves its tasks.
func TestSortByStartThenIDIsArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 1000} {
		for _, spread := range []int{1, 3, 1 << 20} {
			drawn := make([]Task, n)
			for i := range drawn {
				drawn[i] = Task{ID: rng.Intn(spread), JobID: i, StartSec: int64(rng.Intn(spread))}
			}
			byStart := slices.Clone(drawn)
			slices.SortStableFunc(byStart, func(a, b Task) int { return cmp.Compare(a.StartSec, b.StartSec) })
			for _, tasks := range [][]Task{drawn, byStart} {
				want := make([]Task, 0, n)
				for _, i := range ArrivalOrder(tasks) {
					want = append(want, tasks[i])
				}
				stable := slices.Clone(tasks)
				slices.SortStableFunc(stable, func(a, b Task) int {
					return cmp.Or(cmp.Compare(a.StartSec, b.StartSec), cmp.Compare(a.ID, b.ID))
				})
				if got := InArrivalOrder(tasks); got != slices.Equal(tasks, stable) {
					t.Errorf("%d tasks over %d: InArrivalOrder says %v, a stable sort by (start, ID) says %v", n, spread, got, !got)
				}
				sortByStartThenID(tasks)
				if !slices.Equal(tasks, want) || !slices.Equal(tasks, stable) {
					t.Fatalf("%d tasks over %d: sorted to %v, want %v", n, spread, tasks, want)
				}
				if !InArrivalOrder(tasks) {
					t.Errorf("%d tasks over %d: InArrivalOrder false after the sort", n, spread)
				}
			}
		}
	}
}

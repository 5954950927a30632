package trace

import "testing"

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

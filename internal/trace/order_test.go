package trace_test

import (
	"bytes"
	"cmp"
	"slices"
	"sort"
	"testing"

	"repro/internal/trace"
)

// The event order's oracles, which read the package as its callers do.

// fuzzTasks derives a small, always-valid task set from raw fuzz bytes:
// three bytes drive each task's start and duration. IDs are distinct but not
// in position order (37 is a unit modulo the prime 211, and there are at most
// 200 tasks), so ordering a tie by ID is not ordering it by position.
func fuzzTasks(data []byte) []trace.Task {
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

// FuzzStreamVsSlurp pins the streaming arrival feed against the slice-based
// replay: for any task set, Stream must yield exactly the events obtained by
// materializing every (arrive, depart) pair and sorting by (time,
// departs-before-arrives, task ID) — the causal order the online control
// plane and the offline engine both assume — while its Running() counter
// tracks the population without ever going negative.
func FuzzStreamVsSlurp(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{255, 255, 255, 0, 0, 255, 7, 7, 7, 200, 100, 50})
	f.Add(bytes.Repeat([]byte{42}, 60)) // many identical tasks: pure tie-breaking
	// The online control plane consumes this feed, so the instants its loop
	// orders by are seeded by hand: three tasks that start together, two that
	// end together, one that ends the second another starts, and one that
	// runs from before the first start to after the last end.
	f.Add([]byte{10, 0, 5, 10, 0, 9, 10, 0, 1})
	f.Add([]byte{10, 0, 9, 10, 5, 4})
	f.Add([]byte{10, 0, 7, 11, 0, 3})
	f.Add([]byte{0, 0, 119, 2, 0, 9, 5, 3, 30, 10, 0, 39})

	f.Fuzz(func(t *testing.T, data []byte) {
		tasks := fuzzTasks(data)
		tr := &trace.Trace{Name: "fuzz", Machines: 1, HorizonSec: 1 << 20, Tasks: tasks}

		type ev struct {
			at   int64
			kind trace.EventKind
			id   int
		}
		want := make([]ev, 0, 2*len(tasks))
		for _, task := range tasks {
			want = append(want,
				ev{at: task.StartSec, kind: trace.Arrive, id: task.ID},
				ev{at: task.EndSec, kind: trace.Depart, id: task.ID})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			if want[i].kind != want[j].kind {
				return want[i].kind < want[j].kind // Depart sorts before Arrive
			}
			return want[i].id < want[j].id
		})

		s := trace.NewStream(tr)
		running := 0
		for i := 0; ; i++ {
			e, ok := s.Next()
			if !ok {
				if i != len(want) {
					t.Fatalf("stream ended after %d events, want %d", i, len(want))
				}
				break
			}
			if i >= len(want) {
				t.Fatalf("stream yielded more than %d events", len(want))
			}
			w := want[i]
			if tasks[e.Index] != e.Task {
				t.Fatalf("event %d carries index %d, which is task-%d, beside task-%d", i, e.Index, tasks[e.Index].ID, e.Task.ID)
			}
			if e.AtSec != w.at || e.Kind != w.kind || e.Task.ID != w.id {
				t.Fatalf("event %d = (%d,%v,task-%d), slice replay has (%d,%v,task-%d)",
					i, e.AtSec, e.Kind, e.Task.ID, w.at, w.kind, w.id)
			}
			if e.Kind == trace.Arrive {
				running++
			} else {
				running--
			}
			if running < 0 {
				t.Fatalf("population went negative at event %d", i)
			}
			if got := s.Running(); got != running {
				t.Fatalf("Running() = %d after event %d, want %d", got, i, running)
			}
		}
		if got := s.Running(); got != 0 {
			t.Fatalf("Running() = %d after exhaustion, want 0", got)
		}
	})
}

// FuzzEventOrder pins the stream's sort against a stable comparator sort by
// (time, ID) on arbitrary tasks, and InArrivalOrder to that sort leaving the
// tasks where they are. The first byte scales the times, so the corpus
// reaches spans of 2^32 seconds and beyond, where the sort falls back to the
// comparator; then three bytes make each task, two for its time and one that
// shuffles its (always distinct) ID.
func FuzzEventOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shift := data[0] % 48
		var tasks []trace.Task
		for i := 1; i+2 < len(data) && len(tasks) < 1024; i += 3 {
			at := int64(int16(uint16(data[i])<<8|uint16(data[i+1]))) << shift
			tasks = append(tasks, trace.Task{ID: int(int8(data[i+2]))*1024 + len(tasks), StartSec: at, EndSec: at + 1})
		}
		want := make([]int32, len(tasks))
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int {
			return cmp.Or(cmp.Compare(tasks[a].StartSec, tasks[b].StartSec), cmp.Compare(tasks[a].ID, tasks[b].ID))
		})
		if got := trace.ArrivalOrder(tasks); !slices.Equal(got, want) {
			t.Fatalf("ArrivalOrder %v, want %v", got, want)
		}
		if got := trace.InArrivalOrder(tasks); got != slices.IsSorted(want) {
			t.Fatalf("InArrivalOrder %v of the tasks the stable sort orders %v", got, want)
		}
	})
}

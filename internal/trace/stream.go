package trace

import (
	"cmp"
	"slices"
)

// The streaming arrival feed: the offline simulator replays a trace by
// materializing each epoch's whole VM population, which is exactly the oracle
// knowledge an online control plane must not have. Stream instead yields one
// event at a time — a task arriving or departing — in causal order, so a
// consumer only ever sees the past. The stream sorts two index permutations
// of the tasks once, one by start and one by end (no Task copies), and walks
// a cursor over each; memory beyond the trace itself is those two int32
// permutations, whatever the number of tasks running.

// EventKind distinguishes the two stream events.
type EventKind uint8

// The stream events. Depart sorts before Arrive: a task ending at instant T
// has already released its resources when another task arrives at T, matching
// the offline replayer's retirement rule (EndSec <= epoch start).
const (
	Depart EventKind = iota
	Arrive
)

// String names the kind.
func (k EventKind) String() string {
	if k == Depart {
		return "depart"
	}
	return "arrive"
}

// Event is one element of the arrival feed.
type Event struct {
	// AtSec is the simulated time of the event: StartSec for an arrival,
	// EndSec for a departure.
	AtSec int64
	// Kind says whether the task arrives or departs.
	Kind EventKind
	// Task is the task arriving or departing, and Index its position in the
	// trace's Tasks — the key a consumer that precomputed per-task state
	// (a replay index) looks it up by.
	Task  Task
	Index int
}

// Stream is an incremental iterator over a trace's arrival and departure
// events in time order. It never materializes the full event list: arrivals
// and departures are each walked through a pre-sorted index permutation, and
// the two walks are merged one event at a time.
type Stream struct {
	tasks   []Task
	byStart []int32 // indices into tasks, sorted by (StartSec, ID)
	byEnd   []int32 // indices into tasks, sorted by (EndSec, ID)
	arrived int
	left    int
}

// NewStream builds the arrival feed of a trace. The trace is shared
// read-only; a Stream is single-consumer. Every task must end after it starts
// (Trace.Validate checks it): that is what lets the merge in Next emit a
// task's departure after its arrival without tracking which tasks run.
func NewStream(tr *Trace) *Stream {
	return &Stream{
		tasks:   tr.Tasks,
		byStart: eventOrder(tr.Tasks, func(t *Task) int64 { return t.StartSec }),
		byEnd:   eventOrder(tr.Tasks, func(t *Task) int64 { return t.EndSec }),
	}
}

// eventOrder returns the task indices sorted by (at(task), ID). Traces list
// their tasks by start, so the arrival order is a scan; the departure order is
// a real sort, and a comparator call per comparison made it the most expensive
// part of a short replay. When the times span less than 2^32 seconds the
// indices are therefore sorted as packed (time, index) integers, which needs
// no comparator, and only the runs of equal times are left to put in ID order.
func eventOrder(tasks []Task, at func(*Task) int64) []int32 {
	order := make([]int32, len(tasks))
	for i := range order {
		order[i] = int32(i)
	}
	byTimeThenID := func(a, b int32) int {
		return cmp.Or(cmp.Compare(at(&tasks[a]), at(&tasks[b])), cmp.Compare(tasks[a].ID, tasks[b].ID))
	}
	if slices.IsSortedFunc(order, byTimeThenID) {
		return order
	}
	lo, hi := at(&tasks[0]), at(&tasks[0])
	for i := range tasks {
		lo, hi = min(lo, at(&tasks[i])), max(hi, at(&tasks[i]))
	}
	if uint64(hi)-uint64(lo) >= 1<<32 {
		slices.SortFunc(order, byTimeThenID)
		return order
	}
	packed := make([]uint64, len(tasks))
	for i := range tasks {
		packed[i] = (uint64(at(&tasks[i]))-uint64(lo))<<32 | uint64(i)
	}
	slices.Sort(packed)
	for i, key := range packed {
		order[i] = int32(uint32(key))
	}
	for i, j := 0, 1; i < len(order); i = j {
		for j = i + 1; j < len(order) && packed[j]>>32 == packed[i]>>32; j++ {
		}
		slices.SortFunc(order[i:j], byTimeThenID)
	}
	return order
}

// Next returns the next event in time order, or ok=false when the stream is
// exhausted. At equal timestamps departures precede arrivals, and events of
// the same kind are ordered by task ID, so the feed is fully deterministic.
// The earliest-ending task still to depart goes first when it is due no later
// than the next arrival; one that has not arrived yet never is, because the
// next arrival starts no later than it does and it ends after it starts.
func (s *Stream) Next() (Event, bool) {
	if s.left < len(s.byEnd) {
		dep := s.byEnd[s.left]
		if s.arrived == len(s.byStart) || s.tasks[dep].EndSec <= s.tasks[s.byStart[s.arrived]].StartSec {
			s.left++
			return Event{AtSec: s.tasks[dep].EndSec, Kind: Depart, Task: s.tasks[dep], Index: int(dep)}, true
		}
	}
	if s.arrived == len(s.byStart) {
		return Event{}, false
	}
	arr := s.byStart[s.arrived]
	s.arrived++
	return Event{AtSec: s.tasks[arr].StartSec, Kind: Arrive, Task: s.tasks[arr], Index: int(arr)}, true
}

// Running returns the number of tasks currently running (arrived, not yet
// departed).
func (s *Stream) Running() int { return s.arrived - s.left }

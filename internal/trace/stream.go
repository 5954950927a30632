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
// permutations, whatever the number of tasks running. A Restart cursor shares
// the permutations, so a feed read by several consumers is sorted once.

// EventKind distinguishes the two stream events.
type EventKind uint8

// The stream events. Depart sorts before Arrive: a task ending at instant T
// has already released its resources when another task arrives at T, matching
// the offline epoch walk's retirement rule (EndSec <= epoch start).
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
	byStart []int32 // positions in tasks, in ArrivalOrder
	byEnd   []int32 // positions in tasks, sorted by (EndSec, ID, position)
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
		byStart: ArrivalOrder(tr.Tasks),
		byEnd:   DepartureOrder(tr.Tasks),
	}
}

// ArrivalOrder returns the positions of the tasks in the order they arrive:
// by start, then by ID, then by position, so the order is total for any
// trace, repeated IDs included. It is the order of a Stream's arrivals, and a
// replay knows a VM by its place in it (its rank in autopilot's replay index).
func ArrivalOrder(tasks []Task) []int32 {
	return eventOrder(tasks, false)
}

// InArrivalOrder reports, allocating nothing, whether tasks are in ArrivalOrder.
func InArrivalOrder(tasks []Task) bool {
	for i := 1; i < len(tasks); i++ {
		if a, b := &tasks[i-1], &tasks[i]; a.StartSec > b.StartSec || a.StartSec == b.StartSec && a.ID > b.ID {
			return false
		}
	}
	return true
}

// DepartureOrder returns the positions of the tasks in the order they depart:
// by end, then by ID, then by position. It is the order of a Stream's
// departures.
func DepartureOrder(tasks []Task) []int32 {
	return eventOrder(tasks, true)
}

// peakLoad walks the tasks' events in replay order, ArrivalOrder's arrivals
// and DepartureOrder's departures merged with departures first at each
// instant, as a Stream yields them. It adds load(t) when t arrives, takes it
// away when t departs, and returns the largest total (at least zero) reached.
func peakLoad[N int | float64](tasks []Task, load func(*Task) N) N {
	byStart, byEnd := ArrivalOrder(tasks), DepartureOrder(tasks)
	var cur, peak N
	for a, d := 0, 0; a < len(byStart); {
		if t := &tasks[byStart[a]]; d == len(byEnd) || t.StartSec < tasks[byEnd[d]].EndSec {
			cur += load(t)
			peak = max(peak, cur)
			a++
		} else {
			cur -= load(&tasks[byEnd[d]])
			d++
		}
	}
	return peak
}

// eventOrder returns the task positions sorted by (time, ID, position), where
// a task's time is its end with byEnd set and its start otherwise.
// Traces list their tasks by start, so the arrival order is a check
// (InArrivalOrder); the departure order is a real sort, and a comparator call
// per comparison made it the most expensive part of a short replay. When the
// times span less than 2^32 seconds the positions are therefore radix-sorted
// by their offset from the earliest time. Many tasks can end at one instant
// (every task the horizon cuts off does), so when the IDs span less than 2^32
// too, the positions are first radix-sorted by ID: the sort by time keeps them
// in that order within each instant. Otherwise the runs of equal times are
// left to a comparator.
func eventOrder(tasks []Task, byEnd bool) []int32 {
	at := func(t *Task) int64 {
		if byEnd {
			return t.EndSec
		}
		return t.StartSec
	}
	order := make([]int32, len(tasks))
	for i := range order {
		order[i] = int32(i)
	}
	if len(tasks) < 2 || !byEnd && InArrivalOrder(tasks) {
		return order
	}
	byTimeThenID := func(a, b int32) int {
		return cmp.Or(cmp.Compare(at(&tasks[a]), at(&tasks[b])), cmp.Compare(tasks[a].ID, tasks[b].ID), cmp.Compare(a, b))
	}
	lo, hi := at(&tasks[0]), at(&tasks[0])
	for i := range tasks {
		lo, hi = min(lo, at(&tasks[i])), max(hi, at(&tasks[i]))
	}
	if uint64(hi)-uint64(lo) >= 1<<32 {
		slices.SortFunc(order, byTimeThenID)
		return order
	}
	keys, scratch, tie := make([]uint32, len(tasks)), make([]int32, len(tasks)), byTimeThenID
	idLo, idHi := tasks[0].ID, tasks[0].ID
	for i := range tasks {
		idLo, idHi = min(idLo, tasks[i].ID), max(idHi, tasks[i].ID)
	}
	if uint64(idHi)-uint64(idLo) < 1<<32 {
		for i := range tasks {
			keys[i] = uint32(tasks[i].ID - idLo)
		}
		radixSort(order, scratch, keys, nil)
		tie = nil
	}
	for i := range tasks {
		keys[i] = uint32(at(&tasks[i]) - lo)
	}
	radixSort(order, scratch, keys, tie)
	return order
}

// radixSort reorders order, a permutation of the positions keys is indexed
// by, into ascending key order, and each run of equal keys by tie, or, with a
// nil tie, as order had them. The key order is an LSD radix sort over 11-bit
// digits (three cover a key) that skips any digit all keys share, so a
// key under 2^22, as the offsets of a day's times or of a million IDs are,
// takes two passes; positions move between order and scratch (as long, left
// garbled) and keys are read through them, so nothing is allocated.
func radixSort(order, scratch []int32, keys []uint32, tie func(a, b int32) int) {
	const bits = 11
	var counts [3][1 << bits]int
	for _, k := range keys {
		counts[0][k&(1<<bits-1)]++
		counts[1][k>>bits&(1<<bits-1)]++
		counts[2][k>>(2*bits)]++
	}
	src, dst := order, scratch
	for d := range counts {
		shift, c := bits*d, &counts[d]
		if slices.Contains(c[:], len(keys)) {
			continue // every key has the same digit here
		}
		sum := 0
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for _, p := range src {
			b := keys[p] >> shift & (1<<bits - 1)
			dst[c[b]] = p
			c[b]++
		}
		src, dst = dst, src
	}
	copy(order, src)
	if tie == nil {
		return
	}
	for i, j := 0, 1; i < len(order); i = j {
		for j = i + 1; j < len(order) && keys[order[j]] == keys[order[i]]; j++ {
		}
		slices.SortFunc(order[i:j], tie)
	}
}

// Restart returns a new cursor at the start of the same feed. It shares the
// sorted permutations read-only, so cursors may be walked concurrently.
func (s *Stream) Restart() *Stream {
	return &Stream{tasks: s.tasks, byStart: s.byStart, byEnd: s.byEnd}
}

// Next returns the next event in time order, or ok=false when the stream is
// exhausted. At equal timestamps departures precede arrivals, and events of
// the same kind are ordered by task ID, then by position, so the feed is fully
// deterministic.
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

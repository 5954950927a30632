package autopilot

import (
	"math/bits"

	"repro/internal/consolidation"
	"repro/internal/ident"
	"repro/internal/trace"
)

// replayIndex is the read-only replay view of one trace, built once and
// shared by the walks of a replay. A VM's rank is its task's position in the
// trace's arrival order (trace.ArrivalOrder), so a walk keeps its running set
// as ascending integers in the order the VMs arrived.
type replayIndex struct {
	// tasks are the trace's tasks by rank: the trace's own slice when it is
	// in arrival order, as Import and every family leave it, and one sorted
	// copy otherwise. The index never writes them.
	tasks []trace.Task
	// departs is the departure order, the ranks in trace.DepartureOrder.
	departs []int32
	// busy is a bitset over ranks, set for the VMs that are not idle.
	busy []uint64
}

// newReplayIndex indexes a trace in one pass in arrival order, while the
// departure order is sorted on a goroutine of its own. Its error is
// Trace.Validate's, found in that pass: the metadata's, or that of the first
// bad task in trace order. The index is whole either way. It copies the
// tasks, and maps the departures to ranks, only for a trace out of order.
func newReplayIndex(tr *trace.Trace) (*replayIndex, error) {
	departs := make(chan []int32, 1)
	go func() { departs <- trace.DepartureOrder(tr.Tasks) }()
	idx := &replayIndex{tasks: tr.Tasks, busy: make([]uint64, (len(tr.Tasks)+63)/64)}
	var rankOf []int32 // by trace position; nil when the positions are the ranks
	if !trace.InArrivalOrder(tr.Tasks) {
		order := trace.ArrivalOrder(tr.Tasks)
		idx.tasks, rankOf = make([]trace.Task, len(order)), make([]int32, len(order))
		for rank, ti := range order {
			idx.tasks[rank], rankOf[ti] = tr.Tasks[ti], int32(rank)
		}
	}
	valid := tr.ValidateMeta() == nil
	for rank := range idx.tasks {
		t := &idx.tasks[rank]
		valid = valid && t.ValidateIn(tr.HorizonSec) == nil
		if !vmDemand(t).Idle() {
			idx.busy[rank/64] |= 1 << (rank % 64)
		}
	}
	idx.departs = <-departs
	for i, task := range idx.departs[:len(rankOf)] {
		idx.departs[i] = rankOf[task]
	}
	if !valid {
		return idx, tr.Validate()
	}
	return idx, nil
}

// vmDemand is the demand of a task's VM; no simulation reads a VM ID.
func vmDemand(t *trace.Task) consolidation.VMDemand {
	return consolidation.VMDemand{BookedCPU: t.BookedCPU, BookedMemGiB: t.BookedMemGiB, UsedCPU: t.UsedCPU, UsedMemGiB: t.UsedMemGiB}
}

// fold returns the Demand of the VMs whose ranks running holds, folded in
// rank order: SumDemand of them, bit for bit. Every sum adds its terms in that
// order, but the sums are split over three passes, the busy and idle sums
// over running masked by the VMs' busy bits, so that no pass branches on a VM
// and each keeps few sums live.
func (idx *replayIndex) fold(running *ident.Set) consolidation.Demand {
	busy, words := idx.busy, running.Words()
	var d consolidation.Demand
	var bookedCPU, bookedMem, usedCPU, usedMem float64
	for i, w := range words {
		d.VMs += bits.OnesCount64(w)
		for ; w != 0; w &= w - 1 {
			v := &idx.tasks[i*64+bits.TrailingZeros64(w)]
			bookedCPU += v.BookedCPU
			bookedMem += v.BookedMemGiB
			usedCPU += v.UsedCPU
			usedMem += v.UsedMemGiB
		}
	}
	d.BookedCPU, d.BookedMemGiB, d.UsedCPU, d.UsedMemGiB = bookedCPU, bookedMem, usedCPU, usedMem
	var busyCPU, busyMem, busyUsedCPU float64
	for i, w := range words {
		w &= busy[i]
		d.BusyVMs += bits.OnesCount64(w)
		for ; w != 0; w &= w - 1 {
			v := &idx.tasks[i*64+bits.TrailingZeros64(w)]
			busyCPU += v.BookedCPU
			busyMem += v.BookedMemGiB
			busyUsedCPU += v.UsedCPU
		}
	}
	d.BusyBookedCPU, d.BusyBookedMemGiB, d.BusyUsedCPU = busyCPU, busyMem, busyUsedCPU
	var idleWSS, idleCold float64
	for i, w := range words {
		for w &^= busy[i]; w != 0; w &= w - 1 {
			v := &idx.tasks[i*64+bits.TrailingZeros64(w)]
			idleWSS += v.UsedMemGiB // VMDemand.WSSGiB
			idleCold += v.BookedMemGiB - v.UsedMemGiB
		}
	}
	d.IdleWSSGiB, d.IdleColdGiB = idleWSS, idleCold
	return d
}

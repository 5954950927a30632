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
// as ascending integers in the order the VMs arrived, and reads its arrivals
// from starts and its departures from departs.
type replayIndex struct {
	// starts, ends and demand are indexed by rank: the VM of rank r starts
	// at starts[r]. A demand carries no VM ID: no simulation reads one.
	starts, ends []int64
	demand       []consolidation.VMDemand
	// rankOf is indexed by a task's position in the trace.
	rankOf []int32
	// departs is the departure order, the ranks in trace.DepartureOrder.
	departs []int32
	// busy is a bitset over ranks, set for the VMs that are not idle.
	busy []uint64
}

// newReplayIndex indexes a trace in one pass in arrival order, while the
// departure order is sorted on a goroutine of its own. Its error is
// Trace.Validate's, found in that pass: the metadata's, or that of the first
// bad task in trace order. The index is whole either way. Traces list their
// tasks by start already, so the arrival order is close to a scan.
func newReplayIndex(tr *trace.Trace) (*replayIndex, error) {
	departs := make(chan []int32, 1)
	go func() { departs <- trace.DepartureOrder(tr.Tasks) }()
	order := trace.ArrivalOrder(tr.Tasks)
	n := len(order)
	idx := &replayIndex{
		starts: make([]int64, n), ends: make([]int64, n),
		demand: make([]consolidation.VMDemand, n), rankOf: make([]int32, n), busy: make([]uint64, (n+63)/64),
	}
	valid := tr.ValidateMeta() == nil
	for rank, ti := range order {
		t := &tr.Tasks[ti]
		valid = valid && t.ValidateIn(tr.HorizonSec) == nil
		idx.rankOf[ti] = int32(rank)
		idx.starts[rank], idx.ends[rank] = t.StartSec, t.EndSec
		idx.demand[rank] = consolidation.VMDemand{
			BookedCPU: t.BookedCPU, BookedMemGiB: t.BookedMemGiB,
			UsedCPU: t.UsedCPU, UsedMemGiB: t.UsedMemGiB,
		}
		if !idx.demand[rank].Idle() {
			idx.busy[rank/64] |= 1 << (rank % 64)
		}
	}
	idx.departs = <-departs
	for i, task := range idx.departs {
		idx.departs[i] = idx.rankOf[task]
	}
	if !valid {
		return idx, tr.Validate()
	}
	return idx, nil
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
			v := &idx.demand[i*64+bits.TrailingZeros64(w)]
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
			v := &idx.demand[i*64+bits.TrailingZeros64(w)]
			busyCPU += v.BookedCPU
			busyMem += v.BookedMemGiB
			busyUsedCPU += v.UsedCPU
		}
	}
	d.BusyBookedCPU, d.BusyBookedMemGiB, d.BusyUsedCPU = busyCPU, busyMem, busyUsedCPU
	var idleWSS, idleCold float64
	for i, w := range words {
		for w &^= busy[i]; w != 0; w &= w - 1 {
			v := &idx.demand[i*64+bits.TrailingZeros64(w)]
			idleWSS += v.WSSGiB()
			idleCold += v.BookedMemGiB - v.WSSGiB()
		}
	}
	d.IdleWSSGiB, d.IdleColdGiB = idleWSS, idleCold
	return d
}

package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/memctl"
	"repro/internal/placement"
	"repro/internal/vm"
)

// Placement is the fleet's answer for one VM of a batch.
type Placement struct {
	VM   string
	Rack string
	Host string
	// LocalBytes / RemoteBytes mirror the rack scheduler's decision;
	// BorrowedBytes is the part of RemoteBytes served by peer racks and
	// BorrowedFrom names the lender(s).
	LocalBytes    int64
	RemoteBytes   int64
	BorrowedBytes int64
	BorrowedFrom  string
	// Err is non-empty when the VM could not be placed; the rest of the
	// batch proceeds.
	Err string
}

// rackPlan is the partitioner's output for one rack: which batch entries it
// executes and, for the entries that must borrow, the lender of every
// pre-reserved buffer in consumption order.
type rackPlan struct {
	specIdx     []int
	borrowSlots []int // lender rack index per buffer, FIFO
}

// PlaceVMs places a batch of VMs across the fleet.
//
// Phase 1 — a sequential partitioner walks the batch in order and assigns
// each VM to the first rack (in index order) that fits, simulating the
// rack scheduler against capacity snapshots; when a VM's remote part
// exceeds its home rack's free pool, whole-buffer borrows are planned
// against peer racks (index order) and pre-allocated through the gateway
// agents before any rack executes.
//
// Phase 2 — the per-rack work (scheduler, admission, buffer allocation,
// paging-context construction) runs on the worker pool, one shard per rack,
// writing results into the batch-ordered slice. Because the borrow pools
// are exclusive per rack and pre-funded, shards share no mutable state and
// the outcome is bit-identical for any Workers value.
func (f *Fleet) PlaceVMs(specs []vm.VM, opts core.CreateVMOptions) ([]Placement, error) {
	f.batchMu.Lock()
	defer f.batchMu.Unlock()

	results := make([]Placement, len(specs))
	for i, spec := range specs {
		results[i].VM = spec.ID
	}

	// One crash snapshot per batch: the partitioner plans against it and the
	// execution shards exclude exactly the same dead hosts, so a crash
	// landing mid-batch cannot split the two views.
	crashed := f.crashedSnapshot()
	plans, err := f.partition(specs, opts, results, crashed)
	if err != nil {
		return nil, err
	}
	if err := f.fundBorrowPools(plans); err != nil {
		// Racks funded before the failure must not keep their pools: return
		// every pre-reserved buffer to its lender so no memory leaks and the
		// next batch plans against a clean slate.
		f.mu.Lock()
		for _, o := range f.overflows {
			if derr := o.drain(); derr != nil {
				err = fmt.Errorf("%w (draining pools: %v)", err, derr)
			}
		}
		f.mu.Unlock()
		return nil, err
	}

	// The same crash snapshot the partitioner planned against keeps the rack
	// schedulers off dead servers at execution time.
	shardOpts := opts
	if crashed != nil {
		if shardOpts.ExcludeHosts == nil {
			shardOpts.ExcludeHosts = crashed
		} else {
			// The caller's exclusion set is scoped by its own registry; merge
			// name-wise into a fresh set (cold path — both sets are tiny).
			merged := ident.NewNameSet(ident.NewRegistry())
			for _, h := range shardOpts.ExcludeHosts.Names() {
				merged.Add(h)
			}
			for _, h := range crashed.Names() {
				merged.Add(h)
			}
			shardOpts.ExcludeHosts = merged
		}
	}
	// Each shard records the rack index of its own placements; shards write
	// disjoint entries, so no lock is needed and the bookkeeping loop below
	// never rescans rack names.
	rackIdx := make([]int32, len(specs))
	for i := range rackIdx {
		rackIdx[i] = -1
	}
	f.runRackShards(len(f.racks), func(ri int) {
		rack := f.racks[ri]
		for _, si := range plans[ri].specIdx {
			guest, err := rack.CreateVM(specs[si], shardOpts)
			if err != nil {
				results[si].Err = err.Error()
				continue
			}
			results[si].Rack = f.names[ri]
			results[si].Host = guest.Host
			results[si].LocalBytes = guest.LocalBytes
			results[si].RemoteBytes = guest.RemoteBytes
			results[si].BorrowedBytes = guest.BorrowedBytes
			results[si].BorrowedFrom = guest.BorrowedFrom
			rackIdx[si] = int32(ri)
		}
	})

	// Drain anything the shards did not consume (a mid-batch placement
	// failure leaves its pre-reserved buffers unused) and fold the per-rack
	// borrow ledgers into the fleet ledger in rack order.
	f.mu.Lock()
	for _, o := range f.overflows {
		if err := o.drain(); err != nil {
			f.mu.Unlock()
			return nil, err
		}
		f.ledger = append(f.ledger, o.takeLedger()...)
	}
	for i := range results {
		if results[i].Err == "" {
			f.setVMRackLocked(results[i].VM, int(rackIdx[i]))
		}
	}
	f.mu.Unlock()
	f.observePlacement(len(specs), plans, results)
	return results, nil
}

// partition assigns every batch entry a rack and plans the cross-rack
// borrows, mirroring the capacity checks core.Rack.CreateVM performs at
// execution time so phase 2 never surprises phase 1. crashed is the batch's
// crash snapshot (nil when nothing is crashed); the caller feeds the same
// snapshot to the execution shards.
func (f *Fleet) partition(specs []vm.VM, opts core.CreateVMOptions, results []Placement, crashed *ident.NameSet) ([]rackPlan, error) {
	n := len(f.racks)
	bufSize := f.bufferSize()
	plans := make([]rackPlan, n)
	sched := placement.NewScheduler()

	// Capacity snapshots: the scheduler's host view plus the free remote
	// pool of every rack, in whole buffers. A rack's pool serves its own
	// VMs and peer borrows out of the same bucket, exactly like the live
	// controller. Crashed servers are dropped from the host view, so the
	// partitioner never lands a VM on a dead machine.
	hosts := make([][]placement.Host, n)
	freeBufs := make([]int64, n)
	for i, r := range f.racks {
		hosts[i] = r.HostCapacities()
		if crashed.Len() > 0 {
			alive := hosts[i][:0]
			for _, h := range hosts[i] {
				if !crashed.Has(string(h.ID)) {
					alive = append(alive, h)
				}
			}
			hosts[i] = alive
		}
		freeBufs[i] = r.FreeRemoteMemory() / bufSize
	}
	borrowable := func(home int) int64 {
		var total int64
		for j := 0; j < n; j++ {
			if j != home {
				total += freeBufs[j] * bufSize
			}
		}
		return total
	}

	for si, spec := range specs {
		placed := false
		for ri := 0; ri < n && !placed; ri++ {
			dec, err := sched.Place(hosts[ri], placement.Request{
				VM:                    spec,
				RemoteMemoryAvailable: freeBufs[ri]*bufSize + borrowable(ri),
				Strategy:              opts.Strategy,
			})
			if err != nil {
				continue
			}
			if dec.RemoteBytes > 0 {
				needBufs := (dec.RemoteBytes + bufSize - 1) / bufSize
				if freeBufs[ri]*bufSize >= dec.RemoteBytes {
					// The home rack guarantees the whole remote part.
					freeBufs[ri] -= needBufs
				} else if borrowable(ri) >= dec.RemoteBytes {
					// Borrow the whole remote part from peers, index order.
					rem := needBufs
					for j := 0; j < n && rem > 0; j++ {
						if j == ri {
							continue
						}
						take := freeBufs[j]
						if take > rem {
							take = rem
						}
						freeBufs[j] -= take
						rem -= take
						for k := int64(0); k < take; k++ {
							plans[ri].borrowSlots = append(plans[ri].borrowSlots, j)
						}
					}
				} else {
					// Neither the home pool nor the peers can serve the
					// remote part whole; try the next rack.
					continue
				}
			}
			// Commit the CPU and local memory on the chosen host.
			for hi := range hosts[ri] {
				if hosts[ri][hi].ID == dec.Host {
					hosts[ri][hi].UsedCPUs += spec.VCPUs
					hosts[ri][hi].UsedMemory += dec.LocalBytes
					break
				}
			}
			plans[ri].specIdx = append(plans[ri].specIdx, si)
			placed = true
		}
		if !placed {
			results[si].Err = fmt.Sprintf("fleet: no rack can place VM %s", spec.ID)
		}
	}
	return plans, nil
}

// fundBorrowPools pre-allocates every planned borrow through the gateway
// agents, sequentially, and hands the buffers to the borrower racks'
// overflow pools in consumption order.
func (f *Fleet) fundBorrowPools(plans []rackPlan) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	bufSize := f.bufferSize()
	for ri := range plans {
		slots := plans[ri].borrowSlots
		if len(slots) == 0 {
			continue
		}
		// Aggregate one allocation per lender, then deal the handles back
		// out in slot order (handles of one lender are interchangeable).
		perLender := make(map[int]int)
		for _, j := range slots {
			perLender[j]++
		}
		queues := make(map[int][]*memctl.RemoteBuffer)
		// If a later lender fails, buffers already allocated for this rack
		// are not yet pooled anywhere — hand them straight back.
		release := func(cause error) error {
			for _, q := range queues {
				if rerr := memctl.ReleaseHandles(q); rerr != nil {
					cause = fmt.Errorf("%w (releasing pre-reserved buffers: %v)", cause, rerr)
				}
			}
			return cause
		}
		for j := 0; j < len(f.racks); j++ {
			count, ok := perLender[j]
			if !ok {
				continue
			}
			gw, err := f.gateway(j, ri)
			if err != nil {
				return release(err)
			}
			bufs, err := gw.RequestExt(int64(count) * bufSize)
			if err != nil {
				return release(fmt.Errorf("fleet: pre-reserving %d buffers on %s for %s: %w",
					count, f.names[j], f.names[ri], err))
			}
			queues[j] = bufs
		}
		entries := make([]poolEntry, 0, len(slots))
		for _, j := range slots {
			q := queues[j]
			entries = append(entries, poolEntry{lender: j, buf: q[0]})
			queues[j] = q[1:]
		}
		f.overflows[ri].fund(entries)
	}
	return nil
}

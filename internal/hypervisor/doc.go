// Package hypervisor models the modified KVM memory virtualization of
// Section 4.5: VMs are given pseudo-physical frames, the hypervisor manages
// their association with machine frames, and when local machine memory is
// scarce it demotes cold pages to remote memory buffers (the RAM Ext
// function). The package also models the Explicit SD alternative, where the
// guest itself swaps to a memory-backed swap device.
//
// The simulation is page-accurate: every guest access goes through the page
// tables, page faults run the replacement policy, and demoted or swapped
// pages move through a RemoteStore, whose latency model is its own. These
// types implement it:
//
//   - swapdev.Store, a pagestore-backed slot store with a fixed latency:
//     NewInfinibandStore builds the one tests and sweeps run RAM Ext on,
//     and swapdev.New the Table 2 swap devices Explicit SD runs on;
//   - internal/core's bufferStore, which stripes slots over memctl remote
//     buffers and moves pages with one-sided RDMA verbs (a rack's RAM Ext);
//   - core.RemoteSwapDevice, a bufferStore mirrored slot for slot to a
//     local-HDD swapdev.Store (a rack's Explicit SD);
//   - memplane.PageStore, which pages through a VM's data plane.
//
// A paging context costs what its VM can use, whatever the store behind it
// offers: the per-page tables have Pages entries, and the two slot tables
// min(Pages-LocalFrames+1, Remote.Slots()). The +1 is the fault handler's
// peak: it demotes the victim before it releases the promoted page's slot.
// Slots are handed out lowest first and reused last-freed first, so a run
// writes the same slot numbers over a store of any size.
package hypervisor

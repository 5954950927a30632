// Package memctl implements the rack-level remote memory management protocol
// of Section 4: the global memory controller (global-mem-ctr), its mirrored
// secondary controller (secondary-ctr), and the per-server remote memory
// manager agents (remote-mem-mgr).
//
// Memory is delegated, allocated and reclaimed at buffer granularity. Buffers
// have a uniform size across the rack (BUFF_SIZE in the paper, BufferSize
// here). The controller keeps an in-memory database of every buffer: which
// host serves it, whether that host is a zombie or an active server, and
// which user server (if any) currently uses it.
//
// The protocol functions follow the paper's naming:
//
//	GS_goto_zombie(buffers)  -> GlobalController.GotoZombie
//	GS_reclaim(nbBuffers)    -> GlobalController.Reclaim
//	GS_alloc_ext(memSize)    -> GlobalController.AllocExt
//	GS_alloc_swap(memSize)   -> GlobalController.AllocSwap
//	GS_get_lru_zombie()      -> GlobalController.LRUZombie
//	US_reclaim(buff_IDs)     -> ReclaimNotifier.USReclaim (agent callback)
//	AS_get_free_mem()        -> FreeMemoryProvider.ASGetFreeMem (agent callback)
//
// The paper carries these calls as RPC over RDMA (Section 4.1); the simulation
// calls the controller in-process and prices no control-plane round trip.
package memctl

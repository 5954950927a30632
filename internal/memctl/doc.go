// Package memctl implements the rack-level remote memory management protocol
// of Section 4: the global memory controller (global-mem-ctr), its mirrored
// secondary controller (secondary-ctr), and the per-server remote memory
// manager agents (remote-mem-mgr).
//
// Memory is delegated, allocated and reclaimed at buffer granularity. Buffers
// have a uniform size across the rack (BUFF_SIZE in the paper, BufferSize
// here). The controller keeps an in-memory database of every buffer: which
// host serves it, whether that host is a zombie or an active server, and
// which user server (if any) currently uses it. The database is one table of
// buffer records in ascending ID order; every view (a host's buffers, a
// user's, the free pool) is a scan of it.
//
// A guarantee lives on its grant: a record granted through GS_alloc_ext is
// marked Guaranteed until it is released or reclaimed, and admission control
// sums the marked records, so a repeated release cannot shrink it.
//
// The secondary's mirrored log carries each lending's records (scavenged
// buffers included) and each reclaim's IDs. Rebuild replays that log by ID,
// so after a fail-over the rebuilt controller serves exactly the primary's
// buffers under the same IDs and rkeys, and lenders can take all of them back.
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

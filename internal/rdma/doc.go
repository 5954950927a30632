// Package rdma simulates a rack-scale RDMA fabric (Infiniband in the paper's
// prototype: ConnectX-3 adapters behind an SB7800 switch).
//
// The simulation is in-process and deterministic. It models the pieces the
// memory-disaggregation layer depends on:
//
//   - Device: an RDMA-capable NIC bound to a host, with registered memory
//     regions protected by local/remote keys;
//   - MemoryRegion: a registered address range that one-sided verbs may
//     target. Its bytes live in a sparse pagestore.Store, so registering a
//     region costs no host memory until a WRITE lands in it and untouched
//     ranges READ as zeros;
//   - QueuePair: a reliable-connected queue pair between two devices with send
//     and receive queues and an associated CompletionQueue;
//   - one-sided READ and WRITE verbs that access remote memory without any
//     involvement of the remote CPU — the property that makes zombie servers
//     possible — plus two-sided SEND/RECV, which does need the remote CPU;
//   - Fabric: the switch connecting devices, carrying a latency/bandwidth cost
//     model whose parameters follow FDR Infiniband magnitudes.
//
// The remote side of a one-sided verb only requires its Device to be
// "serving" (powered memory path), which the ACPI layer maps from the Sz
// state. A remote host whose device is not serving (e.g. S3) fails the verb.
//
// Every verb, failed ones included, pushes one WorkCompletion on its
// initiator's CompletionQueue (a SEND also pushes the RECV on the peer's), and
// the queue is unbounded, so whoever creates a queue and posts on it for as
// long as it lives reaps it: CompletionQueue.Poll(dst) has the ibv_poll_cq
// shape, costs time proportional to what it reaps and allocates nothing. In
// this tree memctl's RemoteBuffer.WriteRemote/ReadRemote drain the agent's
// queue after each verb. A verb also returns its status and latency directly,
// so they discard what they reap, and the reap is charged no simulated time: a
// remote page op costs exactly the one-sided TransferNs the planes account.
package rdma

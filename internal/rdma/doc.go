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
//     possible — plus two-sided SEND/RECV used by the RPC layer;
//   - Fabric: the switch connecting devices, carrying a latency/bandwidth cost
//     model whose parameters follow FDR Infiniband magnitudes.
//
// The remote side of a one-sided verb only requires its Device to be
// "serving" (powered memory path), which the ACPI layer maps from the Sz
// state. A remote host whose device is not serving (e.g. S3) fails the verb.
package rdma

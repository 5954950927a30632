// Package core assembles the paper's full rack architecture (Figure 7): a set
// of general-purpose servers connected by an RDMA fabric, a global memory
// controller mirrored by a secondary controller, per-server remote memory
// manager agents, ACPI platforms with the Sz zombie state, per-server energy
// accounting, and the ZombieStack placement and paging machinery on top.
//
// The Rack type is the library's integration point: the public root package
// re-exports it, its Example walk-throughs drive it, and the rack experiments
// (Figure 8, Tables 1-2, Figure 9) run on top of it.
package core

// Package swapdev models the swap device technologies compared in the
// paper's Table 2: a remote-RAM swap device served over RDMA (the Explicit SD
// function), a local fast swap device (SSD) and a local slow swap device
// (HDD).
//
// All of them are one type, Store: a fixed number of 4 KiB page slots whose
// bytes live in a pagestore.Store, with a per-page latency fixed at
// construction and reported by every operation. The latencies follow
// commonly reported device magnitudes; what matters to Table 2 is their
// ordering: remote RAM over Infiniband << local SSD << local HDD.
//
// Store implements hypervisor.RemoteStore, so it backs Explicit SD directly
// and, through hypervisor.NewInfinibandStore, is the latency-model store
// under RAM Ext. The other implementations of that interface are
// internal/core's bufferStore (slots striped over memctl remote buffers and
// moved with one-sided RDMA verbs), core.RemoteSwapDevice (a bufferStore
// whose every write is mirrored asynchronously to a LocalHDD Store, the
// fault-tolerance path of Section 4.3) and memplane.PageStore.
package swapdev

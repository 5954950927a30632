// Package memplane is the remote-memory data plane: the layer where zombie
// memory actually serves bytes instead of ledger entries.
//
// A Plane gives one VM an address space whose pages are backed either by a
// local arena (the fast path: a bounds-checked copy into a sparse
// pagestore.Store, which holds host memory only for the chunks actually
// written) or by remote frames carved out of buffers granted through memctl's
// GS_alloc_ext protocol — the memory a zombie server keeps serving from Sz,
// held in the same kind of store under the rdma region. A PageTable translates
// (VM, page) to frames and enforces the no-aliasing invariant; the allocator
// fills the local arena first and then overflows to remote grants. Every
// remote write is journalled into the plane's mirror, a third
// pagestore.Store the size of the address space, which is what Rehome
// replays.
//
// The remote path runs behind a Transport: InProcessTransport issues real
// one-sided RDMA verbs against the granted regions, TCPTransport forwards
// the same operations over a loopback socket to a TCPServer fronting the
// handles, and LedgerTransport reproduces only the cost arithmetic of the
// simulator. All three charge identical nanoseconds for identical op
// sequences — the differential tests pin this — so the simulator's claims
// and the byte-moving plane can be cross-checked bit for bit.
//
// Chaos surfaces as data-plane behaviour rather than ledger penalties: a
// crashed serving host makes operations fail with ErrRemoteTimeout (reads
// come back short), FabricDegrade windows from a chaos plan multiply remote
// charges, and Rehome migrates the pages of a dead host onto freshly granted
// frames by replaying the local mirror — live bytes, not just entries.
package memplane

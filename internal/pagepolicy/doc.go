// Package pagepolicy implements the page replacement policies compared in the
// paper's Section 6.2 (Figure 8): FIFO, Clock and Mixed.
//
// The policies decide which local page frame to demote to remote memory when
// local memory becomes scarce. Each policy also accounts the CPU cycles it
// spends inside the page fault handler (list iteration, accessed-bit
// management), because that cost is one of the three quantities Figure 8
// reports.
//
// All three share one FIFO list, kept as an intrusive doubly linked list
// threaded through a table indexed by page number (two uint32 links and a
// flags byte per page, a sentinel at index 0). Recording an access is a
// bounds check and a flag write, and a fault allocates nothing once the table
// covers the VM; in exchange callers must pass dense page numbers, as the
// Policy interface states.
package pagepolicy

package swapdev

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/pagestore"
)

// PageSize is the swap granularity.
const PageSize = 4096

// Common errors.
var (
	ErrSlotOutOfRange = errors.New("swapdev: slot out of range")
	ErrEmptySlot      = errors.New("swapdev: slot holds no page")
)

// Kind identifies a swap device technology.
type Kind int

// Swap device technologies of Table 2.
const (
	RemoteRAM Kind = iota // Explicit SD backed by a zombie server's RAM
	LocalSSD              // local fast swap device (the paper's Samsung SSD)
	LocalHDD              // local slow swap device (the paper's Seagate HDD)
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case RemoteRAM:
		return "remote-ram"
	case LocalSSD:
		return "local-ssd"
	case LocalHDD:
		return "local-hdd"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Latency describes a device's per-page swap-out (write) and swap-in (read)
// latencies in nanoseconds, including transfer of one 4 KiB page.
type Latency struct {
	WriteNs int64
	ReadNs  int64
}

// LatencyOf returns the canonical latency of a device kind:
//
//   - remote RAM over FDR Infiniband: a one-sided verb plus the page
//     serialization, a handful of microseconds;
//   - SSD: tens of microseconds for a 4 KiB random access;
//   - HDD: milliseconds (seek + rotation).
func LatencyOf(k Kind) Latency {
	switch k {
	case RemoteRAM:
		return Latency{WriteNs: 3_000, ReadNs: 3_500}
	case LocalSSD:
		return Latency{WriteNs: 60_000, ReadNs: 90_000}
	case LocalHDD:
		return Latency{WriteNs: 4_000_000, ReadNs: 8_000_000}
	default:
		return Latency{}
	}
}

// Stats aggregates store activity.
type Stats struct {
	SwapOuts     uint64
	SwapIns      uint64
	BytesWritten uint64
	BytesRead    uint64
	TotalNs      int64
}

// Store is a fixed number of page slots with a latency fixed at
// construction. Its bytes live in a pagestore.Store of slots × PageSize, so
// a slot costs no host memory until a page is written to it. A slot holds
// the last page written to it, zero-padded to PageSize. It implements
// hypervisor.RemoteStore and is safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	lat     Latency
	pages   *pagestore.Store
	present []bool
	stats   Stats
}

// New creates a store of the given kind with the given capacity in pages,
// using the canonical latency for the kind.
func New(kind Kind, slots int) (*Store, error) {
	return NewWithLatency(slots, LatencyOf(kind))
}

// NewWithLatency creates a store with an explicit latency profile.
func NewWithLatency(slots int, lat Latency) (*Store, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("swapdev: capacity must be positive, got %d", slots)
	}
	return &Store{lat: lat, pages: pagestore.New(int64(slots) * PageSize), present: make([]bool, slots)}, nil
}

// Slots returns the capacity in pages.
func (s *Store) Slots() int { return len(s.present) }

// WritePage stores a page of at most PageSize bytes in the slot and returns
// the write latency.
func (s *Store) WritePage(slot int, page []byte) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot < 0 || slot >= len(s.present) {
		return 0, ErrSlotOutOfRange
	}
	if len(page) > PageSize {
		return 0, fmt.Errorf("swapdev: page of %d bytes exceeds %d", len(page), PageSize)
	}
	// Both calls lie inside the store: the slot and the length are checked.
	off := int64(slot) * PageSize
	_ = s.pages.WriteAt(page, off)
	_ = s.pages.Zero(off+int64(len(page)), PageSize-int64(len(page)))
	s.present[slot] = true
	s.stats.SwapOuts++
	s.stats.BytesWritten += uint64(len(page))
	s.stats.TotalNs += s.lat.WriteNs
	return s.lat.WriteNs, nil
}

// ReadPage copies the slot's page, up to len(dst) bytes, into dst and
// returns the read latency.
func (s *Store) ReadPage(slot int, dst []byte) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot < 0 || slot >= len(s.present) {
		return 0, ErrSlotOutOfRange
	}
	if !s.present[slot] {
		return 0, ErrEmptySlot
	}
	n := min(len(dst), PageSize)
	_ = s.pages.ReadAt(dst[:n], int64(slot)*PageSize) // inside the store: the slot is checked
	s.stats.SwapIns++
	s.stats.BytesRead += uint64(n)
	s.stats.TotalNs += s.lat.ReadNs
	return s.lat.ReadNs, nil
}

// Free marks the slot empty; a slot outside the store is ignored.
func (s *Store) Free(slot int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot >= 0 && slot < len(s.present) {
		s.present[slot] = false
	}
}

// Stats returns the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

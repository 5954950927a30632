package memctl

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// DefaultBufferSize is the rack-wide BUFF_SIZE: 64 MiB, a compromise between
// allocation bookkeeping overhead and fragmentation (ablated in the bench
// suite).
const DefaultBufferSize int64 = 64 << 20

// ServerID identifies a server in the rack.
type ServerID string

// BufferID identifies one remote memory buffer.
type BufferID uint64

// BufferType distinguishes memory served by a zombie server from memory
// served by an active server. Zombie memory always has allocation priority.
type BufferType int

// Buffer types.
const (
	ZombieBuffer BufferType = iota
	ActiveBuffer
)

// String names the buffer type.
func (t BufferType) String() string {
	if t == ZombieBuffer {
		return "zombie"
	}
	return "active"
}

// Buffer is one entry of the controller's in-memory database, as described in
// Section 4.3: identifier, offset, size, type, serving host and current user.
type Buffer struct {
	ID     BufferID
	Host   ServerID
	User   ServerID // empty when unallocated
	Offset int64
	Size   int64
	Type   BufferType
	// RKey is the RDMA remote key a user server needs to address the buffer
	// with one-sided verbs.
	RKey uint32
	// Guaranteed marks a grant made through GS_alloc_ext; admission control
	// sums the guaranteed grants. It is cleared when the grant ends.
	Guaranteed bool
}

// Allocated reports whether the buffer is currently lent to a user server.
func (b Buffer) Allocated() bool { return b.User != "" }

// bufferDB is the controller's buffer database: one table of records in
// ascending ID order. IDs only grow, so a new record appends and a lookup is a
// binary search; every view is a scan and comes out in ID order. It is not
// safe for concurrent use; the owning controller serialises access.
type bufferDB struct {
	nextID BufferID
	recs   []*Buffer
}

// add appends a record whose ID is above every ID in the table.
func (db *bufferDB) add(b Buffer) {
	db.nextID = b.ID
	db.recs = append(db.recs, &b)
}

// get returns the buffer with the given id, or nil.
func (db *bufferDB) get(id BufferID) *Buffer {
	i, ok := slices.BinarySearchFunc(db.recs, id, func(b *Buffer, id BufferID) int { return cmp.Compare(b.ID, id) })
	if !ok {
		return nil
	}
	return db.recs[i]
}

// remove deletes buffers entirely (their host reclaimed the memory).
func (db *bufferDB) remove(ids []BufferID) {
	gone := slices.Sorted(slices.Values(ids))
	db.recs = slices.DeleteFunc(db.recs, func(b *Buffer) bool {
		_, ok := slices.BinarySearch(gone, b.ID)
		return ok
	})
}

// where returns the buffers keep accepts, in ascending ID order.
func (db *bufferDB) where(keep func(*Buffer) bool) []*Buffer {
	var out []*Buffer
	for _, b := range db.recs {
		if keep(b) {
			out = append(out, b)
		}
	}
	return out
}

// bytes sums the sizes of the buffers keep accepts.
func (db *bufferDB) bytes(keep func(*Buffer) bool) int64 {
	var total int64
	for _, b := range db.recs {
		if keep(b) {
			total += b.Size
		}
	}
	return total
}

// retype changes the buffer type of every buffer served by host (when the
// host transitions between zombie and active).
func (db *bufferDB) retype(host ServerID, typ BufferType) {
	for _, b := range db.recs {
		if b.Host == host {
			b.Type = typ
		}
	}
}

// checkInvariants validates every record of the table. It is exercised by the
// property-based tests and the state-space check.
func (db *bufferDB) checkInvariants() error {
	var prev BufferID
	for _, b := range db.recs {
		switch {
		case b.ID <= prev || b.ID > db.nextID:
			return fmt.Errorf("memctl: buffer %d out of order after %d (next id %d)", b.ID, prev, db.nextID)
		case b.Size <= 0:
			return fmt.Errorf("memctl: buffer %d has non-positive size", b.ID)
		case b.Host == "":
			return fmt.Errorf("memctl: buffer %d has no host", b.ID)
		case b.Guaranteed && !b.Allocated():
			return fmt.Errorf("memctl: free buffer %d carries a guarantee", b.ID)
		}
		prev = b.ID
	}
	return nil
}

// Errors returned by the controller.
var (
	ErrUnknownServer    = errors.New("memctl: unknown server")
	ErrNotEnoughMemory  = errors.New("memctl: not enough remote memory to satisfy a guaranteed allocation")
	ErrNoZombie         = errors.New("memctl: no zombie server available")
	ErrAdmissionControl = errors.New("memctl: allocation rejected by rack-level admission control")
)

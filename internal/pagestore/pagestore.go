// Package pagestore is the one place a simulated byte becomes a host byte: a
// fixed-size sparse byte store whose backing memory is materialised in chunks
// on first write. A store of any size costs a few words until something is
// written to it, reads of untouched ranges return zeros without allocating,
// and an operation on already-materialised chunks allocates nothing.
//
// It sits under rdma.MemoryRegion (the DRAM a zombie lends), under the
// memplane local arena (a VM's local frames) and under swapdev.Store (the
// slots of a swap device or a latency-model paging store), so lending a GiB
// costs the lender no heap until a borrower actually stores bytes in it.
//
// A Store is not safe for concurrent use; its owners serialise access
// (rdma under the fabric lock, memplane's arena under the plane lock,
// swapdev under the store's own lock).
package pagestore

import "errors"

// The chunk size is the materialisation granule. 64 KiB is the largest
// transfer the data plane issues in one op, so an op touches at most two
// chunks, and it divides memctl's 64 MiB buffer size, so a full buffer is a
// whole number of chunks.
const (
	chunkShift = 16
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// ErrOutOfRange is returned for an access that is not wholly inside the store.
var ErrOutOfRange = errors.New("pagestore: access outside the store")

// Store is a sparse byte array of fixed length that reads as zeros until
// written.
type Store struct {
	size int64
	// chunks is nil until the first write; a nil entry is a chunk nothing
	// was written to yet. The last chunk is as long as the store's tail.
	chunks   [][]byte
	resident int64
}

// New returns a store of size bytes, all zero and none of them resident.
// A negative size is a caller bug.
func New(size int64) *Store {
	if size < 0 {
		panic("pagestore: negative size")
	}
	return &Store{size: size}
}

// Len returns the store's fixed size in bytes.
func (s *Store) Len() int64 { return s.size }

// Resident returns the bytes of host memory materialised so far: the summed
// length of every chunk that has been written to. It never exceeds Len and
// never shrinks — Zero clears bytes, it does not release them.
func (s *Store) Resident() int64 { return s.resident }

func (s *Store) inRange(off, n int64) bool {
	return off >= 0 && n >= 0 && n <= s.size && off <= s.size-n
}

// ReadAt fills dst with the bytes at [off, off+len(dst)).
func (s *Store) ReadAt(dst []byte, off int64) error {
	if !s.inRange(off, int64(len(dst))) {
		return ErrOutOfRange
	}
	if s.chunks == nil {
		clear(dst)
		return nil
	}
	for len(dst) > 0 {
		co := int(off & chunkMask)
		n := min(chunkSize-co, len(dst))
		if c := s.chunks[off>>chunkShift]; c != nil {
			copy(dst[:n], c[co:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		off += int64(n)
	}
	return nil
}

// WriteAt copies src to [off, off+len(src)), materialising the chunks it
// touches.
func (s *Store) WriteAt(src []byte, off int64) error {
	if !s.inRange(off, int64(len(src))) {
		return ErrOutOfRange
	}
	if s.chunks == nil && len(src) > 0 {
		s.chunks = make([][]byte, (s.size+chunkMask)>>chunkShift)
	}
	for len(src) > 0 {
		ci := off >> chunkShift
		co := int(off & chunkMask)
		n := min(chunkSize-co, len(src))
		c := s.chunks[ci]
		if c == nil {
			c = make([]byte, min(chunkSize, s.size-ci<<chunkShift))
			s.chunks[ci] = c
			s.resident += int64(len(c))
		}
		copy(c[co:], src[:n])
		src = src[n:]
		off += int64(n)
	}
	return nil
}

// Zero clears [off, off+n). Untouched chunks already read as zeros and stay
// unmaterialised.
func (s *Store) Zero(off, n int64) error {
	if !s.inRange(off, n) {
		return ErrOutOfRange
	}
	if s.chunks == nil {
		return nil
	}
	for n > 0 {
		co := off & chunkMask
		span := min(chunkSize-co, n)
		if c := s.chunks[off>>chunkShift]; c != nil {
			clear(c[co : co+span])
		}
		off += span
		n -= span
	}
	return nil
}

package pagestore

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// testSize spans four whole chunks and a partial tail, so seeded spans cross
// one and several chunk boundaries and land in the short last chunk.
const testSize = 4*chunkSize + 1234

// twin drives a Store and a dense []byte with the same ops and fails on the
// first divergence. The dense slice is the reference.
type twin struct {
	t     *testing.T
	s     *Store
	dense []byte
	buf   []byte
}

func newTwin(t *testing.T, size int64) *twin {
	return &twin{t: t, s: New(size), dense: make([]byte, size), buf: make([]byte, size)}
}

// do applies one op (0 write, 1 read, 2 zero) on [off, off+n), which must be
// in range.
func (w *twin) do(op int, off, n int64, fill byte) {
	w.t.Helper()
	span := w.buf[:n]
	switch op {
	case 0:
		for i := range span {
			span[i] = fill + byte(i)
		}
		if err := w.s.WriteAt(span, off); err != nil {
			w.t.Fatalf("WriteAt(%d, %d): %v", off, n, err)
		}
		copy(w.dense[off:], span)
	case 1:
		for i := range span {
			span[i] = 0xAA // a read must overwrite dst, zeros included
		}
		if err := w.s.ReadAt(span, off); err != nil {
			w.t.Fatalf("ReadAt(%d, %d): %v", off, n, err)
		}
		if !bytes.Equal(span, w.dense[off:off+n]) {
			w.t.Fatalf("ReadAt(%d, %d) diverged from the dense reference", off, n)
		}
	case 2:
		if err := w.s.Zero(off, n); err != nil {
			w.t.Fatalf("Zero(%d, %d): %v", off, n, err)
		}
		clear(w.dense[off : off+n])
	}
}

// check compares the whole store and its residency bound.
func (w *twin) check() {
	w.t.Helper()
	w.do(1, 0, w.s.Len(), 0)
	if r := w.s.Resident(); r < 0 || r > w.s.Len() {
		w.t.Fatalf("Resident() = %d outside [0, %d]", r, w.s.Len())
	}
}

func TestStoreMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := newTwin(t, testSize)
	w.check() // untouched store reads as zeros
	maxSpans := []int64{64, chunkSize, 3 * chunkSize, testSize}
	for i := 0; i < 4000; i++ {
		n := rng.Int63n(maxSpans[i%len(maxSpans)] + 1)
		off := rng.Int63n(testSize - n + 1)
		if i%8 == 0 { // pin the tail: spans ending exactly at Len
			off = testSize - n
		}
		w.do(rng.Intn(3), off, n, byte(i))
	}
	w.check()
}

func TestStoreRejectsOutOfRange(t *testing.T) {
	s := New(testSize)
	buf := make([]byte, 16)
	for _, off := range []int64{-1, testSize - 15, testSize, 1 << 62} {
		if err := s.ReadAt(buf, off); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("ReadAt(16, %d) = %v, want ErrOutOfRange", off, err)
		}
		if err := s.WriteAt(buf, off); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("WriteAt(16, %d) = %v, want ErrOutOfRange", off, err)
		}
		if err := s.Zero(off, 16); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("Zero(%d, 16) = %v, want ErrOutOfRange", off, err)
		}
	}
	if err := s.Zero(0, -1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Zero(0, -1) = %v, want ErrOutOfRange", err)
	}
	if err := s.ReadAt(make([]byte, testSize+1), 0); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("oversized ReadAt = %v, want ErrOutOfRange", err)
	}
	if s.Resident() != 0 {
		t.Errorf("rejected ops materialised %d bytes", s.Resident())
	}
}

func TestStoreResidentCountsTouchedChunks(t *testing.T) {
	s := New(testSize)
	if err := s.Zero(0, testSize); err != nil || s.Resident() != 0 {
		t.Fatalf("Zero of an untouched store: err %v, resident %d, want nil and 0", err, s.Resident())
	}
	if err := s.WriteAt([]byte{1, 2}, chunkSize-1); err != nil { // straddles chunks 0 and 1
		t.Fatal(err)
	}
	if got := s.Resident(); got != 2*chunkSize {
		t.Fatalf("Resident() = %d after a straddling write, want %d", got, 2*chunkSize)
	}
	if err := s.WriteAt([]byte{3}, testSize-1); err != nil { // the short tail chunk
		t.Fatal(err)
	}
	if got := s.Resident(); got != 2*chunkSize+1234 {
		t.Fatalf("Resident() = %d after a tail write, want %d", got, 2*chunkSize+1234)
	}
	if err := s.Zero(0, testSize); err != nil || s.Resident() != 2*chunkSize+1234 {
		t.Fatalf("Zero must keep chunks resident: err %v, resident %d", err, s.Resident())
	}
}

func TestStoreHotPathsDoNotAllocate(t *testing.T) {
	s := New(1 << 30)
	buf := make([]byte, chunkSize)
	if n := testing.AllocsPerRun(100, func() { _ = s.ReadAt(buf, 12345) }); n != 0 {
		t.Errorf("read of an untouched store allocates %v times", n)
	}
	if err := s.WriteAt(buf, chunkSize/2); err != nil { // materialise chunks 0 and 1
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.ReadAt(buf, 5*chunkSize+7) }); n != 0 {
		t.Errorf("read of untouched chunks beside written ones allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.WriteAt(buf, chunkSize/4) }); n != 0 {
		t.Errorf("write into materialised chunks allocates %v times", n)
	}
}

// FuzzStore decodes 4-byte ops [opcode, offHi, offLo, len] onto a two-and-a-
// bit-chunk store and checks every read against the dense reference.
func FuzzStore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 255, 1, 0, 0, 255})                       // write, read back
	f.Add([]byte{0, 255, 240, 255, 2, 255, 250, 9, 1, 255, 0, 255}) // straddle, zero part, read
	f.Add([]byte{1, 128, 0, 200, 2, 0, 0, 255, 0, 255, 255, 255})   // untouched read and zero, tail write
	f.Fuzz(func(t *testing.T, data []byte) {
		const size = 2*chunkSize + 300
		w := newTwin(t, size)
		for i := 0; i+4 <= len(data); i += 4 {
			// offHi:offLo covers [0, 65536); doubling it and adding the
			// opcode's upper bits reaches both chunk boundaries and the tail.
			off := (int64(data[i+1])<<8|int64(data[i+2]))*2 + int64(data[i]>>2)
			n := int64(data[i+3]) * 3
			off = min(off, size)
			n = min(n, size-off)
			w.do(int(data[i]&3)%3, off, n, data[i+3])
		}
		w.check()
	})
}

package swapdev

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestLatencyOrdering(t *testing.T) {
	// The whole point of Table 2: remote RAM < SSD < HDD.
	rram := LatencyOf(RemoteRAM)
	ssd := LatencyOf(LocalSSD)
	hdd := LatencyOf(LocalHDD)
	if !(rram.ReadNs < ssd.ReadNs && ssd.ReadNs < hdd.ReadNs) {
		t.Errorf("read latency ordering violated: %v %v %v", rram.ReadNs, ssd.ReadNs, hdd.ReadNs)
	}
	if !(rram.WriteNs < ssd.WriteNs && ssd.WriteNs < hdd.WriteNs) {
		t.Errorf("write latency ordering violated: %v %v %v", rram.WriteNs, ssd.WriteNs, hdd.WriteNs)
	}
	// Remote RAM should be at least an order of magnitude faster than SSD.
	if rram.ReadNs*10 > ssd.ReadNs {
		t.Error("remote RAM should be >= 10x faster than SSD")
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{RemoteRAM, LocalSSD, LocalHDD} {
		if k.String() == "" {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(RemoteRAM, 0); err == nil {
		t.Error("zero capacity should be rejected")
	}
	if _, err := NewWithLatency(-1, Latency{}); err == nil {
		t.Error("negative capacity should be rejected")
	}
	d, err := New(RemoteRAM, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d.Slots() != 8 {
		t.Errorf("slots = %d, want 8", d.Slots())
	}
	// An explicit latency is what every operation reports.
	s, err := NewWithLatency(2, Latency{WriteNs: 10, ReadNs: 20})
	if err != nil {
		t.Fatal(err)
	}
	if lat, err := s.WritePage(0, []byte("x")); err != nil || lat != 10 {
		t.Errorf("write lat=%d err=%v, want 10", lat, err)
	}
	dst := make([]byte, 1)
	if lat, err := s.ReadPage(0, dst); err != nil || lat != 20 || string(dst) != "x" {
		t.Errorf("read lat=%d err=%v data=%q, want 20 and %q", lat, err, dst, "x")
	}
}

func TestSwapOutInRoundTrip(t *testing.T) {
	for _, kind := range []Kind{RemoteRAM, LocalSSD, LocalHDD} {
		d, _ := New(kind, 4)
		page := bytes.Repeat([]byte{0x5A}, PageSize)
		wlat, err := d.WritePage(2, page)
		if err != nil {
			t.Fatalf("%v WritePage: %v", kind, err)
		}
		if wlat != LatencyOf(kind).WriteNs {
			t.Errorf("%v write latency = %d, want %d", kind, wlat, LatencyOf(kind).WriteNs)
		}
		dst := make([]byte, PageSize)
		rlat, err := d.ReadPage(2, dst)
		if err != nil {
			t.Fatalf("%v ReadPage: %v", kind, err)
		}
		if rlat != LatencyOf(kind).ReadNs {
			t.Errorf("%v read latency = %d", kind, rlat)
		}
		if !bytes.Equal(page, dst) {
			t.Fatalf("%v corrupted the page", kind)
		}
		st := d.Stats()
		if st.SwapOuts != 1 || st.SwapIns != 1 {
			t.Errorf("%v stats = %+v", kind, st)
		}
		if st.TotalNs != wlat+rlat {
			t.Errorf("%v total ns = %d, want %d", kind, st.TotalNs, wlat+rlat)
		}
	}
}

func TestSwapErrors(t *testing.T) {
	d, _ := New(LocalSSD, 2)
	if _, err := d.WritePage(5, nil); !errors.Is(err, ErrSlotOutOfRange) {
		t.Errorf("out-of-range write: %v", err)
	}
	if _, err := d.ReadPage(-1, nil); !errors.Is(err, ErrSlotOutOfRange) {
		t.Errorf("out-of-range read: %v", err)
	}
	if _, err := d.ReadPage(0, make([]byte, PageSize)); !errors.Is(err, ErrEmptySlot) {
		t.Errorf("empty slot read: %v", err)
	}
	if _, err := d.WritePage(0, make([]byte, PageSize+1)); err == nil {
		t.Error("oversized page should be rejected")
	}
	// Free empties the slot.
	if _, err := d.WritePage(0, bytes.Repeat([]byte{0xAB}, PageSize)); err != nil {
		t.Fatal(err)
	}
	d.Free(0)
	if _, err := d.ReadPage(0, make([]byte, PageSize)); !errors.Is(err, ErrEmptySlot) {
		t.Error("freed slot should be empty")
	}
	// A freed slot rewritten with a short page reads zeros past the write.
	if _, err := d.WritePage(0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	dst := bytes.Repeat([]byte{0xFF}, PageSize)
	if _, err := d.ReadPage(0, dst); err != nil {
		t.Fatal(err)
	}
	if want := append([]byte("data"), make([]byte, PageSize-4)...); !bytes.Equal(dst, want) {
		t.Error("a short rewrite should read back zero-padded")
	}
	d.Free(99) // out of range: no-op
	d.Free(-1)
}

// Property: whatever is written is read back bit-identical, for any slot
// within range.
func TestPropertyRoundTrip(t *testing.T) {
	d, _ := New(RemoteRAM, 16)
	f := func(slot uint8, data []byte) bool {
		s := int(slot) % 16
		if len(data) > PageSize {
			data = data[:PageSize]
		}
		if _, err := d.WritePage(s, data); err != nil {
			return false
		}
		dst := make([]byte, len(data))
		if _, err := d.ReadPage(s, dst); err != nil {
			return false
		}
		return bytes.Equal(data, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// refStore is FuzzSlotStore's reference: one dense PageSize slice per slot
// plus a present flag.
type refStore struct {
	lat     Latency
	pages   [][]byte
	present []bool
	stats   Stats
}

func (r *refStore) write(slot int, page []byte) (int64, error) {
	if slot < 0 || slot >= len(r.pages) {
		return 0, ErrSlotOutOfRange
	}
	if len(page) > PageSize {
		return 0, fmt.Errorf("swapdev: page of %d bytes exceeds %d", len(page), PageSize)
	}
	r.pages[slot] = make([]byte, PageSize)
	copy(r.pages[slot], page)
	r.present[slot] = true
	r.stats.SwapOuts++
	r.stats.BytesWritten += uint64(len(page))
	r.stats.TotalNs += r.lat.WriteNs
	return r.lat.WriteNs, nil
}

func (r *refStore) read(slot int, dst []byte) (int64, error) {
	if slot < 0 || slot >= len(r.pages) {
		return 0, ErrSlotOutOfRange
	}
	if !r.present[slot] {
		return 0, ErrEmptySlot
	}
	n := copy(dst, r.pages[slot])
	r.stats.SwapIns++
	r.stats.BytesRead += uint64(n)
	r.stats.TotalNs += r.lat.ReadNs
	return r.lat.ReadNs, nil
}

func (r *refStore) free(slot int) {
	if slot >= 0 && slot < len(r.pages) {
		r.present[slot] = false
	}
}

// opLen maps a length selector to a page or buffer length: 255 is one byte
// more than a page, 192 and up a whole page, anything lower a short length.
func opLen(sel byte) int {
	switch {
	case sel == 255:
		return PageSize + 1
	case sel >= 192:
		return PageSize
	default:
		return int(sel) * 21
	}
}

// FuzzSlotStore runs an op sequence against a Store and against refStore
// with the same latency: every latency, error, counter and byte read back
// must match. Each op is three bytes: write, read or free; a slot from -2 to
// two past the end; and a length (opLen). Written bytes are never zero, so a
// short rewrite that left stale bytes past its end would show, and reads
// start from a filled buffer, so bytes a read must leave alone are checked
// too. The seed corpus is checked in under testdata/fuzz/FuzzSlotStore.
func FuzzSlotStore(f *testing.F) {
	f.Fuzz(func(t *testing.T, slots uint8, ops []byte) {
		n := 1 + int(slots)%16
		lat := Latency{WriteNs: 3, ReadNs: 5}
		s, err := NewWithLatency(n, lat)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refStore{lat: lat, pages: make([][]byte, n), present: make([]bool, n)}
		for i := 0; i+2 < len(ops); i += 3 {
			op, slot, buf := ops[i]%3, int(ops[i+1])%(n+4)-2, make([]byte, opLen(ops[i+2]))
			var got, want int64
			var gotErr, wantErr error
			switch op {
			case 0:
				for j := range buf {
					buf[j] = byte(i+j) | 1
				}
				got, gotErr = s.WritePage(slot, buf)
				want, wantErr = ref.write(slot, buf)
			case 1:
				for j := range buf {
					buf[j] = 0xEE
				}
				refBuf := bytes.Clone(buf)
				got, gotErr = s.ReadPage(slot, buf)
				want, wantErr = ref.read(slot, refBuf)
				if !bytes.Equal(buf, refBuf) {
					t.Fatalf("op %d: read of slot %d into %d bytes differs from the reference", i/3, slot, len(buf))
				}
			default:
				s.Free(slot)
				ref.free(slot)
			}
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("op %d (%d on slot %d, %d bytes): store (%d, %v), reference (%d, %v)",
					i/3, op, slot, len(buf), got, gotErr, want, wantErr)
			}
			if st := s.Stats(); st != ref.stats {
				t.Fatalf("op %d: stats %+v, reference %+v", i/3, st, ref.stats)
			}
		}
	})
}

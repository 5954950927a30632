package memplane

import (
	"bytes"
	"testing"
)

// FuzzPageTable drives two VMs' planes over one shared page table with an
// op stream decoded from the fuzz input, checking the two properties the data
// plane stands on: no frame ever backs two pages (CheckInvariants after every
// step) and reads always return the last write (byte-exact shadow).
//
// Each op consumes 4 bytes: [opcode, page, off, len]. The opcode's low bits
// pick the action (write / read / free) and the VM; page, off and len are
// folded into the 8-page address space so every input decodes to valid ops.
func FuzzPageTable(f *testing.F) {
	// Seed corpus: a write+read pair, cross-VM traffic, free/rewrite churn,
	// unaligned spans, and an empty input.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 255, 2, 0, 0, 255})
	f.Add([]byte{0, 1, 0, 16, 1, 1, 0, 16, 2, 1, 0, 16, 3, 1, 0, 16})
	f.Add([]byte{0, 3, 7, 200, 4, 3, 0, 0, 0, 3, 9, 100, 2, 3, 0, 255})
	f.Add([]byte{0, 7, 255, 255, 5, 7, 255, 255, 1, 7, 1, 1})
	// vm-a maps four pages (local and remote), frees every one of them while
	// vm-b stays mapped, then rewrites and reads them through the same plane.
	f.Add([]byte{
		0, 0, 0, 255, 0, 1, 0, 255, 0, 2, 0, 255, 0, 3, 0, 255, 4, 0, 0, 255,
		2, 0, 0, 0, 2, 1, 0, 0, 2, 2, 0, 0, 2, 3, 0, 0,
		0, 3, 9, 99, 0, 2, 0, 255, 0, 1, 200, 255, 0, 0, 0, 0, 1, 0, 0, 255, 1, 3, 0, 255,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		const pages = 8
		names := []string{"user-00", "zombie-01"}
		r := newRig(t, names, []string{"zombie-01"})
		table := NewPageTable(DefaultPageSize)
		span := pages * DefaultPageSize

		mk := func(vm string) *Plane {
			p, err := New(Config{
				VM:           vm,
				LocalBytes:   2 * DefaultPageSize,
				AddressBytes: span,
				Agent:        r.user(t, names),
				Table:        table,
			})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		planes := []*Plane{mk("vm-a"), mk("vm-b")}
		shadows := [][]byte{make([]byte, span), make([]byte, span)}

		buf := make([]byte, DefaultPageSize)
		for i := 0; i+4 <= len(data); i += 4 {
			op, pg, off, ln := data[i], data[i+1], data[i+2], data[i+3]
			vm := int(op>>2) & 1
			p, shadow := planes[vm], shadows[vm]
			addr := int64(pg%pages)*DefaultPageSize + int64(off)
			size := 1 + int(ln)
			if addr+int64(size) > span {
				size = int(span - addr)
			}
			switch op & 3 {
			case 0, 3: // write
				fillPattern(buf[:size], addr, byte(i))
				n, _, err := p.Write(addr, buf[:size])
				if err != nil {
					t.Fatalf("write vm=%d addr=%d size=%d: %v", vm, addr, size, err)
				}
				copy(shadow[addr:addr+int64(n)], buf[:n])
			case 1: // read
				got := buf[:size]
				n, _, err := p.Read(addr, got)
				if err != nil {
					t.Fatalf("read vm=%d addr=%d size=%d: %v", vm, addr, size, err)
				}
				if !bytes.Equal(got[:n], shadow[addr:addr+int64(n)]) {
					t.Fatalf("read vm=%d addr=%d size=%d differs from last write", vm, addr, size)
				}
			case 2: // free (drops the page: it must read back as zeros)
				if err := p.Free(addr); err != nil {
					t.Fatalf("free vm=%d addr=%d: %v", vm, addr, err)
				}
				base := (addr / DefaultPageSize) * DefaultPageSize
				for j := base; j < base+DefaultPageSize; j++ {
					shadow[j] = 0
				}
			}
			if err := table.CheckInvariants(); err != nil {
				t.Fatalf("after op %d: %v", i/4, err)
			}
		}

		// Full-space sweep: both VMs read back exactly their own shadow —
		// proof that no frame was ever shared across the two address spaces.
		got := make([]byte, DefaultPageSize)
		for vm, p := range planes {
			for base := int64(0); base < span; base += DefaultPageSize {
				if _, _, err := p.Read(base, got); err != nil {
					t.Fatalf("sweep vm=%d page %d: %v", vm, base/DefaultPageSize, err)
				}
				if !bytes.Equal(got, shadows[vm][base:base+DefaultPageSize]) {
					t.Fatalf("vm=%d page %d corrupted", vm, base/DefaultPageSize)
				}
			}
		}
		for _, p := range planes {
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

package memplane

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/memctl"
)

func localFrame(arena string, off int64) Frame {
	return Frame{Kind: FrameLocal, Arena: arena, LocalOff: off}
}

func remoteFrame(host string, buf memctl.BufferID, off int64) Frame {
	return Frame{Kind: FrameRemote, Host: memctl.ServerID(host), Buffer: buf, Offset: off}
}

func TestPageTableMapUnmap(t *testing.T) {
	pt := NewPageTable(4096)
	if err := pt.Map("vm-a", 0, localFrame("vm-a", 0)); err != nil {
		t.Fatalf("map: %v", err)
	}
	if err := pt.Map("vm-a", 0, localFrame("vm-a", 4096)); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("remap without unmap: got %v, want ErrAlreadyMapped", err)
	}
	f, ok := pt.Lookup("vm-a", 0)
	if !ok || f.LocalOff != 0 {
		t.Fatalf("lookup: got %v %v", f, ok)
	}
	if _, ok := pt.Lookup("vm-b", 0); ok {
		t.Fatal("vm-b must not see vm-a's mapping")
	}
	got, err := pt.Unmap("vm-a", 0)
	if err != nil || got.LocalOff != 0 {
		t.Fatalf("unmap: %v %v", got, err)
	}
	if _, err := pt.Unmap("vm-a", 0); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("double unmap: got %v, want ErrNotMapped", err)
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPageTableRejectsAliasing(t *testing.T) {
	pt := NewPageTable(4096)
	shared := remoteFrame("zombie-01", 7, 8192)
	if err := pt.Map("vm-a", 3, shared); err != nil {
		t.Fatalf("map: %v", err)
	}
	// The same remote frame must not back another VM's page...
	if err := pt.Map("vm-b", 3, shared); !errors.Is(err, ErrFrameAliased) {
		t.Fatalf("cross-VM alias: got %v, want ErrFrameAliased", err)
	}
	// ...nor another page of the same VM.
	if err := pt.Map("vm-a", 4, shared); !errors.Is(err, ErrFrameAliased) {
		t.Fatalf("same-VM alias: got %v, want ErrFrameAliased", err)
	}
	// Local frames of different arenas with equal offsets do NOT alias.
	if err := pt.Map("vm-a", 5, localFrame("vm-a", 0)); err != nil {
		t.Fatalf("map local: %v", err)
	}
	if err := pt.Map("vm-b", 5, localFrame("vm-b", 0)); err != nil {
		t.Fatalf("distinct arenas must not alias: %v", err)
	}
	// Same arena + same offset does.
	if err := pt.Map("vm-b", 6, localFrame("vm-a", 0)); !errors.Is(err, ErrFrameAliased) {
		t.Fatalf("same-arena alias: got %v, want ErrFrameAliased", err)
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPageTableRemap(t *testing.T) {
	pt := NewPageTable(4096)
	oldF := remoteFrame("zombie-01", 1, 0)
	newF := remoteFrame("zombie-02", 2, 0)
	if err := pt.Map("vm", 9, oldF); err != nil {
		t.Fatal(err)
	}
	got, err := pt.Remap("vm", 9, newF)
	if err != nil {
		t.Fatalf("remap: %v", err)
	}
	if got.Host != "zombie-01" {
		t.Fatalf("remap returned %v, want the old frame", got)
	}
	// The old frame is free again.
	if err := pt.Map("vm", 10, oldF); err != nil {
		t.Fatalf("old frame should be reusable: %v", err)
	}
	// Remapping an unmapped page fails.
	if _, err := pt.Remap("vm", 99, oldF); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("remap unmapped: got %v", err)
	}
	// Remapping onto a frame owned elsewhere fails.
	if _, err := pt.Remap("vm", 10, newF); !errors.Is(err, ErrFrameAliased) {
		t.Fatalf("remap alias: got %v", err)
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPageTablePagesOn(t *testing.T) {
	pt := NewPageTable(4096)
	for i, f := range []Frame{
		remoteFrame("z1", 1, 0),
		remoteFrame("z2", 2, 0),
		remoteFrame("z1", 1, 4096),
		localFrame("vm", 0),
	} {
		if err := pt.Map("vm", int64(3-i), f); err != nil {
			t.Fatal(err)
		}
	}
	got := pt.PagesOn("vm", "z1")
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("PagesOn(z1) = %v, want [1 3]", got)
	}
	if pages := pt.Pages("vm"); len(pages) != 4 || pages[0] != 0 || pages[3] != 3 {
		t.Fatalf("Pages = %v", pages)
	}
	if pt.Len() != 4 {
		t.Fatalf("Len = %d", pt.Len())
	}
}

// TestPageTablePerVMIsolation: one VM's view of a shared table does not
// depend on how much another VM has mapped, looking a VM up never creates
// state for it, and the aliasing check still spans VMs.
func TestPageTablePerVMIsolation(t *testing.T) {
	pt := NewPageTable(4096)
	for i, f := range []Frame{
		remoteFrame("z1", 1, 0),
		localFrame("vm-a", 0),
		remoteFrame("z2", 2, 0),
		remoteFrame("z1", 1, 4096),
	} {
		if err := pt.Map("vm-a", int64(7-2*i), f); err != nil {
			t.Fatal(err)
		}
	}
	pages, onZ1 := pt.Pages("vm-a"), pt.PagesOn("vm-a", "z1")
	if !reflect.DeepEqual(pages, []int64{1, 3, 5, 7}) || !reflect.DeepEqual(onZ1, []int64{1, 7}) {
		t.Fatalf("Pages = %v, PagesOn(z1) = %v", pages, onZ1)
	}
	for i := int64(0); i < 10_000; i++ {
		if err := pt.Map("vm-b", i, remoteFrame("z1", 9, i*4096)); err != nil {
			t.Fatal(err)
		}
	}
	if got := pt.Pages("vm-a"); !reflect.DeepEqual(got, pages) {
		t.Fatalf("Pages(vm-a) = %v after vm-b's mappings, want %v", got, pages)
	}
	if got := pt.PagesOn("vm-a", "z1"); !reflect.DeepEqual(got, onZ1) {
		t.Fatalf("PagesOn(vm-a, z1) = %v after vm-b's mappings, want %v", got, onZ1)
	}
	if pt.Len() != 10_004 {
		t.Fatalf("Len = %d", pt.Len())
	}

	if f, ok := pt.Lookup("ghost", 0); ok || f != (Frame{}) {
		t.Fatalf("Lookup of an unknown VM = %v %v", f, ok)
	}
	if pt.Pages("ghost") != nil || pt.PagesOn("ghost", "z1") != nil {
		t.Fatal("an unknown VM has pages")
	}
	if _, err := pt.Unmap("ghost", 0); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("unmap of an unknown VM: %v", err)
	}
	if len(pt.vms) != 2 {
		t.Fatalf("%d per-VM indexes after looking up an unknown VM, want 2", len(pt.vms))
	}

	if err := pt.Map("vm-c", 0, remoteFrame("z2", 2, 0)); !errors.Is(err, ErrFrameAliased) {
		t.Fatalf("cross-VM alias: got %v, want ErrFrameAliased", err)
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPlaneIndexSurvivesFreeingEveryPage: a plane resolves its VM's index
// once, so the table must keep that index live while the VM has no pages —
// writes after freeing everything have to land where the plane reads.
func TestPlaneIndexSurvivesFreeingEveryPage(t *testing.T) {
	names := []string{"user-00", "zombie-01"}
	r := newRig(t, names, []string{"zombie-01"})
	table := NewPageTable(DefaultPageSize)
	const pages = 6 // 2 local frames, the rest on the zombie
	mk := func(vm string) *Plane {
		p, err := New(Config{VM: vm, LocalBytes: 2 * DefaultPageSize, Agent: r.user(t, names), Table: table})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p, other := mk("vm-a"), mk("vm-b")
	buf, got := make([]byte, DefaultPageSize), make([]byte, DefaultPageSize)
	for round := byte(0); round < 3; round++ {
		for pg := int64(0); pg < pages; pg++ {
			fillPattern(buf, pg*DefaultPageSize, round)
			if _, _, err := p.Write(pg*DefaultPageSize, buf); err != nil {
				t.Fatalf("round %d write page %d: %v", round, pg, err)
			}
		}
		if _, _, err := other.Write(0, buf); err != nil {
			t.Fatal(err)
		}
		if n := len(table.Pages("vm-a")); n != pages {
			t.Fatalf("round %d: table holds %d pages of vm-a, want %d", round, n, pages)
		}
		for pg := int64(0); pg < pages; pg++ {
			fillPattern(buf, pg*DefaultPageSize, round)
			if _, _, err := p.Read(pg*DefaultPageSize, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, buf) {
				t.Fatalf("round %d: page %d does not read back its last write", round, pg)
			}
		}
		for pg := int64(0); pg < pages; pg++ {
			if err := p.Free(pg * DefaultPageSize); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(table.Pages("vm-a")); n != 0 {
			t.Fatalf("round %d: %d pages left after freeing all", round, n)
		}
		if err := table.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := table.vms["vm-a"]; ok || table.Len() != 1 {
		t.Fatalf("closing vm-a left its index (%v) or took vm-b's page (Len %d)", ok, table.Len())
	}
	if err := other.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedTableKeepsNoResidueOfClosedPlanes: a table that outlives its VMs
// holds nothing of them.
func TestSharedTableKeepsNoResidueOfClosedPlanes(t *testing.T) {
	table := NewPageTable(DefaultPageSize)
	buf := make([]byte, DefaultPageSize)
	for i := 0; i < 1000; i++ {
		p, err := New(Config{VM: fmt.Sprintf("vm-%04d", i), LocalBytes: 2 * DefaultPageSize, Table: table})
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 { // half of the planes close without ever mapping a page
			if _, _, err := p.Write(DefaultPageSize, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if table.Len() != 0 || len(table.vms) != 0 || len(table.owners) != 0 {
		t.Fatalf("Len %d, %d per-VM indexes, %d owners after every plane closed", table.Len(), len(table.vms), len(table.owners))
	}
	if err := table.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

package memplane

import (
	"errors"
	"testing"

	"repro/internal/memctl"
)

func localFrame(off int64) Frame {
	return Frame{Kind: FrameLocal, LocalOff: off}
}

func remoteFrame(host string, buf memctl.BufferID, off int64) Frame {
	return Frame{Kind: FrameRemote, Host: memctl.ServerID(host), Buffer: buf, Offset: off}
}

// TestPageTableMapUnmap: a page maps once and never at a negative number,
// and the table answers only for its own VM.
func TestPageTableMapUnmap(t *testing.T) {
	pt := newPageTable("vm-a")
	if err := pt.Map(0, localFrame(0)); err != nil {
		t.Fatalf("map: %v", err)
	}
	if err := pt.Map(0, localFrame(4096)); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("second map of a page: got %v, want ErrAlreadyMapped", err)
	}
	f, ok := pt.Lookup("vm-a", 0)
	if !ok || f.LocalOff != 0 {
		t.Fatalf("lookup: got %v %v", f, ok)
	}
	if f, ok := pt.Lookup("vm-b", 0); ok || f != (Frame{}) {
		t.Fatalf("another VM's lookup found %v", f)
	}
	if err := pt.Map(-1, localFrame(4096)); err == nil {
		t.Fatal("mapped a negative page")
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPageTableRejectsAliasing(t *testing.T) {
	pt := newPageTable("vm")
	shared := remoteFrame("zombie-01", 7, 8192)
	if err := pt.Map(3, shared); err != nil {
		t.Fatalf("map: %v", err)
	}
	// The same remote frame must not back another page...
	if err := pt.Map(4, shared); !errors.Is(err, ErrFrameAliased) {
		t.Fatalf("remote alias: got %v, want ErrFrameAliased", err)
	}
	// ...and neither must the same arena offset.
	if err := pt.Map(5, localFrame(0)); err != nil {
		t.Fatalf("map local: %v", err)
	}
	if err := pt.Map(6, localFrame(0)); !errors.Is(err, ErrFrameAliased) {
		t.Fatalf("local alias: got %v, want ErrFrameAliased", err)
	}
	// A local frame and a remote one at the same offset are distinct.
	if err := pt.Map(7, remoteFrame("zombie-01", 7, 0)); err != nil {
		t.Fatalf("local and remote frames must not alias: %v", err)
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPageTableRemap(t *testing.T) {
	pt := newPageTable("vm")
	oldF := remoteFrame("zombie-01", 1, 0)
	newF := remoteFrame("zombie-02", 2, 0)
	if err := pt.Map(9, oldF); err != nil {
		t.Fatal(err)
	}
	got, err := pt.Remap(9, newF)
	if err != nil {
		t.Fatalf("remap: %v", err)
	}
	if got.Host != "zombie-01" {
		t.Fatalf("remap returned %v, want the old frame", got)
	}
	// The old frame is free again.
	if err := pt.Map(10, oldF); err != nil {
		t.Fatalf("old frame should be reusable: %v", err)
	}
	// Remapping an unmapped page fails.
	if _, err := pt.Remap(99, oldF); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("remap unmapped: got %v", err)
	}
	// Remapping onto a frame owned elsewhere fails.
	if _, err := pt.Remap(10, newF); !errors.Is(err, ErrFrameAliased) {
		t.Fatalf("remap alias: got %v", err)
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPageTablePagesOn(t *testing.T) {
	pt := newPageTable("vm")
	for i, f := range []Frame{
		remoteFrame("z1", 1, 0),
		remoteFrame("z2", 2, 0),
		remoteFrame("z1", 1, 4096),
		localFrame(0),
	} {
		if err := pt.Map(int64(3-i), f); err != nil {
			t.Fatal(err)
		}
	}
	got := pt.PagesOn("z1")
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("PagesOn(z1) = %v, want [1 3]", got)
	}
	if pages := pt.Pages(); len(pages) != 4 || pages[0] != 0 || pages[3] != 3 {
		t.Fatalf("Pages = %v", pages)
	}
	if pt.Len() != 4 {
		t.Fatalf("Len = %d", pt.Len())
	}
}

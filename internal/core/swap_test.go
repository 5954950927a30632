package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/swapdev"
)

func TestCreateSwapDeviceBestEffort(t *testing.T) {
	r := testRack(t, 3)
	// No remote memory yet: the best-effort allocation returns no device.
	dev, err := r.CreateSwapDevice("server-00", 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	if dev != nil {
		t.Fatal("without remote memory there should be no swap device")
	}
	// With a zombie server, the device appears (possibly smaller than asked).
	if err := r.PushToZombie("server-02"); err != nil {
		t.Fatal(err)
	}
	dev, err = r.CreateSwapDevice("server-00", 10<<30)
	if err != nil {
		t.Fatal(err)
	}
	if dev == nil || dev.Slots() == 0 {
		t.Fatal("expected a (possibly smaller) swap device")
	}
	if dev.Buffers() == 0 {
		t.Error("device should be backed by remote buffers")
	}
	// Validation of bad arguments.
	if _, err := r.CreateSwapDevice("ghost", 1<<20); !errors.Is(err, ErrUnknownServer) {
		t.Error("unknown host should fail")
	}
	if _, err := r.CreateSwapDevice("server-00", 0); err == nil {
		t.Error("zero size should fail")
	}
}

func TestRemoteSwapDeviceRoundTrip(t *testing.T) {
	r := testRack(t, 2)
	if err := r.PushToZombie("server-01"); err != nil {
		t.Fatal(err)
	}
	dev, err := r.CreateSwapDevice("server-00", 64<<20)
	if err != nil || dev == nil {
		t.Fatalf("swap device: %v %v", dev, err)
	}
	page := bytes.Repeat([]byte{0xCD}, swapdev.PageSize)
	wlat, err := dev.WritePage(7, page)
	if err != nil {
		t.Fatal(err)
	}
	if wlat <= 0 {
		t.Error("swap-out latency should be positive")
	}
	dst := make([]byte, swapdev.PageSize)
	rlat, err := dev.ReadPage(7, dst)
	if err != nil {
		t.Fatal(err)
	}
	if rlat <= 0 || !bytes.Equal(page, dst) {
		t.Fatal("swap-in corrupted the page")
	}
	// The traffic went through the RDMA fabric, and every write was mirrored.
	if r.Fabric().Stats().Writes == 0 || r.Fabric().Stats().Reads == 0 {
		t.Error("swap traffic should ride the fabric")
	}
	if dev.MirrorWrites() == 0 {
		t.Error("swap-outs must be mirrored locally for fault tolerance")
	}
	st := dev.Stats()
	if st.SwapOuts != 1 || st.SwapIns != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Error paths.
	if _, err := dev.ReadPage(8, dst); !errors.Is(err, swapdev.ErrEmptySlot) {
		t.Error("empty slot should fail")
	}
	if _, err := dev.WritePage(-1, page); !errors.Is(err, swapdev.ErrSlotOutOfRange) {
		t.Error("bad slot should fail")
	}
	if _, err := dev.WritePage(0, make([]byte, swapdev.PageSize+1)); err == nil {
		t.Error("oversized page should fail")
	}
	dev.Free(7)
	if _, err := dev.ReadPage(7, dst); !errors.Is(err, swapdev.ErrEmptySlot) {
		t.Error("freed slot should be empty")
	}
	if err := dev.Release(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Release(); err != nil {
		t.Fatal("double release should be a no-op")
	}
}

func TestRemoteSwapDeviceSurvivesReclaim(t *testing.T) {
	// The fault-tolerance path of the split-driver model: when the zombie
	// reclaims its memory, swapped pages are served from the local mirror.
	r := testRack(t, 2)
	if err := r.PushToZombie("server-01"); err != nil {
		t.Fatal(err)
	}
	dev, err := r.CreateSwapDevice("server-00", 64<<20)
	if err != nil || dev == nil {
		t.Fatalf("swap device: %v %v", dev, err)
	}
	page := bytes.Repeat([]byte{0x42}, swapdev.PageSize)
	if _, err := dev.WritePage(3, page); err != nil {
		t.Fatal(err)
	}
	fastLat, err := dev.ReadPage(3, make([]byte, swapdev.PageSize))
	if err != nil {
		t.Fatal(err)
	}

	// The zombie wakes up and reclaims everything; the device degrades to its
	// local mirror.
	if err := r.Wake("server-01"); err != nil {
		t.Fatal(err)
	}
	dev.MarkReclaimed()
	if !dev.Reclaimed() {
		t.Fatal("device should report the reclaim")
	}
	dst := make([]byte, swapdev.PageSize)
	slowLat, err := dev.ReadPage(3, dst)
	if err != nil {
		t.Fatalf("swap-in after reclaim should fall back to the mirror: %v", err)
	}
	if !bytes.Equal(page, dst) {
		t.Fatal("mirror returned corrupted data")
	}
	if slowLat <= fastLat {
		t.Errorf("the mirror path (%d ns) should be slower than remote RAM (%d ns)", slowLat, fastLat)
	}
	// Writes after the reclaim also land on the mirror.
	if _, err := dev.WritePage(4, page); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.ReadPage(4, dst); err != nil {
		t.Fatal(err)
	}
}

func TestExplicitSDOnRemoteSwapDevice(t *testing.T) {
	// Wire the guest-visible Explicit SD model to the rack-backed device:
	// the full paper stack for the second remote-memory function.
	r := testRack(t, 2)
	if err := r.PushToZombie("server-01"); err != nil {
		t.Fatal(err)
	}
	dev, err := r.CreateSwapDevice("server-00", 64<<20)
	if err != nil || dev == nil {
		t.Fatalf("swap device: %v %v", dev, err)
	}
	esd, err := hypervisor.NewExplicitSD(hypervisor.ExplicitConfig{
		Pages:       256,
		LocalFrames: 96,
		Device:      dev,
	})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for p := 0; p < 256; p++ {
			if _, err := esd.Access(p, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if esd.SwapTraffic() == 0 {
		t.Fatal("the guest should have swapped")
	}
	if dev.Stats().SwapOuts == 0 || dev.Stats().SwapIns == 0 {
		t.Error("the rack-backed device should have seen the traffic")
	}
	if r.Fabric().Stats().BytesWritten == 0 {
		t.Error("the zombie server's memory should have received the pages")
	}
}

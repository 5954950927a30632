package hypervisor

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/pagepolicy"
	"repro/internal/swapdev"
)

// recordingStore wraps a RemoteStore and remembers the highest slot written.
type recordingStore struct {
	RemoteStore
	highest int
}

func newRecordingStore(s RemoteStore) *recordingStore {
	return &recordingStore{RemoteStore: s, highest: -1}
}

func (s *recordingStore) WritePage(slot int, page []byte) (int64, error) {
	s.highest = max(s.highest, slot)
	return s.RemoteStore.WritePage(slot, page)
}

// TestSlotHighWaterBound: the slot tables cover needRemote+1 slots however
// many the store offers, so no access may reach past them.
func TestSlotHighWaterBound(t *testing.T) {
	const pages, localFrames = 96, 20
	const needRemote = pages - localFrames
	for _, name := range pagepolicy.Names() {
		pol, err := pagepolicy.New(name, pagepolicy.DefaultCost())
		if err != nil {
			t.Fatal(err)
		}
		store := newRecordingStore(NewInfinibandStore(32 * needRemote))
		r, err := NewRAMExt(Config{Pages: pages, LocalFrames: localFrames, Policy: pol, Remote: store})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 5000; i++ {
			if _, err := r.Access(rng.Intn(pages), rng.Intn(2) == 0); err != nil {
				t.Fatalf("%s: access %d: %v", name, i, err)
			}
			if err := r.CheckInvariants(); err != nil {
				t.Fatalf("%s: after access %d: %v", name, i, err)
			}
		}
		if store.highest >= needRemote+1 {
			t.Errorf("%s: wrote slot %d, want < %d", name, store.highest, needRemote+1)
		}
		if store.highest < needRemote-1 {
			t.Errorf("%s: highest slot %d: the run never filled the remote share", name, store.highest)
		}
	}
}

// TestExactlyNeedRemoteSlotsRunsDry: a fault demotes its victim before it
// releases the promoted page's slot, so a store with exactly needRemote slots
// runs dry on the first promotion with the share full. With 4 frames of 8
// pages under FIFO that is the ninth access of a sequential scan, as it was
// when the slot tables were sized by the store.
func TestExactlyNeedRemoteSlotsRunsDry(t *testing.T) {
	const pages, localFrames = 8, 4
	r, err := NewRAMExt(Config{
		Pages: pages, LocalFrames: localFrames,
		Policy: pagepolicy.NewFIFO(pagepolicy.DefaultCost()),
		Remote: NewInfinibandStore(pages - localFrames),
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		if _, err := r.Access(p, true); err != nil {
			t.Fatalf("access %d: %v", p, err)
		}
	}
	if _, err := r.Access(0, true); !errors.Is(err, ErrNoRemoteCapacity) {
		t.Fatalf("access %d: err = %v, want ErrNoRemoteCapacity", pages, err)
	}
}

// failingStore fails the failAt-th WritePage (1-based) and serves the rest.
type failingStore struct {
	RemoteStore
	writes, failAt int
}

func (s *failingStore) WritePage(slot int, page []byte) (int64, error) {
	if s.writes++; s.writes == s.failAt {
		return 0, errors.New("injected write failure")
	}
	return s.RemoteStore.WritePage(slot, page)
}

// TestFailedDemoteReturnsItsSlot: with only needRemote+1 slots a slot lost to
// a failed write would leave the VM one short at its next peak.
func TestFailedDemoteReturnsItsSlot(t *testing.T) {
	const pages, localFrames = 8, 4
	store := &failingStore{RemoteStore: NewInfinibandStore(64), failAt: 3}
	r, err := NewRAMExt(Config{
		Pages: pages, LocalFrames: localFrames,
		Policy: pagepolicy.NewFIFO(pagepolicy.DefaultCost()),
		Remote: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i := 0; i < 6*pages; i++ {
		if _, err := r.Access(i%pages, true); err != nil {
			if errors.Is(err, ErrNoRemoteCapacity) {
				t.Fatalf("access %d: %v", i, err)
			}
			failed++
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("after access %d: %v", i, err)
		}
	}
	if failed != 1 {
		t.Errorf("%d accesses failed, want the one injected", failed)
	}
}

// TestExplicitSDSlotBound: a swapped-in page keeps its slot, so a guest can
// come to hold one slot per page — and never more, whatever the device offers.
func TestExplicitSDSlotBound(t *testing.T) {
	const pages, localFrames = 64, 16
	dev, err := swapdev.New(swapdev.RemoteRAM, 32*pages)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecordingStore(dev)
	e, err := NewExplicitSD(ExplicitConfig{Pages: pages, LocalFrames: localFrames, Device: rec})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*pages; i++ {
		if _, err := e.Access(i%pages, true); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
	}
	if rec.highest != pages-1 {
		t.Errorf("highest slot = %d, want %d (every page swapped out once)", rec.highest, pages-1)
	}
}

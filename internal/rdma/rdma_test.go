package rdma

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func newTestFabric(t *testing.T) (*Fabric, *Device, *Device) {
	t.Helper()
	f := NewFabric(DefaultCostModel())
	a, err := f.AttachDevice("host-a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.AttachDevice("host-b")
	if err != nil {
		t.Fatal(err)
	}
	return f, a, b
}

func connectedQP(t *testing.T, a, b *Device) (*QueuePair, *QueuePair, *CompletionQueue, *CompletionQueue) {
	t.Helper()
	cqA := NewCompletionQueue()
	cqB := NewCompletionQueue()
	qpA := a.CreateQueuePair(cqA)
	qpB := b.CreateQueuePair(cqB)
	if err := Connect(qpA, qpB); err != nil {
		t.Fatal(err)
	}
	return qpA, qpB, cqA, cqB
}

func TestAttachDetachDevice(t *testing.T) {
	f := NewFabric(DefaultCostModel())
	if _, err := f.AttachDevice("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AttachDevice("x"); err == nil {
		t.Fatal("duplicate device name must be rejected")
	}
	if f.Devices() != 1 {
		t.Fatalf("devices = %d, want 1", f.Devices())
	}
	if f.Device("x") == nil {
		t.Fatal("Device(x) should exist")
	}
	f.DetachDevice("x")
	if f.Device("x") != nil {
		t.Fatal("device should be gone after detach")
	}
}

func TestRegisterMemoryValidation(t *testing.T) {
	_, a, _ := newTestFabric(t)
	if _, err := a.RegisterMemory(0, AccessFlags{}); err == nil {
		t.Fatal("zero-size region must be rejected")
	}
	mr, err := a.RegisterMemory(4096, AccessFlags{RemoteRead: true})
	if err != nil {
		t.Fatal(err)
	}
	if mr.Len() != 4096 {
		t.Errorf("region length = %d, want 4096", mr.Len())
	}
	if mr.LKey() == mr.RKey() {
		t.Error("local and remote keys should differ")
	}
	if a.Regions() != 1 {
		t.Errorf("regions = %d, want 1", a.Regions())
	}
	a.DeregisterMemory(mr)
	if a.Regions() != 0 {
		t.Errorf("regions after deregister = %d, want 0", a.Regions())
	}
}

func TestOneSidedWriteRead(t *testing.T) {
	f, a, b := newTestFabric(t)
	qpA, _, cqA, _ := connectedQP(t, a, b)
	mr, err := b.RegisterMemory(1<<20, AccessFlags{RemoteRead: true, RemoteWrite: true})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("zombie memory page contents")
	lat, err := qpA.Write(1, payload, mr.RKey(), 128)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if lat <= 0 {
		t.Error("write latency should be positive")
	}
	// The data must have landed in the remote buffer without any action on b.
	dst := make([]byte, len(payload))
	if err := mr.ReadAt(dst, 128); err != nil || !bytes.Equal(dst, payload) {
		t.Fatalf("remote buffer does not contain written payload (err %v)", err)
	}
	clear(dst)
	if _, err := qpA.Read(2, dst, mr.RKey(), 128, len(payload)); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(dst, payload) {
		t.Fatal("read back different data")
	}
	st := f.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Errorf("stats reads/writes = %d/%d, want 1/1", st.Reads, st.Writes)
	}
	if st.BytesWritten != uint64(len(payload)) || st.BytesRead != uint64(len(payload)) {
		t.Errorf("byte counters wrong: %+v", st)
	}
	// Completions delivered to the initiator's CQ.
	var wcs [10]WorkCompletion
	n := cqA.Poll(wcs[:])
	if n != 2 {
		t.Fatalf("expected 2 completions, got %d", n)
	}
	for _, wc := range wcs[:n] {
		if wc.Status != nil {
			t.Errorf("completion %s failed: %v", wc.Op, wc.Status)
		}
	}
}

func TestOneSidedVerbsAgainstZombieTarget(t *testing.T) {
	// The defining behaviour: a zombie host has its NIC initiator function
	// down (CPU suspended) but its memory path serving. One-sided verbs from
	// an active host still work; two-sided SENDs do not.
	_, a, b := newTestFabric(t)
	qpA, qpB, _, _ := connectedQP(t, a, b)
	mr, _ := b.RegisterMemory(4096, AccessFlags{RemoteRead: true, RemoteWrite: true})

	// Push b into "zombie": initiator down, memory path serving.
	b.SetUp(false)
	b.SetServing(true)

	if _, err := qpA.Write(1, []byte("x"), mr.RKey(), 0); err != nil {
		t.Fatalf("one-sided write to zombie must work: %v", err)
	}
	dst := make([]byte, 1)
	if _, err := qpA.Read(2, dst, mr.RKey(), 0, 1); err != nil {
		t.Fatalf("one-sided read from zombie must work: %v", err)
	}
	qpB.PostRecv(1, 64)
	if _, err := qpA.Send(3, []byte("hello")); !errors.Is(err, ErrDeviceDown) {
		t.Fatalf("two-sided send to zombie should fail with ErrDeviceDown, got %v", err)
	}
	// The zombie cannot initiate anything.
	if _, err := qpB.Write(4, []byte("y"), mr.RKey(), 0); !errors.Is(err, ErrDeviceDown) {
		t.Fatalf("zombie-initiated write should fail, got %v", err)
	}
}

func TestOneSidedVerbsAgainstS3Target(t *testing.T) {
	// An S3 host preserves memory but cannot serve it remotely.
	_, a, b := newTestFabric(t)
	qpA, _, _, _ := connectedQP(t, a, b)
	mr, _ := b.RegisterMemory(4096, AccessFlags{RemoteRead: true, RemoteWrite: true})
	b.SetUp(false)
	b.SetServing(false)
	if _, err := qpA.Write(1, []byte("x"), mr.RKey(), 0); !errors.Is(err, ErrRemoteNotServing) {
		t.Fatalf("write to S3 host should fail with ErrRemoteNotServing, got %v", err)
	}
	f := a.fabric.Stats()
	if f.FailedOps == 0 {
		t.Error("failed op should be counted")
	}
}

func TestAccessControl(t *testing.T) {
	_, a, b := newTestFabric(t)
	qpA, _, _, _ := connectedQP(t, a, b)
	roRegion, _ := b.RegisterMemory(4096, AccessFlags{RemoteRead: true})
	if _, err := qpA.Write(1, []byte("x"), roRegion.RKey(), 0); !errors.Is(err, ErrInvalidKey) {
		t.Fatalf("write to read-only region should fail, got %v", err)
	}
	dst := make([]byte, 8)
	if _, err := qpA.Read(2, dst, 0xdeadbeef, 0, 8); !errors.Is(err, ErrInvalidKey) {
		t.Fatalf("read with bogus rkey should fail, got %v", err)
	}
	rw, _ := b.RegisterMemory(64, AccessFlags{RemoteRead: true, RemoteWrite: true})
	if _, err := qpA.Read(3, make([]byte, 128), rw.RKey(), 32, 64); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("out-of-bounds read should fail, got %v", err)
	}
	if _, err := qpA.Write(4, make([]byte, 65), rw.RKey(), 0); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("out-of-bounds write should fail, got %v", err)
	}
	if _, err := qpA.Read(5, make([]byte, 4), rw.RKey(), 0, 8); err == nil {
		t.Fatal("read longer than destination must fail")
	}
}

func TestUnconnectedQueuePair(t *testing.T) {
	_, a, b := newTestFabric(t)
	cq := NewCompletionQueue()
	qp := a.CreateQueuePair(cq)
	mr, _ := b.RegisterMemory(64, AccessFlags{RemoteRead: true, RemoteWrite: true})
	if _, err := qp.Write(1, []byte("x"), mr.RKey(), 0); !errors.Is(err, ErrQPNotConnected) {
		t.Fatalf("unconnected QP write should fail, got %v", err)
	}
	if qp.Connected() {
		t.Error("QP should not report connected")
	}
}

func TestConnectValidation(t *testing.T) {
	_, a, b := newTestFabric(t)
	qpA, _, _, _ := connectedQP(t, a, b)
	other := a.CreateQueuePair(NewCompletionQueue())
	if err := Connect(qpA, other); err == nil {
		t.Fatal("reconnecting an already-connected QP must fail")
	}
	if err := Connect(nil, other); err == nil {
		t.Fatal("nil QP must be rejected")
	}
	f2 := NewFabric(DefaultCostModel())
	c, _ := f2.AttachDevice("other-fabric")
	qpC := c.CreateQueuePair(NewCompletionQueue())
	qpD := a.CreateQueuePair(NewCompletionQueue())
	if err := Connect(qpD, qpC); err == nil {
		t.Fatal("cross-fabric connect must fail")
	}
}

func TestSendRecv(t *testing.T) {
	_, a, b := newTestFabric(t)
	qpA, qpB, _, cqB := connectedQP(t, a, b)
	qpB.PostRecv(77, 128)
	lat, err := qpA.Send(1, []byte("control message"))
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if lat <= 0 {
		t.Error("send latency should be positive")
	}
	var wcs [10]WorkCompletion
	if n := cqB.Poll(wcs[:]); n != 1 {
		t.Fatalf("receiver should have 1 completion, got %d", n)
	}
	if wcs[0].WRID != 77 || wcs[0].Op != "RECV" {
		t.Errorf("unexpected completion %+v", wcs[0])
	}
	if string(wcs[0].Payload) != "control message" {
		t.Errorf("payload = %q", wcs[0].Payload)
	}
	// Without a posted receive the send fails.
	if _, err := qpA.Send(2, []byte("again")); !errors.Is(err, ErrNoReceivePosted) {
		t.Fatalf("send without posted recv should fail, got %v", err)
	}
	// Oversized payload fails.
	qpB.PostRecv(78, 4)
	if _, err := qpA.Send(3, []byte("way too large for the posted buffer")); err == nil {
		t.Fatal("oversized send should fail")
	}
}

func TestCostModelScalesWithSize(t *testing.T) {
	m := DefaultCostModel()
	small := m.TransferNs(m.OneSidedLatencyNs, 64)
	large := m.TransferNs(m.OneSidedLatencyNs, 4<<20)
	if large <= small {
		t.Error("large transfers must take longer than small ones")
	}
	// A 4 KiB page over 56 Gb/s should take on the order of a microsecond of
	// serialization on top of the base latency.
	page := m.TransferNs(m.OneSidedLatencyNs, 4096)
	if page < m.OneSidedLatencyNs || page > m.OneSidedLatencyNs+100_000 {
		t.Errorf("4 KiB transfer latency %d ns looks wrong", page)
	}
	// Two-sided costs more than one-sided for the same size.
	if m.TransferNs(m.TwoSidedLatencyNs, 4096) <= m.TransferNs(m.OneSidedLatencyNs, 4096) {
		t.Error("two-sided ops must cost more than one-sided ops")
	}
}

func TestCompletionQueuePolling(t *testing.T) {
	cq := NewCompletionQueue()
	for i := 0; i < 5; i++ {
		cq.push(WorkCompletion{WRID: uint64(i)})
	}
	if cq.Depth() != 5 {
		t.Fatalf("depth = %d, want 5", cq.Depth())
	}
	if n := cq.Poll(nil); n != 0 || cq.Depth() != 5 {
		t.Fatalf("poll into no room reaped %d, depth %d", n, cq.Depth())
	}
	var first [2]WorkCompletion
	if n := cq.Poll(first[:]); n != 2 || first[0].WRID != 0 || first[1].WRID != 1 {
		t.Fatalf("first poll reaped %d: %+v", n, first)
	}
	if cq.Depth() != 3 {
		t.Fatalf("depth after a partial poll = %d, want 3", cq.Depth())
	}
	// Completions pushed behind a partly reaped queue keep their order.
	cq.push(WorkCompletion{WRID: 5})
	cq.push(WorkCompletion{WRID: 6})
	var rest [8]WorkCompletion
	n := cq.Poll(rest[:])
	if n != 5 {
		t.Fatalf("second poll reaped %d, want 5", n)
	}
	for i, wc := range rest[:n] {
		if wc.WRID != uint64(2+i) {
			t.Errorf("rest[%d].WRID = %d, want %d", i, wc.WRID, 2+i)
		}
	}
	if cq.Depth() != 0 {
		t.Error("queue should be drained")
	}
	if n := cq.Poll(rest[:]); n != 0 {
		t.Errorf("poll of an empty queue reaped %d", n)
	}
	if cq.Polls() != 4 {
		t.Errorf("polls = %d, want 4", cq.Polls())
	}
}

// A queue that is reaped as it fills costs no allocation and no growth,
// whether each poll drains it or a backlog stands in it throughout.
func TestCompletionQueueSteadyStateAllocatesNothing(t *testing.T) {
	for _, backlog := range []int{0, 3} {
		cq := NewCompletionQueue()
		for i := 0; i < backlog; i++ {
			cq.push(WorkCompletion{Op: "WRITE"})
		}
		var wcs [2]WorkCompletion
		step := func() {
			cq.push(WorkCompletion{Op: "WRITE"})
			cq.push(WorkCompletion{Op: "READ"})
			if n := cq.Poll(wcs[:]); n != len(wcs) {
				t.Fatalf("reaped %d, want %d", n, len(wcs))
			}
		}
		for i := 0; i < 16; i++ {
			step() // the backing array reaches its steady size
		}
		grown := cap(cq.entries)
		if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
			t.Errorf("backlog %d: push/poll allocates %.1f times per round", backlog, allocs)
		}
		if cap(cq.entries) != grown || cq.Depth() != backlog {
			t.Errorf("backlog %d: capacity %d -> %d, depth %d", backlog, grown, cap(cq.entries), cq.Depth())
		}
	}
}

// The queue's array outlives the completions reaped from it, so a reaped slot
// must not go on referencing a RECV payload or a failed verb's status.
func TestPollClearsReapedSlots(t *testing.T) {
	_, a, b := newTestFabric(t)
	qpA, qpB, cqA, cqB := connectedQP(t, a, b)
	qpB.PostRecv(1, 64)
	if _, err := qpA.Send(1, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := qpA.Send(2, []byte("no receive posted")); err == nil {
		t.Fatal("send without a posted receive should fail")
	}
	var wcs [4]WorkCompletion
	if n := cqB.Poll(wcs[:]); n != 1 || string(wcs[0].Payload) != "payload" {
		t.Fatalf("receiver reaped %d: %+v", n, wcs[:n])
	}
	if n := cqA.Poll(wcs[:]); n != 2 || wcs[1].Status == nil {
		t.Fatalf("sender reaped %d: %+v", n, wcs[:n])
	}
	for _, cq := range []*CompletionQueue{cqA, cqB} {
		for i, slot := range cq.entries[:cap(cq.entries)] {
			if slot.Payload != nil || slot.Status != nil {
				t.Errorf("slot %d still references %+v after it was reaped", i, slot)
			}
		}
	}
}

// Property: data written through the fabric is always read back identically,
// for arbitrary payloads and offsets within bounds.
func TestPropertyWriteReadRoundTrip(t *testing.T) {
	f := NewFabric(DefaultCostModel())
	a, _ := f.AttachDevice("a")
	b, _ := f.AttachDevice("b")
	cq := NewCompletionQueue()
	qp := a.CreateQueuePair(cq)
	qpB := b.CreateQueuePair(NewCompletionQueue())
	if err := Connect(qp, qpB); err != nil {
		t.Fatal(err)
	}
	const regionSize = 1 << 16
	mr, _ := b.RegisterMemory(regionSize, AccessFlags{RemoteRead: true, RemoteWrite: true})

	prop := func(data []byte, off uint16) bool {
		if len(data) == 0 {
			return true
		}
		offset := int(off) % (regionSize - len(data))
		if offset < 0 {
			offset = 0
		}
		if _, err := qp.Write(1, data, mr.RKey(), offset); err != nil {
			return false
		}
		back := make([]byte, len(data))
		if _, err := qp.Read(2, back, mr.RKey(), offset, len(data)); err != nil {
			return false
		}
		return bytes.Equal(data, back)
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the simulated transfer time is monotonically non-decreasing in
// payload size.
func TestPropertyTransferMonotonic(t *testing.T) {
	m := DefaultCostModel()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.TransferNs(m.OneSidedLatencyNs, x) <= m.TransferNs(m.OneSidedLatencyNs, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestResidentBytesFollowsWrites pins what a registered region costs the
// host: nothing until a verb writes into it, then the 64 KiB chunks the write
// touched, and nothing again once the region is deregistered. Reads and
// refused writes materialise nothing.
func TestResidentBytesFollowsWrites(t *testing.T) {
	const chunk = 64 << 10
	f, a, b := newTestFabric(t)
	qp, _, _, _ := connectedQP(t, a, b)
	big, err := b.RegisterMemory(1<<30, AccessFlags{RemoteRead: true, RemoteWrite: true})
	if err != nil {
		t.Fatal(err)
	}
	small, err := b.RegisterMemory(256, AccessFlags{RemoteRead: true, RemoteWrite: true})
	if err != nil {
		t.Fatal(err)
	}
	want := func(n int64, when string) {
		t.Helper()
		if got := f.ResidentBytes(); got != n {
			t.Fatalf("ResidentBytes() = %d %s, want %d", got, when, n)
		}
	}
	want(0, "after registering 1 GiB")
	buf := make([]byte, 4096)
	if _, err := qp.Read(1, buf, big.RKey(), 512<<20, len(buf)); err != nil {
		t.Fatal(err)
	}
	if _, err := qp.Write(2, buf, big.RKey(), 1<<30-100); err == nil {
		t.Fatal("write past the region's end was accepted")
	}
	want(0, "after a read and a refused write")
	if _, err := qp.Write(3, buf, big.RKey(), 3*chunk-1); err != nil { // straddles two chunks
		t.Fatal(err)
	}
	want(2*chunk, "after a write straddling a chunk boundary")
	if _, err := qp.Write(4, buf[:16], small.RKey(), 0); err != nil {
		t.Fatal(err)
	}
	want(2*chunk+256, "after a write into a 256-byte region")
	if _, err := qp.Write(5, buf, big.RKey(), 3*chunk); err != nil { // already materialised
		t.Fatal(err)
	}
	want(2*chunk+256, "after rewriting materialised chunks")
	b.DeregisterMemory(big)
	b.DeregisterMemory(big) // a second deregister must not subtract twice
	want(256, "after deregistering the big region")
	f.DetachDevice(b.Name())
	want(0, "after detaching the device")
}

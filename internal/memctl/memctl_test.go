package memctl

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/rdma"
)

const testBufSize = 1 << 20 // 1 MiB buffers keep tests fast

// testRack wires a controller, a fabric and a few agents together.
type testRack struct {
	ctr     *GlobalController
	sec     *SecondaryController
	fabric  *rdma.Fabric
	devices map[ServerID]*rdma.Device
	agents  map[ServerID]*Agent
}

func newTestRack(t *testing.T, servers ...ServerID) *testRack {
	t.Helper()
	r := &testRack{
		sec:     NewSecondaryController(),
		fabric:  rdma.NewFabric(rdma.DefaultCostModel()),
		devices: make(map[ServerID]*rdma.Device),
		agents:  make(map[ServerID]*Agent),
	}
	r.ctr = NewGlobalController(WithBufferSize(testBufSize), WithMirror(r.sec))
	for _, id := range servers {
		dev, err := r.fabric.AttachDevice(string(id))
		if err != nil {
			t.Fatal(err)
		}
		r.devices[id] = dev
	}
	resolve := func(id ServerID) *rdma.Device { return r.devices[id] }
	for _, id := range servers {
		a, err := NewAgent(AgentConfig{
			ID:            id,
			Controller:    r.ctr,
			Device:        r.devices[id],
			TotalMem:      16 * testBufSize,
			ReservedMem:   4 * testBufSize,
			ResolveDevice: resolve,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.agents[id] = a
	}
	return r
}

func TestBuffersFor(t *testing.T) {
	cases := []struct {
		mem, buf int64
		want     int
	}{
		{0, 100, 0},
		{1, 100, 1},
		{100, 100, 1},
		{101, 100, 2},
		{1000, 100, 10},
		{-5, 100, 0},
		{100, 0, 0},
	}
	for _, c := range cases {
		if got := buffersFor(c.mem, c.buf); got != c.want {
			t.Errorf("buffersFor(%d,%d) = %d, want %d", c.mem, c.buf, got, c.want)
		}
	}
}

func TestRegisterServerValidation(t *testing.T) {
	g := NewGlobalController()
	if err := g.RegisterServer("a", 0, nil, nil); err == nil {
		t.Error("zero memory should be rejected")
	}
	if err := g.RegisterServer("a", 1<<30, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterServer("a", 1<<30, nil, nil); err == nil {
		t.Error("duplicate registration should be rejected")
	}
	if _, err := g.Role("missing"); !errors.Is(err, ErrUnknownServer) {
		t.Error("unknown server role lookup should fail")
	}
	role, err := g.Role("a")
	if err != nil || role != RoleActive {
		t.Errorf("new server role = %v (%v), want active", role, err)
	}
	if len(g.Servers()) != 1 {
		t.Error("Servers() should list the registered server")
	}
}

func TestGotoZombieAndAllocation(t *testing.T) {
	r := newTestRack(t, "server-A", "server-B", "server-C")

	// server-C becomes a zombie, lending its 12 MiB of free memory.
	n, err := r.agents["server-C"].DelegateAndGoZombie()
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Fatalf("zombie lent %d buffers, want 12", n)
	}
	if role, _ := r.ctr.Role("server-C"); role != RoleZombie {
		t.Errorf("server-C role = %v, want zombie", role)
	}
	if got := r.ctr.FreeMemory(); got != 12*testBufSize {
		t.Errorf("free memory = %d, want %d", got, 12*testBufSize)
	}
	if zs := r.ctr.Zombies(); len(zs) != 1 || zs[0] != "server-C" {
		t.Errorf("zombies = %v", zs)
	}

	// server-A requests a guaranteed RAM Extension of 4 MiB.
	handles, err := r.agents["server-A"].RequestExt(4 * testBufSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != 4 {
		t.Fatalf("allocated %d buffers, want 4", len(handles))
	}
	for _, h := range handles {
		if h.Host != "server-C" {
			t.Errorf("buffer %d served by %s, want the zombie server", h.ID, h.Host)
		}
		if h.Type != ZombieBuffer {
			t.Errorf("buffer %d type = %v, want zombie", h.ID, h.Type)
		}
	}
	if r.agents["server-A"].UsedBuffers() != 4 {
		t.Error("agent should track 4 used buffers")
	}
	if err := r.ctr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := r.ctr.Stats()
	if st.GotoZombieCalls != 1 || st.AllocExtCalls != 1 || st.BuffersLent != 4 {
		t.Errorf("unexpected stats %+v", st)
	}
}

func TestRemoteBufferReadWrite(t *testing.T) {
	r := newTestRack(t, "user", "zombie")
	if _, err := r.agents["zombie"].DelegateAndGoZombie(); err != nil {
		t.Fatal(err)
	}
	// The zombie host's NIC initiator goes down but keeps serving (the rack
	// manager does this on Sz entry).
	r.devices["zombie"].SetUp(false)
	r.devices["zombie"].SetServing(true)

	handles, err := r.agents["user"].RequestExt(2 * testBufSize)
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{0xAB}, 4096)
	lat, err := handles[0].WriteRemote(8192, page)
	if err != nil {
		t.Fatalf("WriteRemote: %v", err)
	}
	if lat <= 0 {
		t.Error("remote write latency should be positive")
	}
	back := make([]byte, 4096)
	if _, err := handles[0].ReadRemote(8192, back); err != nil {
		t.Fatalf("ReadRemote: %v", err)
	}
	if !bytes.Equal(page, back) {
		t.Fatal("remote page corrupted")
	}
	// Bounds are enforced.
	if _, err := handles[0].WriteRemote(testBufSize-1, page); err == nil {
		t.Error("out-of-bounds remote write should fail")
	}
	if _, err := handles[0].ReadRemote(-1, back); err == nil {
		t.Error("negative offset read should fail")
	}
	// Every remote write is mirrored locally for fault tolerance.
	if r.agents["user"].MirrorWrites() == 0 {
		t.Error("remote writes must be mirrored to local storage")
	}
}

// A remote op leaves nothing on the agent's completion queue, whether the verb
// succeeded or failed: the agent lives as long as its server, so anything left
// per op is a leak.
func TestRemoteOpsLeaveNoCompletions(t *testing.T) {
	r := newTestRack(t, "user", "zombie")
	if _, err := r.agents["zombie"].DelegateAndGoZombie(); err != nil {
		t.Fatal(err)
	}
	r.devices["zombie"].SetUp(false)
	user := r.agents["user"]
	handles, err := user.RequestExt(testBufSize)
	if err != nil {
		t.Fatal(err)
	}
	h, page := handles[0], make([]byte, 4096)
	roundTrip := func() (failed int) {
		for i := int64(0); i < 32; i++ {
			if _, err := h.WriteRemote(i*4096, page); err != nil {
				failed++
			}
			if _, err := h.ReadRemote(i*4096, page); err != nil {
				failed++
			}
		}
		return failed
	}
	if failed := roundTrip(); failed != 0 {
		t.Fatalf("%d ops failed against a serving zombie", failed)
	}
	r.devices["zombie"].SetServing(false) // the lender dropped to S3
	if failed := roundTrip(); failed != 64 {
		t.Fatalf("%d ops failed against a host that is not serving, want 64", failed)
	}
	r.devices["zombie"].SetServing(true)
	r.devices["user"].SetUp(false) // the initiator's own NIC is down
	if failed := roundTrip(); failed != 64 {
		t.Fatalf("%d ops failed on a down device, want 64", failed)
	}
	if st := r.fabric.Stats(); st.Writes != 32 || st.Reads != 32 || st.FailedOps != 128 {
		t.Errorf("fabric stats %+v, want 32 writes, 32 reads, 128 failed ops", st)
	}
	if depth := user.cq.Depth(); depth != 0 {
		t.Errorf("%d completions left on the agent's queue", depth)
	}
}

func TestZombieMemoryPriority(t *testing.T) {
	r := newTestRack(t, "user", "zombie", "active-server")
	// The active server lends 4 buffers while staying active; the zombie
	// lends 12.
	if _, err := r.agents["active-server"].DelegateWhileActive(8 * testBufSize); err != nil {
		t.Fatal(err)
	}
	if _, err := r.agents["zombie"].DelegateAndGoZombie(); err != nil {
		t.Fatal(err)
	}
	// A 6-buffer allocation must be served from zombie memory first.
	handles, err := r.agents["user"].RequestExt(6 * testBufSize)
	if err != nil {
		t.Fatal(err)
	}
	zombieCount := 0
	for _, h := range handles {
		if h.Host == "zombie" {
			zombieCount++
		}
	}
	if zombieCount != 6 {
		t.Errorf("only %d of 6 buffers came from the zombie server", zombieCount)
	}
}

func TestAllocSwapBestEffort(t *testing.T) {
	r := newTestRack(t, "user", "zombie")
	if _, err := r.agents["zombie"].DelegateAndGoZombie(); err != nil {
		t.Fatal(err)
	}
	// Ask for far more swap than the rack can provide: best effort returns
	// what exists without failing.
	handles, err := r.agents["user"].RequestSwap(100 * testBufSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) == 0 || len(handles) > 12 {
		t.Fatalf("swap allocation returned %d buffers, want 1..12", len(handles))
	}
	// A guaranteed ext allocation of the same size must fail instead.
	if _, err := r.agents["user"].RequestExt(100 * testBufSize); err == nil {
		t.Fatal("oversized guaranteed allocation should fail")
	}
}

func TestReclaimPrefersUnallocatedBuffers(t *testing.T) {
	r := newTestRack(t, "user", "zombie")
	if _, err := r.agents["zombie"].DelegateAndGoZombie(); err != nil {
		t.Fatal(err)
	}
	// user takes 4 of the 12 buffers.
	if _, err := r.agents["user"].RequestExt(4 * testBufSize); err != nil {
		t.Fatal(err)
	}
	// The zombie wakes and reclaims 8 buffers: all must come from the free
	// pool, so the user agent sees no reclaim notification.
	n, err := r.agents["zombie"].WakeAndReclaim(8)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("reclaimed %d, want 8", n)
	}
	if r.agents["user"].ReclaimsSeen() != 0 {
		t.Error("no user reclaim should have been needed")
	}
	if role, _ := r.ctr.Role("zombie"); role != RoleActive {
		t.Error("server should be active after reclaiming")
	}
	if err := r.ctr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReclaimNotifiesUsers(t *testing.T) {
	r := newTestRack(t, "user", "zombie")
	if _, err := r.agents["zombie"].DelegateAndGoZombie(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.agents["user"].RequestExt(10 * testBufSize); err != nil {
		t.Fatal(err)
	}
	before := r.agents["user"].UsedBuffers()
	// Reclaim everything: 2 free buffers are not enough, so 8 allocated ones
	// must be taken back from the user.
	n, err := r.agents["zombie"].WakeAndReclaim(-1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Fatalf("reclaimed %d, want 12", n)
	}
	if r.agents["user"].ReclaimsSeen() == 0 {
		t.Error("user agent should have been notified")
	}
	if after := r.agents["user"].UsedBuffers(); after >= before {
		t.Errorf("user buffers should shrink, before=%d after=%d", before, after)
	}
	if err := r.ctr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseBuffers(t *testing.T) {
	r := newTestRack(t, "user", "zombie")
	if _, err := r.agents["zombie"].DelegateAndGoZombie(); err != nil {
		t.Fatal(err)
	}
	handles, err := r.agents["user"].RequestExt(3 * testBufSize)
	if err != nil {
		t.Fatal(err)
	}
	freeBefore := r.ctr.FreeMemory()
	if err := r.agents["user"].ReleaseBuffers(handles); err != nil {
		t.Fatal(err)
	}
	if got := r.ctr.FreeMemory(); got != freeBefore+3*testBufSize {
		t.Errorf("free memory after release = %d, want %d", got, freeBefore+3*testBufSize)
	}
	if r.agents["user"].UsedBuffers() != 0 {
		t.Error("agent should no longer track released buffers")
	}
	// Releasing someone else's buffer is rejected.
	other, _ := r.agents["user"].RequestExt(testBufSize)
	if err := r.ctr.Release("zombie", []BufferID{other[0].ID}); err == nil {
		t.Error("releasing a buffer owned by another server must fail")
	}
}

func TestLRUZombie(t *testing.T) {
	r := newTestRack(t, "user", "z1", "z2")
	if _, err := r.agents["z1"].DelegateAndGoZombie(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.agents["z2"].DelegateAndGoZombie(); err != nil {
		t.Fatal(err)
	}
	// Allocate enough to consume all of z1 and part of z2 (allocation is by
	// ascending buffer ID, so z1's buffers go first).
	if _, err := r.agents["user"].RequestExt(14 * testBufSize); err != nil {
		t.Fatal(err)
	}
	lru, err := r.ctr.LRUZombie()
	if err != nil {
		t.Fatal(err)
	}
	if lru != "z2" {
		t.Errorf("LRU zombie = %s, want z2 (fewest allocated buffers)", lru)
	}
	// Wake both; no zombie remains.
	if _, err := r.agents["z1"].WakeAndReclaim(-1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.agents["z2"].WakeAndReclaim(-1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ctr.LRUZombie(); !errors.Is(err, ErrNoZombie) {
		t.Errorf("expected ErrNoZombie, got %v", err)
	}
}

func TestScavengeActiveServers(t *testing.T) {
	r := newTestRack(t, "user", "helper")
	// No zombie at all: a guaranteed allocation triggers AS_get_free_mem on
	// the active helper, which offers half of its 12 MiB free memory.
	handles, err := r.agents["user"].RequestExt(4 * testBufSize)
	if err != nil {
		t.Fatalf("guaranteed allocation should scavenge active servers: %v", err)
	}
	if len(handles) != 4 {
		t.Fatalf("got %d buffers, want 4", len(handles))
	}
	for _, h := range handles {
		if h.Type != ActiveBuffer {
			t.Errorf("buffer type = %v, want active", h.Type)
		}
	}
}

func TestMirroringAndFailover(t *testing.T) {
	r := newTestRack(t, "user", "zombie")
	if _, err := r.agents["zombie"].DelegateAndGoZombie(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.agents["user"].RequestExt(2 * testBufSize); err != nil {
		t.Fatal(err)
	}
	if r.sec.Operations() == 0 {
		t.Fatal("secondary should have mirrored operations")
	}
	if r.sec.LastSeq() == 0 {
		t.Error("sequence numbers should advance")
	}

	// Heartbeats keep the secondary passive.
	r.sec.Heartbeat(0)
	if r.sec.Tick(1_000_000_000) {
		t.Fatal("secondary must not promote while heartbeats are fresh")
	}
	// Silence beyond the timeout promotes it.
	if !r.sec.Tick(10_000_000_000) {
		t.Fatal("secondary should promote after missed heartbeats")
	}
	if !r.sec.Promoted() {
		t.Error("Promoted() should report true")
	}

	// The rebuilt controller knows the servers and the zombie's lent memory.
	rebuilt := r.sec.Rebuild(WithBufferSize(testBufSize))
	if len(rebuilt.Servers()) != 2 {
		t.Errorf("rebuilt controller has %d servers, want 2", len(rebuilt.Servers()))
	}
	if role, _ := rebuilt.Role("zombie"); role != RoleZombie {
		t.Errorf("rebuilt role of zombie = %v, want zombie", role)
	}
	if rebuilt.FreeMemory() == 0 {
		t.Error("rebuilt controller should know about the lent memory")
	}
	if err := rebuilt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnregisterServerReclaimsBuffers(t *testing.T) {
	r := newTestRack(t, "user", "zombie")
	if _, err := r.agents["zombie"].DelegateAndGoZombie(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.agents["user"].RequestExt(3 * testBufSize); err != nil {
		t.Fatal(err)
	}
	if err := r.ctr.UnregisterServer("zombie"); err != nil {
		t.Fatal(err)
	}
	if r.agents["user"].ReclaimsSeen() == 0 {
		t.Error("user should be notified when the serving host disappears")
	}
	if r.ctr.FreeMemory() != 0 {
		t.Error("no free memory should remain after the only zombie left")
	}
	if err := r.ctr.UnregisterServer("zombie"); !errors.Is(err, ErrUnknownServer) {
		t.Error("double unregister should fail")
	}
	if err := r.ctr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAgentConfigValidation(t *testing.T) {
	ctr := NewGlobalController()
	if _, err := NewAgent(AgentConfig{ID: "x", Controller: nil, TotalMem: 1}); err == nil {
		t.Error("nil controller should be rejected")
	}
	if _, err := NewAgent(AgentConfig{ID: "x", Controller: ctr, TotalMem: 0}); err == nil {
		t.Error("zero memory should be rejected")
	}
	if _, err := NewAgent(AgentConfig{ID: "x", Controller: ctr, TotalMem: 100, ReservedMem: 200}); err == nil {
		t.Error("reserved > total should be rejected")
	}
	a, err := NewAgent(AgentConfig{ID: "x", Controller: ctr, TotalMem: 100, ReservedMem: 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.FreeMemory() != 90 {
		t.Errorf("free memory = %d, want 90", a.FreeMemory())
	}
	if err := a.SetReservedMemory(200); err == nil {
		t.Error("oversized reservation should be rejected")
	}
	if err := a.SetReservedMemory(50); err != nil {
		t.Fatal(err)
	}
	if a.FreeMemory() != 50 {
		t.Errorf("free memory after reservation change = %d, want 50", a.FreeMemory())
	}
}

// Property: after any sequence of delegate / allocate / release / reclaim
// operations the buffer database invariants hold and no memory is ever
// double-allocated.
func TestPropertyBufferDatabaseInvariants(t *testing.T) {
	prop := func(ops, sizes []uint8) bool {
		ctr := NewGlobalController(WithBufferSize(testBufSize))
		_ = ctr.RegisterServer("host", 64*testBufSize, nil, nil)
		_ = ctr.RegisterServer("user", 64*testBufSize, nil, nil)
		var allocated []BufferID
		for i, op := range ops {
			size := uint8(3)
			if i < len(sizes) {
				size = sizes[i]
			}
			switch op % 4 {
			case 0:
				specs := make([]BufferSpec, int(size%8))
				for j := range specs {
					specs[j] = BufferSpec{Offset: int64(j) * testBufSize, Size: testBufSize}
				}
				_, _ = ctr.GotoZombie("host", specs)
			case 1:
				bufs, _ := ctr.AllocSwap("user", int64(size%16)*testBufSize)
				for _, b := range bufs {
					allocated = append(allocated, b.ID)
				}
			case 2:
				if len(allocated) > 0 {
					n := int(size) % len(allocated)
					_ = ctr.Release("user", allocated[:n])
					allocated = allocated[n:]
				}
			case 3:
				_, _ = ctr.Reclaim("host", int(size%8))
				allocated = nil // conservative: some may have been reclaimed
			}
			if err := ctr.CheckInvariants(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: free memory never exceeds the total memory delegated to the
// controller.
func TestPropertyFreeMemoryBounded(t *testing.T) {
	prop := func(lend, take uint8) bool {
		ctr := NewGlobalController(WithBufferSize(testBufSize))
		_ = ctr.RegisterServer("z", 1<<40, nil, nil)
		_ = ctr.RegisterServer("u", 1<<40, nil, nil)
		specs := make([]BufferSpec, int(lend%32))
		for i := range specs {
			specs[i] = BufferSpec{Offset: int64(i) * testBufSize, Size: testBufSize}
		}
		_, _ = ctr.GotoZombie("z", specs)
		total := int64(len(specs)) * testBufSize
		_, _ = ctr.AllocSwap("u", int64(take)*testBufSize)
		free := ctr.FreeMemory()
		return free >= 0 && free <= total
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestBufferTypeString(t *testing.T) {
	if ZombieBuffer.String() != "zombie" || ActiveBuffer.String() != "active" {
		t.Error("buffer type names wrong")
	}
	if RoleActive.String() != "active" || RoleZombie.String() != "zombie" || RoleDown.String() != "down" {
		t.Error("role names wrong")
	}
}

func TestTransferBuffers(t *testing.T) {
	r := newTestRack(t, "user-a", "user-b", "zombie")
	if _, err := r.agents["zombie"].DelegateAndGoZombie(); err != nil {
		t.Fatal(err)
	}
	handles, err := r.agents["user-a"].RequestExt(4 * testBufSize)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]BufferID, len(handles))
	for i, h := range handles {
		ids[i] = h.ID
	}

	// Transfer ownership to user-b (the migration ownership-pointer update).
	if err := r.ctr.TransferBuffers("user-a", "user-b", ids); err != nil {
		t.Fatal(err)
	}
	if got := len(r.ctr.BuffersOf("user-b")); got != 4 {
		t.Errorf("user-b owns %d buffers, want 4", got)
	}
	if got := len(r.ctr.BuffersOf("user-a")); got != 0 {
		t.Errorf("user-a still owns %d buffers", got)
	}
	if err := r.ctr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Error paths: unknown destination, wrong current owner, unknown buffer.
	if err := r.ctr.TransferBuffers("user-b", "ghost", ids); !errors.Is(err, ErrUnknownServer) {
		t.Errorf("transfer to unknown server: %v", err)
	}
	if err := r.ctr.TransferBuffers("user-a", "user-b", ids); err == nil {
		t.Error("transfer from the wrong owner should fail")
	}
	if err := r.ctr.TransferBuffers("user-b", "user-a", []BufferID{9999}); err == nil {
		t.Error("transfer of an unknown buffer should fail")
	}
	// Failed transfers must not have moved anything.
	if got := len(r.ctr.BuffersOf("user-b")); got != 4 {
		t.Errorf("failed transfers must be atomic, user-b owns %d", got)
	}
}

package memplane

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/memctl"
	"repro/internal/pagepolicy"
)

func TestPlaneLocalFastPath(t *testing.T) {
	p, err := New(Config{VM: "vm", AddressBytes: testSpan, LocalBytes: 4 * DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, DefaultPageSize)
	fillPattern(src, 0, 1)
	n, ns, err := p.Write(0, src)
	if err != nil || n != len(src) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	if ns != DefaultLocalNs {
		t.Fatalf("local write charged %d, want %d", ns, DefaultLocalNs)
	}
	dst := make([]byte, DefaultPageSize)
	if _, _, err := p.Read(0, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("local read-back mismatch")
	}
	st := p.Stats()
	if st.RemoteOps != 0 || st.LocalOps != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if as := p.AllocStats(); as.LocalFrames != 1 || as.RemoteFrames != 0 {
		t.Fatalf("alloc stats: %+v", as)
	}
}

func TestPlaneZeroFillAndUnalignedSpans(t *testing.T) {
	p, err := New(Config{VM: "vm", AddressBytes: testSpan, LocalBytes: 8 * DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	// A read of untouched memory returns zeros without allocating frames.
	dst := make([]byte, 3*DefaultPageSize)
	dst[0] = 0xFF
	if n, _, err := p.Read(DefaultPageSize/2, dst); err != nil || n != len(dst) {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	for i, b := range dst {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
	if as := p.AllocStats(); as.LocalFrames != 0 {
		t.Fatalf("zero-fill read allocated %d frames", as.LocalFrames)
	}
	// An unaligned write spanning two pages reads back exactly.
	src := make([]byte, DefaultPageSize)
	fillPattern(src, 0, 9)
	addr := DefaultPageSize + DefaultPageSize/2
	if _, _, err := p.Write(addr, src); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(src))
	if _, _, err := p.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, got) {
		t.Fatal("unaligned read-back mismatch")
	}
}

// TestPlaneBytesTraverseZombieBuffer is the acceptance check of the data
// plane: a workload's bytes verifiably land in (and come back out of) a
// buffer granted from a server suspended in Sz.
func TestPlaneBytesTraverseZombieBuffer(t *testing.T) {
	names := []string{"user-00", "zombie-01"}
	r := newRig(t, names, []string{"zombie-01"})
	p, err := New(Config{
		VM:           "vm",
		AddressBytes: testSpan,
		LocalBytes:   DefaultPageSize, // one local page, everything else overflows
		Agent:        r.user(t, names),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The zombie's posture: NIC down (cannot initiate) but memory serving.
	if r.devices["zombie-01"].Up() || !r.devices["zombie-01"].Serving() {
		t.Fatal("zombie device posture wrong")
	}
	// Write past the local arena so pages overflow to granted frames.
	pages := int64(6)
	for pg := int64(0); pg < pages; pg++ {
		src := make([]byte, DefaultPageSize)
		fillPattern(src, pg*DefaultPageSize, 3)
		if _, _, err := p.Write(pg*DefaultPageSize, src); err != nil {
			t.Fatalf("write page %d: %v", pg, err)
		}
	}
	// The overflow frames must be hosted by the zombie.
	if got := p.Table().PagesOn("zombie-01"); len(got) != int(pages)-1 {
		t.Fatalf("zombie hosts %d pages, want %d", len(got), pages-1)
	}
	// Read-back equals written data through the remote path.
	for pg := int64(0); pg < pages; pg++ {
		want := make([]byte, DefaultPageSize)
		fillPattern(want, pg*DefaultPageSize, 3)
		got := make([]byte, DefaultPageSize)
		if _, _, err := p.Read(pg*DefaultPageSize, got); err != nil {
			t.Fatalf("read page %d: %v", pg, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("page %d read-back mismatch", pg)
		}
	}
	// The fabric really moved the bytes.
	fs := r.fabric.Stats()
	wantRemote := uint64(pages-1) * uint64(DefaultPageSize)
	if fs.BytesWritten != wantRemote || fs.BytesRead != wantRemote {
		t.Fatalf("fabric moved w=%d r=%d bytes, want %d each", fs.BytesWritten, fs.BytesRead, wantRemote)
	}
	st := p.Stats()
	if st.RemoteBytesWritten != wantRemote || st.RemoteBytesRead != wantRemote {
		t.Fatalf("plane remote bytes w=%d r=%d, want %d", st.RemoteBytesWritten, st.RemoteBytesRead, wantRemote)
	}
	// The remote charge matches the rdma cost model exactly.
	model := r.fabric.Model()
	perOp := model.TransferNs(model.OneSidedLatencyNs, int(DefaultPageSize))
	if want := perOp * 2 * (pages - 1); st.RemoteNs != want {
		t.Fatalf("remote charge %d, want %d", st.RemoteNs, want)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if used := r.user(t, names).UsedBuffers(); used != 0 {
		t.Fatalf("%d buffers still held after Close", used)
	}
}

// TestResidentBytesIsTheArena: a remote page's only copy lives in its rdma
// region, which the fabric counts, so the plane's resident count is its local
// arena's and nothing more.
func TestResidentBytesIsTheArena(t *testing.T) {
	names := []string{"user-00", "zombie-01"}
	r := newRig(t, names, []string{"zombie-01"})
	p, err := New(Config{VM: "vm", AddressBytes: testSpan, LocalBytes: DefaultPageSize, Agent: r.user(t, names)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const pages = 6
	src := make([]byte, pages*DefaultPageSize)
	fillPattern(src, 0, 4)
	if _, _, err := p.Write(0, src); err != nil {
		t.Fatal(err)
	}
	if got := p.Table().PagesOn("zombie-01"); len(got) != pages-1 {
		t.Fatalf("zombie hosts %d pages, want %d", len(got), pages-1)
	}
	if got, want := p.ResidentBytes(), p.alloc.arena.Resident(); got != want || got != DefaultPageSize {
		t.Fatalf("ResidentBytes() = %d, want the arena's %d (one page)", got, want)
	}
	if got, want := r.fabric.ResidentBytes(), int64(pages-1)*DefaultPageSize; got < want {
		t.Fatalf("fabric ResidentBytes() = %d after %d remote pages, want >= %d", got, pages-1, want)
	}
}

// A plane that keeps rewriting and rereading the remote pages it already has
// retains nothing per op: no layer under it (transport, memctl handle, rdma
// verb, completion queue) may grow with the number of ops served.
func TestPlaneSteadyStateRemoteOpsAllocateNothing(t *testing.T) {
	names := []string{"user-00", "zombie-01"}
	r := newRig(t, names, []string{"zombie-01"})
	p, err := New(Config{
		VM:           "vm",
		AddressBytes: testSpan,
		LocalBytes:   DefaultPageSize,
		Agent:        r.user(t, names),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const pages = 8
	buf := make([]byte, DefaultPageSize)
	if _, _, err := p.Write(0, buf); err != nil { // page 0 takes the local frame
		t.Fatal(err)
	}
	pass := func(ops int) {
		for i := 0; i < ops; i++ {
			addr := int64(1+i%(pages-1)) * DefaultPageSize
			var err error
			if i%2 == 0 {
				_, _, err = p.Write(addr, buf)
			} else {
				_, _, err = p.Read(addr, buf)
			}
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	pass(4 * pages) // pages 1..7 get their zombie frames
	var before, after runtime.MemStats
	warm := p.Stats().RemoteOps
	runtime.ReadMemStats(&before)
	const ops = 100_000
	pass(ops)
	runtime.ReadMemStats(&after)
	if remote := p.Stats().RemoteOps - warm; remote != ops {
		t.Fatalf("%d of %d ops went remote", remote, ops)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Errorf("%d remote page ops allocated %d bytes (%.1f per op), want < 64 KiB in all", ops, grew, float64(grew)/ops)
	}
}

func TestPlaneCrashSurfacesTimeoutsAndShortReads(t *testing.T) {
	names := []string{"user-00", "zombie-01"}
	r := newRig(t, names, []string{"zombie-01"})
	p, err := New(Config{
		VM:           "vm",
		AddressBytes: testSpan,
		LocalBytes:   DefaultPageSize,
		Agent:        r.user(t, names),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Page 0 local, page 1 remote.
	buf := make([]byte, 2*DefaultPageSize)
	fillPattern(buf, 0, 5)
	if _, _, err := p.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	p.CrashHost("zombie-01")
	// A spanning read completes the local page then times out: short read.
	dst := make([]byte, 2*DefaultPageSize)
	n, ns, err := p.Read(0, dst)
	if !errors.Is(err, ErrRemoteTimeout) {
		t.Fatalf("read err = %v, want ErrRemoteTimeout", err)
	}
	if n != int(DefaultPageSize) {
		t.Fatalf("short read returned %d bytes, want %d", n, DefaultPageSize)
	}
	if !bytes.Equal(dst[:n], buf[:n]) {
		t.Fatal("short read local prefix corrupted")
	}
	if want := DefaultLocalNs + DefaultTimeoutNs; ns != want {
		t.Fatalf("short read charged %d, want %d", ns, want)
	}
	// Writes to the crashed host time out too.
	if _, _, err := p.Write(DefaultPageSize, buf[:16]); !errors.Is(err, ErrRemoteTimeout) {
		t.Fatalf("write err = %v, want ErrRemoteTimeout", err)
	}
	st := p.Stats()
	if st.Timeouts != 2 || st.ShortReads != 1 {
		t.Fatalf("stats: timeouts=%d shortReads=%d", st.Timeouts, st.ShortReads)
	}
	// Revival restores service.
	p.ReviveHost("zombie-01")
	if _, _, err := p.Read(0, dst); err != nil {
		t.Fatalf("read after revive: %v", err)
	}
	if !bytes.Equal(dst, buf) {
		t.Fatal("read-back after revive mismatch")
	}
}

// TestPlaneFirstWriteOnCrashedHostMapsNothing: memctl re-grants a released
// buffer without scrubbing it, so a page whose first write timed out must not
// keep the frame it was handed, or a revive or a re-home would show it the
// previous tenant's bytes.
func TestPlaneFirstWriteOnCrashedHostMapsNothing(t *testing.T) {
	names := []string{"user-00", "zombie-01", "zombie-02"}
	r := newRig(t, names, names[1:])
	victim := memctl.ServerID("zombie-01")
	prev, err := New(Config{VM: "prev", AddressBytes: testSpan, Agent: r.user(t, names)})
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{0xAA}, int(4*DefaultPageSize))
	if _, _, err := prev.Write(0, old); err != nil {
		t.Fatal(err)
	}
	if n := len(prev.Table().PagesOn(victim)); n != 4 {
		t.Fatalf("previous tenant has %d pages on %s, want 4", n, victim)
	}
	if err := prev.Close(); err != nil {
		t.Fatal(err)
	}

	p, err := New(Config{VM: "vm", AddressBytes: testSpan, Agent: r.user(t, names)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	zeros := make([]byte, DefaultPageSize)
	got := make([]byte, DefaultPageSize)
	for _, via := range []string{"revive", "rehome"} {
		p.CrashHost(victim)
		if _, _, err := p.Write(0, []byte{1}); !errors.Is(err, ErrRemoteTimeout) {
			t.Fatalf("%s: first write on a crashed host: %v", via, err)
		}
		if n := p.Table().Len(); n != 0 {
			t.Fatalf("%s: a timed-out first write mapped %d pages", via, n)
		}
		if via == "revive" {
			p.ReviveHost(victim)
		} else if rep, err := p.Rehome(victim); err != nil || rep.Pages != 0 {
			t.Fatalf("rehome: %+v %v, want nothing to move", rep, err)
		}
		if _, _, err := p.Read(0, got); err != nil || !bytes.Equal(got, zeros) {
			t.Fatalf("%s: never-written page reads % x…, err %v; want zeros", via, got[:4], err)
		}
	}
}

func TestPlaneRehomeMigratesLivePages(t *testing.T) {
	names := []string{"user-00", "zombie-01", "zombie-02"}
	r := newRig(t, names, []string{"zombie-01", "zombie-02"})
	p, err := New(Config{
		VM:           "vm",
		AddressBytes: testSpan,
		LocalBytes:   DefaultPageSize,
		Agent:        r.user(t, names),
	})
	if err != nil {
		t.Fatal(err)
	}
	pages := int64(5)
	for pg := int64(0); pg < pages; pg++ {
		src := make([]byte, DefaultPageSize)
		fillPattern(src, pg*DefaultPageSize, 7)
		if _, _, err := p.Write(pg*DefaultPageSize, src); err != nil {
			t.Fatal(err)
		}
	}
	victim := memctl.ServerID("zombie-01")
	lost := p.Table().PagesOn(victim)
	if len(lost) == 0 {
		t.Fatal("victim hosts no pages; sizing is off")
	}
	p.CrashHost(victim)
	rep, err := p.Rehome(victim)
	if err != nil {
		t.Fatalf("rehome: %v", err)
	}
	if rep.Pages != len(lost) || rep.Bytes != int64(len(lost))*DefaultPageSize {
		t.Fatalf("rehome report %+v, want %d pages", rep, len(lost))
	}
	if rep.Ns <= 0 {
		t.Fatal("rehome charged nothing")
	}
	if after := p.Table().PagesOn(victim); len(after) != 0 {
		t.Fatalf("%d pages still on crashed host", len(after))
	}
	// Every byte survives the migration, host still crashed.
	for pg := int64(0); pg < pages; pg++ {
		want := make([]byte, DefaultPageSize)
		fillPattern(want, pg*DefaultPageSize, 7)
		got := make([]byte, DefaultPageSize)
		if _, _, err := p.Read(pg*DefaultPageSize, got); err != nil {
			t.Fatalf("read page %d after rehome: %v", pg, err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("page %d lost data in rehome", pg)
		}
	}
	st := p.Stats()
	if st.RehomedPages != uint64(len(lost)) {
		t.Fatalf("stats.RehomedPages = %d, want %d", st.RehomedPages, len(lost))
	}
	if err := p.Table().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPlaneAddressBounds(t *testing.T) {
	p, err := New(Config{VM: "vm", LocalBytes: DefaultPageSize, AddressBytes: 2 * DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, _, err := p.Write(2*DefaultPageSize-8, buf); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("out-of-bounds write: %v", err)
	}
	if _, _, err := p.Read(-1, buf); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("negative read: %v", err)
	}
	// addr+len wraps past MaxInt64: the bound must still reject it.
	near := int64(math.MaxInt64 - 10)
	big := make([]byte, 20)
	if n, _, err := p.Write(near, big); !errors.Is(err, ErrBadAddress) || n != 0 {
		t.Fatalf("wrapping write: n=%d err=%v", n, err)
	}
	if n, _, err := p.Read(near, big); !errors.Is(err, ErrBadAddress) || n != 0 {
		t.Fatalf("wrapping read: n=%d err=%v", n, err)
	}
	if m := p.Table().Len(); m != 0 {
		t.Fatalf("rejected ops mapped %d pages", m)
	}
}

// TestPageStoreBacksRAMExt proves the hypervisor consumer: RAM Ext paging
// demotes and promotes pages through the data plane's store adapter.
func TestPageStoreBacksRAMExt(t *testing.T) {
	names := []string{"user-00", "zombie-01"}
	r := newRig(t, names, []string{"zombie-01"})
	// A purely-remote plane: every store slot lives on the zombie.
	p, err := New(Config{
		VM:           "vm-store",
		AddressBytes: testSpan,
		Agent:        r.user(t, names),
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewPageStore(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	ram, err := hypervisor.NewRAMExt(hypervisor.Config{
		Pages:       16,
		LocalFrames: 4,
		Policy:      pagepolicy.NewMixed(pagepolicy.DefaultCost(), pagepolicy.DefaultMixedWindow),
		Remote:      store,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := ram.Access(i%16, i%3 == 0); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
	}
	if err := ram.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.RemoteOps == 0 {
		t.Fatal("paging never touched the data plane")
	}
	if fs := r.fabric.Stats(); fs.BytesWritten == 0 {
		t.Fatal("no bytes crossed the fabric")
	}
}

// TestLedgerTransportChargesMatchQP pins the ledger arithmetic to the queue
// pair implementation for a spread of sizes.
func TestLedgerTransportChargesMatchQP(t *testing.T) {
	names := []string{"user-00", "zombie-01"}
	r := newRig(t, names, []string{"zombie-01"})
	agent := r.user(t, names)
	bufs, err := agent.RequestExt(rigBufSize)
	if err != nil {
		t.Fatal(err)
	}
	ledger := LedgerTransport{Model: r.fabric.Model()}
	frame := Frame{Kind: FrameRemote, Host: bufs[0].Host, Buffer: bufs[0].ID, Offset: 0, rb: bufs[0]}
	for _, size := range []int{1, 16, 4096, 12000} {
		src := make([]byte, size)
		real, err := (InProcessTransport{}).WriteRemote(frame, 0, src)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		paper, err := ledger.WriteRemote(frame, 0, src)
		if err != nil {
			t.Fatal(err)
		}
		if real != paper {
			t.Fatalf("size %d: qp charged %d, ledger %d", size, real, paper)
		}
	}
}

// TestPlaneRequiresBacking pins constructor validation.
func TestPlaneRequiresBacking(t *testing.T) {
	if _, err := New(Config{VM: "vm", AddressBytes: testSpan}); err == nil {
		t.Fatal("plane with no arena, buffers or agent must be rejected")
	}
	if _, err := New(Config{LocalBytes: DefaultPageSize}); err == nil {
		t.Fatal("plane without a VM name must be rejected")
	}
	if _, err := New(Config{VM: "vm", AddressBytes: testSpan, LocalBytes: 100}); err == nil {
		t.Fatal("non-page-multiple local size must be rejected")
	}
	if _, err := New(Config{VM: "vm", LocalBytes: DefaultPageSize}); err == nil {
		t.Fatal("plane without an address space must be rejected")
	}
	if _, err := New(Config{VM: "vm", AddressBytes: 100, LocalBytes: DefaultPageSize}); err == nil {
		t.Fatal("non-page-multiple address space must be rejected")
	}
	if _, err := New(Config{VM: "vm", AddressBytes: testSpan, LocalBytes: DefaultPageSize, SeedOffset: 100}); err == nil {
		t.Fatal("non-page-multiple seed offset must be rejected")
	}
}

// TestPlaneCarvesSeedsPastSeedOffset: the rows of a seeded buffer below
// SeedOffset are someone else's, so no frame of the plane lands in them.
func TestPlaneCarvesSeedsPastSeedOffset(t *testing.T) {
	names := []string{"user-00", "zombie-01"}
	r := newRig(t, names, []string{"zombie-01"})
	bufs, err := r.user(t, names).RequestExt(2 * rigBufSize)
	if err != nil {
		t.Fatal(err)
	}
	const skip = 3 * DefaultPageSize // one frame left in each 4-page buffer
	p, err := New(Config{VM: "vm", AddressBytes: testSpan, Buffers: bufs, SeedOffset: skip})
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, DefaultPageSize)
	for pg := int64(0); pg < 2; pg++ {
		if _, _, err := p.Write(pg*DefaultPageSize, page); err != nil {
			t.Fatal(err)
		}
		if f, _ := p.Table().Lookup("vm", pg); f.Offset != skip {
			t.Fatalf("page %d on %s, want offset %d", pg, f, skip)
		}
	}
	if _, _, err := p.Write(2*DefaultPageSize, page); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("third page: %v, want ErrOutOfMemory", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPlaneClosedRejectsOps pins ErrClosed.
func TestPlaneClosedRejectsOps(t *testing.T) {
	p, err := New(Config{VM: "vm", AddressBytes: testSpan, LocalBytes: DefaultPageSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Write(0, []byte{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if _, _, err := p.Read(0, make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
}

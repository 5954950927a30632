package fleet

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memctl"
	"repro/internal/memplane"
	"repro/internal/rdma"
	"repro/internal/vm"
	"repro/internal/workload"
)

// dataFleet stands up a 1-rack fleet with two zombie lenders and one
// memory-hungry VM, returning the fleet and the VM's ID.
func dataFleet(t *testing.T) (*Fleet, string) {
	t.Helper()
	f, err := New(testConfig(1, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, server := range f.Rack(0).Servers()[1:] {
		if err := f.PushToZombie(0, server); err != nil {
			t.Fatal(err)
		}
	}
	spec := vm.New("vm-data", 1792<<20, 1536<<20)
	if _, err := f.PlaceVMs([]vm.VM{spec}, core.CreateVMOptions{}); err != nil {
		t.Fatal(err)
	}
	return f, spec.ID
}

// TestFleetDataTraffic proves RunWorkloads' DataBytes mode pushes real bytes
// through the data plane: the request's access stream lands as remote traffic
// in the plane's counters, and a direct write/read round-trip through the
// fleet handle returns the written bytes.
func TestFleetDataTraffic(t *testing.T) {
	f, vmID := dataFleet(t)
	guest, err := f.Rack(0).VM(vmID)
	if err != nil {
		t.Fatal(err)
	}
	if guest.Paging.LocalFrames() >= guest.Paging.Pages() {
		t.Fatal("test VM has no remote pages; enlarge the spec")
	}
	results := f.RunWorkloads([]WorkloadRequest{{
		VM:   vmID,
		Kind: workload.MicroBench,
		// Ten full passes over the span: enough distinct pages to overflow
		// the local arena (coverage ~1-e^-10 of the span) without the replay
		// dominating the suite's wall-clock under -race.
		Iterations: 10,
		Seed:       7,
		// Span the whole paging scale so the stream reaches past the local
		// frames into remote territory.
		DataBytes: int64(guest.Paging.Pages()) * 4096,
	}})
	if results[0].Err != "" {
		t.Fatalf("data replay failed: %s", results[0].Err)
	}
	data := results[0].Data
	if data.Writes == 0 || data.Reads == 0 {
		t.Fatalf("no traffic recorded: %+v", data)
	}
	if data.RemoteOps == 0 || data.RemoteBytesWritten == 0 {
		t.Fatalf("traffic never left the local arena: %+v", data)
	}
	if data.ChargedNs <= 0 {
		t.Fatalf("no charges booked: %+v", data)
	}

	// Direct round-trip through the fleet handle.
	p, err := f.MemplaneOf(vmID)
	if err != nil {
		t.Fatal(err)
	}
	src := []byte("zombie memory serves bytes")
	addr := int64(guest.Paging.Pages()-2) * p.PageSize() // past the local frames
	if _, _, err := p.Write(addr, src); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(src))
	if _, _, err := p.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("read %q, want %q", got, src)
	}
	// Destroying the VM closes the plane and releases its grants.
	if err := f.DestroyVM(vmID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Write(addr, src); !errors.Is(err, memplane.ErrClosed) {
		t.Fatalf("plane should be closed after DestroyVM, got %v", err)
	}
}

// TestFleetCrashRehomeData drives traffic, crashes a serving zombie, observes
// real timeouts, re-homes the memory and proves the bytes survived.
func TestFleetCrashRehomeData(t *testing.T) {
	f, vmID := dataFleet(t)
	p, err := f.MemplaneOf(vmID)
	if err != nil {
		t.Fatal(err)
	}
	// Fill more distinct pages than the plane has local frames: the overflow
	// forces remote grants, so the tail lands on the zombies.
	guest, err := f.Rack(0).VM(vmID)
	if err != nil {
		t.Fatal(err)
	}
	ps := p.PageSize()
	total := int64(guest.Paging.LocalFrames()) + 100
	if max := int64(guest.Paging.Pages()); total > max {
		t.Fatalf("paging scale too small: %d local frames of %d pages", guest.Paging.LocalFrames(), max)
	}
	buf := make([]byte, ps)
	for pg := int64(0); pg < total; pg++ {
		for i := range buf {
			buf[i] = byte(pg + int64(i)*5)
		}
		if _, _, err := p.Write(pg*ps, buf); err != nil {
			t.Fatalf("write page %d: %v", pg, err)
		}
	}
	// Find a server actually serving pages.
	var victim string
	for _, server := range f.Rack(0).Servers()[1:] {
		if len(p.Table().PagesOn(vmID, memctl.ServerID(server))) > 0 {
			victim = server
			break
		}
	}
	if victim == "" {
		t.Fatal("no zombie serves any page; the plane never went remote")
	}

	// Re-homing an alive server is refused.
	if _, err := f.RehomeServerMemory(0, victim); err == nil || !strings.Contains(err.Error(), "not crashed") {
		t.Fatalf("rehome before crash: got %v", err)
	}
	if err := f.CrashServer(0, victim); err != nil {
		t.Fatal(err)
	}
	// Traffic against the dead host times out for real.
	hurt := p.Table().PagesOn(vmID, memctl.ServerID(victim))[0]
	if _, _, err := p.Read(hurt*ps, buf); !errors.Is(err, memplane.ErrRemoteTimeout) {
		t.Fatalf("read of crashed host: got %v, want ErrRemoteTimeout", err)
	}
	rep, err := f.RehomeServerMemory(0, victim)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pages == 0 || rep.Bytes != int64(rep.Pages)*ps {
		t.Fatalf("rehome report %+v", rep)
	}
	if got := p.Table().PagesOn(vmID, memctl.ServerID(victim)); len(got) != 0 {
		t.Fatalf("%d pages still on the crashed host", len(got))
	}
	if err := f.ReviveServer(0, victim); err != nil {
		t.Fatal(err)
	}
	// Every page reads back exactly what was written before the crash.
	for pg := int64(0); pg < total; pg++ {
		want := make([]byte, ps)
		for i := range want {
			want[i] = byte(pg + int64(i)*5)
		}
		if _, _, err := p.Read(pg*ps, buf); err != nil {
			t.Fatalf("read page %d after rehome: %v", pg, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("page %d lost its contents across the migration", pg)
		}
	}
}

// TestFillPayloadMatchesFormula is the refactor oracle of the data-traffic
// payload: byte i of a page is byte(c + 3*i) for every page size, whether or
// not the size is a multiple of the 256-byte period, and for any c.
func TestFillPayloadMatchesFormula(t *testing.T) {
	for _, size := range []int{1, 255, 256, 257, 4096, 8192} {
		for _, c := range []int64{0, 1, 255, 256, 1000003, -1, -257, math.MaxInt64, math.MinInt64} {
			buf := bytes.Repeat([]byte{0xEE}, size) // stale bytes of a previous read
			fillPayload(buf, c)
			for i, got := range buf {
				if want := byte(c + 3*int64(i)); got != want {
					t.Fatalf("size %d c %d: byte %d = %#x, want %#x", size, c, i, got, want)
				}
			}
		}
	}
}

// lastWriters re-derives, from the documented stream, the seed of the last
// request that wrote each page.
func lastWriters(t *testing.T, writer map[int]int64, req WorkloadRequest, pages int) {
	t.Helper()
	stream, err := workload.NewStream(workload.ProfileOf(req.Kind), pages, req.Iterations, req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for a, ok := stream.Next(); ok; a, ok = stream.Next() {
		if a.Write {
			writer[a.Page] = req.Seed
		}
	}
}

// TestDataTrafficPayloadBytes pins what a DataBytes replay stores: a page
// holds byte(page + seed + 3*i) of the last request that wrote it, on local
// and on remote frames alike.
func TestDataTrafficPayloadBytes(t *testing.T) {
	f, vmID := dataFleet(t)
	guest, err := f.Rack(0).VM(vmID)
	if err != nil {
		t.Fatal(err)
	}
	pages := guest.Paging.Pages()
	reqs := []WorkloadRequest{
		{VM: vmID, Kind: workload.MicroBench, Iterations: 10, Seed: 7, DataBytes: int64(pages) * 4096},
		{VM: vmID, Kind: workload.DataCaching, Iterations: 1, Seed: -300, DataBytes: int64(pages) * 4096},
	}
	writer := make(map[int]int64)
	for _, req := range reqs {
		if res := f.RunWorkloads([]WorkloadRequest{req})[0]; res.Err != "" {
			t.Fatal(res.Err)
		}
		lastWriters(t, writer, req, pages)
	}
	p, err := f.MemplaneOf(vmID)
	if err != nil {
		t.Fatal(err)
	}
	ps := p.PageSize()
	got, want := make([]byte, ps), make([]byte, ps)
	seeds, kinds := map[int64]int{}, map[memplane.FrameKind]int{}
	for page, seed := range writer {
		if _, _, err := p.Read(int64(page)*ps, got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			want[i] = byte(int64(page) + 3*int64(i) + seed)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d (last written at seed %d) does not hold its payload", page, seed)
		}
		frame, ok := p.Table().Lookup(vmID, int64(page))
		if !ok {
			t.Fatalf("written page %d is not mapped", page)
		}
		seeds[seed]++
		kinds[frame.Kind]++
	}
	if len(p.Table().Pages(vmID)) != len(writer) {
		t.Fatalf("%d pages mapped, the streams wrote %d", len(p.Table().Pages(vmID)), len(writer))
	}
	if len(seeds) != 2 || kinds[memplane.FrameLocal] == 0 || kinds[memplane.FrameRemote] == 0 {
		t.Fatalf("coverage too thin: pages by last seed %v, by frame kind %v", seeds, kinds)
	}
}

// TestDataTrafficStatsAreStable drives a fixed sequence of 20 data requests
// and compares the plane's and the fabric's counters with the values the
// sequence produced before the payload and page-table rewrite (commit
// 0166bf7): the rewrite moves no byte, no op and no charged nanosecond.
func TestDataTrafficStatsAreStable(t *testing.T) {
	f, vmID := dataFleet(t)
	kinds := workload.AllKinds()
	var last WorkloadResult
	for i := 0; i < 20; i++ {
		last = f.RunWorkloads([]WorkloadRequest{{
			VM:         vmID,
			Kind:       kinds[i%len(kinds)],
			Iterations: 1 + i%2,
			Seed:       int64(100*i - 700),
			DataBytes:  int64(1+i%7) << 22, // 4..28 MiB: reaches past the local arena
		}})[0]
		if last.Err != "" {
			t.Fatalf("request %d: %s", i, last.Err)
		}
	}
	wantData := memplane.Stats{
		Reads: 292208, Writes: 92816, BytesRead: 292208 * 4096, BytesWritten: 92816 * 4096,
		LocalOps: 372763, RemoteOps: 12261, RemoteBytesRead: 7565 * 4096, RemoteBytesWritten: 4696 * 4096,
		ChargedNs: 72649285, LocalNs: 37276300, RemoteNs: 35372985, MirrorWrites: 4696,
	}
	if last.Data != wantData {
		t.Errorf("memplane.Stats moved:\n got  %+v\n want %+v", last.Data, wantData)
	}
	wantFabric := rdma.Stats{
		Reads: 7565, Writes: 4696, BytesRead: 7565 * 4096, BytesWritten: 4696 * 4096, SimulatedNs: 35372985,
	}
	if got := f.Rack(0).Fabric().Stats(); got != wantFabric {
		t.Errorf("rdma.Stats moved:\n got  %+v\n want %+v", got, wantFabric)
	}
}

// TestDataRequestAllocsAreConstant: an identical data request on a warm plane
// allocates the same few objects (the stream, its source, the page buffer)
// whatever its span, i.e. nothing per page op.
func TestDataRequestAllocsAreConstant(t *testing.T) {
	f, vmID := dataFleet(t)
	rack := f.Rack(0)
	allocs := func(dataBytes int64) float64 {
		req := WorkloadRequest{VM: vmID, Kind: workload.DataCaching, Iterations: 1, Seed: 42, DataBytes: dataBytes}
		if _, err := runDataTraffic(rack, req); err != nil { // warm: maps every page the stream writes
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := runDataTraffic(rack, req); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1<<20), allocs(4<<20)
	if small != large || small > 8 {
		t.Fatalf("allocs per data request: %v at 1 MiB, %v at 4 MiB; want one small constant", small, large)
	}
}

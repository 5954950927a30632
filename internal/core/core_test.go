package core

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/acpi"
	"repro/internal/memplane"
	"repro/internal/pagepolicy"
	"repro/internal/vm"
	"repro/internal/workload"
)

// testRack builds a small rack with 1 GiB servers and 16 MiB buffers so the
// integration tests stay fast.
func testRack(t *testing.T, servers int) *Rack {
	t.Helper()
	board := acpi.DefaultBoardSpec()
	board.MemoryBytes = 1 << 30
	r, err := NewRack(Config{
		Servers:           servers,
		Board:             board,
		BufferSize:        16 << 20,
		HostReservedBytes: 128 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRackValidation(t *testing.T) {
	if _, err := NewRack(Config{Servers: 0}); err == nil {
		t.Error("zero servers should fail")
	}
	bad := acpi.DefaultBoardSpec()
	bad.MemoryBytes = 0
	if _, err := NewRack(Config{Servers: 2, Board: bad}); err == nil {
		t.Error("invalid board should fail")
	}
	r := testRack(t, 3)
	if len(r.Servers()) != 3 {
		t.Errorf("servers = %v", r.Servers())
	}
	if _, err := r.Server("server-00"); err != nil {
		t.Error(err)
	}
	if _, err := r.Server("missing"); !errors.Is(err, ErrUnknownServer) {
		t.Error("unknown server lookup should fail")
	}
}

func TestPushToZombieAndWake(t *testing.T) {
	r := testRack(t, 3)
	if err := r.PushToZombie("server-02"); err != nil {
		t.Fatal(err)
	}
	s, _ := r.Server("server-02")
	if s.State() != acpi.Sz {
		t.Fatalf("state = %v, want Sz", s.State())
	}
	if s.Role() != RoleZombie {
		t.Errorf("role = %v", s.Role())
	}
	if !s.Platform.MemoryRemotelyAccessible() {
		t.Error("zombie memory must stay remotely accessible")
	}
	if r.FreeRemoteMemory() == 0 {
		t.Error("zombie should have delegated memory")
	}
	if lru, err := r.LRUZombie(); err != nil || lru != "server-02" {
		t.Errorf("LRU zombie = %q (%v)", lru, err)
	}

	if err := r.Wake("server-02"); err != nil {
		t.Fatal(err)
	}
	if s.State() != acpi.S0 {
		t.Errorf("state after wake = %v", s.State())
	}
	if r.FreeRemoteMemory() != 0 {
		t.Error("woken server should have reclaimed its memory")
	}
	if _, err := r.LRUZombie(); err == nil {
		t.Error("no zombie should remain")
	}
}

func TestSuspendToS3IsNotServing(t *testing.T) {
	r := testRack(t, 2)
	if err := r.Suspend("server-01", acpi.S3); err != nil {
		t.Fatal(err)
	}
	s, _ := r.Server("server-01")
	if s.State() != acpi.S3 {
		t.Fatalf("state = %v", s.State())
	}
	if s.Device.Serving() {
		t.Error("an S3 server must not serve remote memory")
	}
	if r.FreeRemoteMemory() != 0 {
		t.Error("an S3 server delegates nothing")
	}
	// Suspend(..., Sz) routes through PushToZombie.
	if err := r.Wake("server-01"); err != nil {
		t.Fatal(err)
	}
	if err := r.Suspend("server-01", acpi.Sz); err != nil {
		t.Fatal(err)
	}
	if s.State() != acpi.Sz {
		t.Errorf("state = %v, want Sz", s.State())
	}
}

func TestSuspendUnknownServer(t *testing.T) {
	r := testRack(t, 1)
	if err := r.PushToZombie("nope"); !errors.Is(err, ErrUnknownServer) {
		t.Error("unknown server should fail")
	}
	if err := r.Suspend("nope", acpi.S3); !errors.Is(err, ErrUnknownServer) {
		t.Error("unknown server should fail")
	}
	if err := r.Wake("nope"); !errors.Is(err, ErrUnknownServer) {
		t.Error("unknown server should fail")
	}
}

func TestCreateVMFullyLocal(t *testing.T) {
	r := testRack(t, 2)
	spec := vm.New("small", 256<<20, 128<<20)
	g, err := r.CreateVM(spec, CreateVMOptions{SimPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	if g.RemoteBytes != 0 {
		t.Errorf("small VM should be fully local, remote=%d", g.RemoteBytes)
	}
	if g.Paging == nil || g.Paging.Pages() == 0 {
		t.Error("paging context missing")
	}
	if len(r.VMs()) != 1 {
		t.Error("rack should list the VM")
	}
	if _, err := r.CreateVM(spec, CreateVMOptions{}); err == nil {
		t.Error("duplicate VM should fail")
	}
	if err := r.DestroyVM("small"); err != nil {
		t.Fatal(err)
	}
	if err := r.DestroyVM("small"); !errors.Is(err, ErrUnknownVM) {
		t.Error("destroying a missing VM should fail")
	}
}

func TestCreateVMWithRemoteMemory(t *testing.T) {
	r := testRack(t, 3)
	// Push one server to Sz so remote memory exists.
	if err := r.PushToZombie("server-02"); err != nil {
		t.Fatal(err)
	}
	// A VM bigger than a single host's free memory (1 GiB - 128 MiB host
	// reserve): 1.5 GiB needs ~0.6 GiB of remote memory.
	spec := vm.New("big", 3<<29, 1<<30)
	g, err := r.CreateVM(spec, CreateVMOptions{SimPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	if g.RemoteBytes == 0 {
		t.Fatal("the big VM should use remote memory")
	}
	if len(g.buffers) == 0 {
		t.Fatal("remote buffers should be allocated")
	}
	host, _ := r.Server(g.Host)
	if host.Role() != RoleUser {
		t.Errorf("host role = %v, want user", host.Role())
	}

	// Run a scan-heavy workload on it: pages must round-trip through the
	// zombie's memory over the RDMA fabric.
	stats, err := r.RunWorkload("big", workload.SparkSQL, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Demotions == 0 || stats.Promotions == 0 {
		t.Errorf("expected paging to remote memory, got %+v", stats)
	}
	if r.Fabric().Stats().Writes == 0 || r.Fabric().Stats().Reads == 0 {
		t.Error("the RDMA fabric should have carried page traffic")
	}

	// Destroying the VM returns the remote memory.
	freeBefore := r.FreeRemoteMemory()
	if err := r.DestroyVM("big"); err != nil {
		t.Fatal(err)
	}
	if r.FreeRemoteMemory() <= freeBefore {
		t.Error("destroying the VM should free remote memory")
	}
}

// TestRackResidentBytesCoversEachPageOnce: a data-plane page lives either in
// its host's local arena or in a region lent on the fabric, never in both, so
// the rack's resident count covers every written page exactly once.
func TestRackResidentBytesCoversEachPageOnce(t *testing.T) {
	r := testRack(t, 3)
	if err := r.PushToZombie("server-02"); err != nil {
		t.Fatal(err)
	}
	g, err := r.CreateVM(vm.New("big", 3<<29, 1<<30), CreateVMOptions{SimPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.MemplaneOf("big")
	if err != nil {
		t.Fatal(err)
	}
	base := r.ResidentBytes()
	ps := memplane.DefaultPageSize
	pages := int64(g.Paging.Pages())
	local := int64(g.Paging.LocalFrames())
	src := make([]byte, pages*ps)
	for i := range src {
		src[i] = byte(i/int(ps)) + 1
	}
	if _, _, err := p.Write(0, src); err != nil {
		t.Fatal(err)
	}
	remote := pages - local
	if local == 0 || remote == 0 {
		t.Fatalf("want both local and remote pages, got %d local of %d", local, pages)
	}
	grew := r.ResidentBytes() - base
	arena, lent := p.ResidentBytes(), r.Fabric().ResidentBytes()-base
	if grew != arena+lent {
		t.Fatalf("rack grew by %d B, want the arena's %d + the lent regions' %d", grew, arena, lent)
	}
	if arena < local*ps || lent < remote*ps {
		t.Fatalf("arena %d B for %d local pages, regions %d B for %d remote pages", arena, local, lent, remote)
	}
	// A second copy of the remote pages would add remote*ps; the chunk
	// rounding of the stores stays well under that.
	if once := pages * ps; grew >= once+remote*ps {
		t.Fatalf("rack grew by %d B for %d written bytes: remote pages counted twice", grew, once)
	}
}

func TestCreateVMRejectsWhenNoCapacity(t *testing.T) {
	r := testRack(t, 1)
	// One 1 GiB server, no zombie: a 4 GiB VM cannot be placed.
	spec := vm.New("huge", 4<<30, 2<<30)
	if _, err := r.CreateVM(spec, CreateVMOptions{}); err == nil {
		t.Fatal("placement should fail without remote memory")
	}
	if _, err := r.CreateVM(vm.VM{}, CreateVMOptions{}); err == nil {
		t.Fatal("invalid VM spec should fail")
	}
}

func TestCannotZombifyServerWithVMs(t *testing.T) {
	r := testRack(t, 2)
	if _, err := r.CreateVM(vm.New("v", 256<<20, 128<<20), CreateVMOptions{SimPages: 128}); err != nil {
		t.Fatal(err)
	}
	g, _ := r.VM("v")
	if err := r.PushToZombie(g.Host); err == nil {
		t.Fatal("a server hosting VMs must not enter Sz")
	}
	if err := r.Suspend(g.Host, acpi.S3); err == nil {
		t.Fatal("a server hosting VMs must not suspend")
	}
}

func TestEnergyAccounting(t *testing.T) {
	r := testRack(t, 3)
	if err := r.PushToZombie("server-02"); err != nil {
		t.Fatal(err)
	}
	r.AdvanceClock(3600 * 1e9) // one hour
	reports := r.EnergyReportAll()
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	var zombieJ, activeJ float64
	for _, rep := range reports {
		if rep.Joules <= 0 {
			t.Errorf("%s consumed no energy", rep.Server)
		}
		if rep.Server == "server-02" {
			zombieJ = rep.Joules
		} else {
			activeJ = rep.Joules
		}
	}
	if zombieJ >= activeJ/2 {
		t.Errorf("zombie energy (%.0f J) should be far below an idle active server (%.0f J)", zombieJ, activeJ)
	}
	if r.TotalEnergyJoules() <= 0 {
		t.Error("total energy should be positive")
	}
	if r.Now() != 3600*1e9 {
		t.Errorf("clock = %d", r.Now())
	}
	r.AdvanceClock(-5) // ignored
	if r.Now() != 3600*1e9 {
		t.Error("negative clock advance should be ignored")
	}
}

func TestRunWorkloadUnknownVM(t *testing.T) {
	r := testRack(t, 1)
	if _, err := r.RunWorkload("ghost", workload.MicroBench, 1, 1); !errors.Is(err, ErrUnknownVM) {
		t.Error("unknown VM should fail")
	}
}

func TestCreateVMWithExplicitPolicy(t *testing.T) {
	r := testRack(t, 2)
	if err := r.PushToZombie("server-01"); err != nil {
		t.Fatal(err)
	}
	spec := vm.New("pol", 1<<30, 512<<20)
	g, err := r.CreateVM(spec, CreateVMOptions{
		Policy:   pagepolicy.NewFIFO(pagepolicy.DefaultCost()),
		SimPages: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Paging == nil {
		t.Fatal("paging context missing")
	}
}

func TestSecondaryControllerMirrorsRackOperations(t *testing.T) {
	r := testRack(t, 2)
	if err := r.PushToZombie("server-01"); err != nil {
		t.Fatal(err)
	}
	if r.Secondary().Operations() == 0 {
		t.Error("the secondary controller should mirror operations")
	}
	r.AdvanceClock(1e9)
	if r.Secondary().Promoted() {
		t.Error("the secondary must not promote while the rack heartbeats")
	}
}

// TestCreateVMAllocationBudget pins what placing a VM allocates on the
// session the benchmark's serving workloads use: a rack of three 2 GiB
// servers, the last a zombie, and a 1.5 GiB VM that needs a remote share.
// The paging context is sized by the VM's simulated pages; slot tables that
// covered the whole lent share cost ≈ 2.3 MiB here.
func TestCreateVMAllocationBudget(t *testing.T) {
	board := acpi.DefaultBoardSpec()
	board.MemoryBytes = 2 << 30
	r, err := NewRack(Config{Servers: 3, Board: board})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.PushToZombie("server-02"); err != nil {
		t.Fatal(err)
	}
	spec := vm.New("vm-0", 3<<29, 0)
	spec.VCPUs = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := r.CreateVM(spec, CreateVMOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if g.RemoteBytes == 0 {
		t.Fatal("the VM should need a remote share")
	}
	const budget = 128 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("CreateVM allocated %d bytes, budget %d", got, budget)
	}
}

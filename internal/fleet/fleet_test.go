package fleet

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/acpi"
	"repro/internal/core"
	"repro/internal/rdma"
	"repro/internal/vm"
	"repro/internal/workload"
)

// testConfig builds a small fleet: 1 GiB servers, 16 MiB buffers, 128 MiB
// host reservation, 8 cores per board (one default VM per host by CPU).
func testConfig(racks, servers, workers int) Config {
	board := acpi.DefaultBoardSpec()
	board.MemoryBytes = 1 << 30
	return Config{
		Racks: racks,
		Rack: core.Config{
			Servers:           servers,
			Board:             board,
			BufferSize:        16 << 20,
			HostReservedBytes: 128 << 20,
		},
		Workers: workers,
	}
}

// buildScenario stands up the canonical test fleet: 4 racks x 4 servers,
// racks 1 and 3 keep one awake host and lend three zombies' memory each,
// racks 0 and 2 start dry. It returns the fleet and a batch of 10 memory-hungry VMs whose
// remote parts exercise home allocation, single-lender borrows and borrows
// that span lenders.
func buildScenario(t testing.TB, workers int) (*Fleet, []vm.VM) {
	t.Helper()
	f, err := New(testConfig(4, 4, workers))
	if err != nil {
		t.Fatal(err)
	}
	for _, rack := range []int{1, 3} {
		for _, server := range f.Rack(rack).Servers()[1:] {
			if err := f.PushToZombie(rack, server); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Alternate two flavours against 896 MiB of free local memory per host:
	// small VMs need 128 MiB of remote memory, large ones sit on the 50%%
	// local-memory rule and need 896 MiB — so the batch exercises home
	// allocations, single-lender borrows and borrows spanning lenders, and
	// the large VMs page hard enough to drive real cross-rack traffic.
	var specs []vm.VM
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			specs = append(specs, vm.New(fmt.Sprintf("vm-%02d", i), 1<<30, 512<<20))
		} else {
			specs = append(specs, vm.New(fmt.Sprintf("vm-%02d", i), 1792<<20, 1536<<20))
		}
	}
	return f, specs
}

type scenarioOutcome struct {
	placements []Placement
	results    []WorkloadResult
	ledger     []Borrow
	energy     []core.EnergyReport
	joules     float64
	fabrics    []rdma.Stats
}

func runScenario(t testing.TB, workers int) scenarioOutcome {
	t.Helper()
	f, specs := buildScenario(t, workers)
	placements, err := f.PlaceVMs(specs, core.CreateVMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []WorkloadRequest
	for i, p := range placements {
		if p.Err != "" {
			continue
		}
		reqs = append(reqs, WorkloadRequest{
			VM:         p.VM,
			Kind:       workload.AllKinds()[i%len(workload.AllKinds())],
			Iterations: 3,
			Seed:       int64(i + 1),
		})
	}
	results := f.RunWorkloads(reqs)
	f.AdvanceClock(3600 * 1e9)
	return scenarioOutcome{
		placements: placements,
		results:    results,
		ledger:     f.BorrowLedger(),
		energy:     f.EnergyReportAll(),
		joules:     f.TotalEnergyJoules(),
		fabrics:    f.FabricStats(),
	}
}

// TestFleetParallelMatchesSequential is the determinism contract of the
// fleet layer: placement decisions, energy accounting, borrow ledgers and
// workload results with Workers=4 are bit-identical to Workers=1.
func TestFleetParallelMatchesSequential(t *testing.T) {
	seq := runScenario(t, 1)
	par := runScenario(t, 4)

	if !reflect.DeepEqual(seq.placements, par.placements) {
		t.Errorf("placements diverge:\nseq: %+v\npar: %+v", seq.placements, par.placements)
	}
	if !reflect.DeepEqual(seq.results, par.results) {
		t.Errorf("workload results diverge:\nseq: %+v\npar: %+v", seq.results, par.results)
	}
	if !reflect.DeepEqual(seq.ledger, par.ledger) {
		t.Errorf("borrow ledgers diverge:\nseq: %+v\npar: %+v", seq.ledger, par.ledger)
	}
	if !reflect.DeepEqual(seq.energy, par.energy) {
		t.Errorf("energy reports diverge:\nseq: %+v\npar: %+v", seq.energy, par.energy)
	}
	if seq.joules != par.joules {
		t.Errorf("total energy diverges: seq %v vs par %v", seq.joules, par.joules)
	}
	if !reflect.DeepEqual(seq.fabrics, par.fabrics) {
		t.Errorf("fabric stats diverge:\nseq: %+v\npar: %+v", seq.fabrics, par.fabrics)
	}
}

// TestFleetScenarioShape pins down what the canonical scenario exercises so
// the determinism test above cannot silently degrade into an all-local run.
func TestFleetScenarioShape(t *testing.T) {
	out := runScenario(t, 2)
	placements, results, ledger := out.placements, out.results, out.ledger
	var borrows, home, multiLender int
	for _, p := range placements {
		if p.Err != "" {
			t.Fatalf("placement %s failed: %s", p.VM, p.Err)
		}
		if p.RemoteBytes == 0 {
			t.Fatalf("VM %s should need remote memory", p.VM)
		}
		if p.BorrowedBytes > 0 {
			borrows++
			if strings.Contains(p.BorrowedFrom, "+") {
				multiLender++
			}
		} else {
			home++
		}
	}
	if borrows == 0 || home == 0 {
		t.Fatalf("scenario should mix home and borrowed remote memory (home=%d borrows=%d)", home, borrows)
	}
	if multiLender == 0 {
		t.Fatal("scenario should include a borrow spanning lenders")
	}
	var interRack uint64
	for _, st := range out.fabrics {
		interRack += st.InterRackOps
	}
	if interRack == 0 {
		t.Fatal("scenario should drive cross-rack traffic")
	}
	if len(ledger) == 0 {
		t.Fatal("borrow ledger should not be empty")
	}
	for _, res := range results {
		if res.Err != "" {
			t.Fatalf("workload %s failed: %s", res.VM, res.Err)
		}
		if res.Stats.Accesses == 0 {
			t.Fatalf("workload %s did no work", res.VM)
		}
	}
}

// TestFleetCrossRackBorrow asserts the acceptance scenario: a memory-hungry
// VM on a dry rack succeeds via a peer rack, and its remote traffic is
// charged the inter-rack RDMA premium on the lender's fabric.
func TestFleetCrossRackBorrow(t *testing.T) {
	f, err := New(testConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Rack 1 lends (one zombie), rack 0 stays dry.
	if err := f.PushToZombie(1, "rack-01/server-01"); err != nil {
		t.Fatal(err)
	}
	if free := f.Rack(0).FreeRemoteMemory(); free != 0 {
		t.Fatalf("rack 0 should be dry, has %d", free)
	}

	placements, err := f.PlaceVMs([]vm.VM{vm.New("hungry", 1792<<20, 1536<<20)}, core.CreateVMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := placements[0]
	if p.Err != "" {
		t.Fatalf("placement failed: %s", p.Err)
	}
	if p.Rack != "rack-00" || !strings.HasPrefix(p.Host, "rack-00/") {
		t.Fatalf("the VM should land on the dry rack 0, got %s/%s", p.Rack, p.Host)
	}
	if p.BorrowedBytes == 0 || p.BorrowedBytes != p.RemoteBytes {
		t.Fatalf("the whole remote part should be borrowed: %+v", p)
	}
	if p.BorrowedFrom != "rack-01" {
		t.Fatalf("BorrowedFrom = %q, want rack-01", p.BorrowedFrom)
	}
	ledger := f.BorrowLedger()
	if len(ledger) != 1 || ledger[0].Borrower != "rack-00" || ledger[0].Lender != "rack-01" ||
		ledger[0].VM != "hungry" || ledger[0].Bytes < p.BorrowedBytes {
		t.Fatalf("ledger = %+v", ledger)
	}

	// Replaying a workload drives paging over the borrowed buffers: the
	// lender's fabric must see inter-rack operations, each carrying at
	// least the premium, and the borrower's own fabric none.
	results := f.RunWorkloads([]WorkloadRequest{{VM: "hungry", Kind: workload.MicroBench, Iterations: 3, Seed: 1}})
	if results[0].Err != "" {
		t.Fatal(results[0].Err)
	}
	if results[0].Stats.RemoteNs == 0 {
		t.Fatal("the workload should touch remote memory")
	}
	stats := f.FabricStats()
	lender := stats[1]
	if lender.InterRackOps == 0 {
		t.Fatal("lender fabric should account inter-rack operations")
	}
	model := f.Rack(1).Fabric().Model()
	if min := int64(lender.InterRackOps) * model.InterRackHopNs; lender.InterRackNs < min {
		t.Fatalf("inter-rack time %d ns is below the premium floor %d ns", lender.InterRackNs, min)
	}
	if stats[0].InterRackOps != 0 {
		t.Fatalf("borrower fabric should see no inter-rack ops, got %d", stats[0].InterRackOps)
	}

	// Destroy returns the borrowed buffers to the lender.
	before := f.Rack(1).FreeRemoteMemory()
	if err := f.DestroyVM("hungry"); err != nil {
		t.Fatal(err)
	}
	if after := f.Rack(1).FreeRemoteMemory(); after <= before {
		t.Fatalf("lender free memory should grow on destroy: %d -> %d", before, after)
	}
}

// TestFleetFailoverKeepsBorrowedMemory reuses the paper's secondary
// controller promotion at fleet level: after the lender rack loses its
// global controller, borrowed memory keeps serving (one-sided verbs never
// involve the control plane) and new borrows go through the rebuilt
// controller.
func TestFleetFailoverKeepsBorrowedMemory(t *testing.T) {
	f, err := New(testConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.PushToZombie(1, "rack-01/server-01"); err != nil {
		t.Fatal(err)
	}
	placements, err := f.PlaceVMs([]vm.VM{vm.New("borrower", 1792<<20, 1536<<20)}, core.CreateVMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if placements[0].Err != "" || placements[0].BorrowedBytes == 0 {
		t.Fatalf("expected a borrowing placement, got %+v", placements[0])
	}

	if err := f.FailoverRack(1, f.Rack(1).Now()+10e9); err != nil {
		t.Fatal(err)
	}
	if !f.Rack(1).Secondary().Promoted() {
		t.Fatal("the lender's secondary should be promoted")
	}

	// The borrowed data path survives the control-plane loss.
	results := f.RunWorkloads([]WorkloadRequest{{VM: "borrower", Kind: workload.MicroBench, Iterations: 3, Seed: 7}})
	if results[0].Err != "" {
		t.Fatalf("borrowed memory should keep serving after fail-over: %s", results[0].Err)
	}
	if results[0].Stats.RemoteNs == 0 {
		t.Fatal("the replay should touch the borrowed buffers")
	}

	// New cross-rack borrows work against the rebuilt controller because the
	// gateway agents were retargeted.
	placements, err = f.PlaceVMs([]vm.VM{vm.New("borrower-2", 1792<<20, 1536<<20)}, core.CreateVMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if placements[0].Err != "" || placements[0].BorrowedFrom != "rack-01" {
		t.Fatalf("post-fail-over borrow should succeed via rack-01, got %+v", placements[0])
	}
	if err := f.DestroyVM("borrower-2"); err != nil {
		t.Fatal(err)
	}
	if err := f.DestroyVM("borrower"); err != nil {
		t.Fatal(err)
	}
}

// TestFleetValidation covers the configuration edges.
func TestFleetValidation(t *testing.T) {
	if _, err := New(Config{Racks: 0, Rack: core.Config{Servers: 1}}); err == nil {
		t.Error("zero racks should fail")
	}
	if _, err := New(Config{Racks: 1, Rack: core.Config{Servers: 1}, Workers: -1}); err == nil {
		t.Error("negative workers should fail")
	}
	f, err := New(testConfig(2, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.PushToZombie(5, "nope"); err == nil {
		t.Error("out-of-range rack should fail")
	}
	if err := f.DestroyVM("ghost"); err == nil {
		t.Error("unknown VM should fail")
	}
	if got := f.RackNames(); len(got) != 2 || got[0] != "rack-00" || got[1] != "rack-01" {
		t.Errorf("rack names = %v", got)
	}
	res := f.RunWorkloads([]WorkloadRequest{{VM: "ghost", Kind: workload.MicroBench, Iterations: 1, Seed: 1}})
	if res[0].Err == "" {
		t.Error("workload on an unknown VM should fail")
	}
}

// TestZombieFleetHeapCeiling is ROADMAP item 1's proof: a 64-rack × 16-server
// × 64 GiB fleet with half its servers pushed to zombie lends tens of TiB
// through some half a million registered regions, and none of it may become
// host memory — lent DRAM is address space until a borrower writes to it.
func TestZombieFleetHeapCeiling(t *testing.T) {
	const racks, servers, memGiB = 64, 16, 64
	board := acpi.DefaultBoardSpec()
	board.MemoryBytes = memGiB << 30
	f, err := New(Config{Racks: racks, Rack: core.Config{Servers: servers, Board: board}})
	if err != nil {
		t.Fatal(err)
	}
	for ri := 0; ri < racks; ri++ {
		names := f.Rack(ri).Servers()
		for _, name := range names[servers/2:] {
			if err := f.PushToZombie(ri, name); err != nil {
				t.Fatal(err)
			}
		}
	}
	if lent := f.FreeRemoteMemory(); lent < racks*servers/2*(memGiB/2)<<30 {
		t.Fatalf("zombies lent only %d GiB; the ceiling would prove nothing", lent>>30)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("lent %d TiB, HeapInuse %d MiB, resident %d B", f.FreeRemoteMemory()>>40, ms.HeapInuse>>20, f.ResidentBytes())
	if ms.HeapInuse >= 256<<20 {
		t.Fatalf("HeapInuse = %d MiB with %d TiB lent, want < 256 MiB", ms.HeapInuse>>20, f.FreeRemoteMemory()>>40)
	}
	if r := f.ResidentBytes(); r != 0 {
		t.Fatalf("ResidentBytes() = %d before any borrower wrote a byte", r)
	}
	runtime.KeepAlive(f)
}

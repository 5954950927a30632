package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/acpi"
	"repro/internal/core"
	"repro/internal/vm"
)

func TestCrashServerGatesControlPlane(t *testing.T) {
	f, err := New(testConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	victim := f.Rack(0).Servers()[1]
	if err := f.CrashServer(0, victim); err != nil {
		t.Fatal(err)
	}
	if err := f.CrashServer(0, victim); err == nil {
		t.Fatal("double crash should fail")
	}
	if err := f.PushToZombie(0, victim); !errors.Is(err, ErrServerCrashed) {
		t.Fatalf("PushToZombie on crashed server: got %v, want ErrServerCrashed", err)
	}
	if err := f.Wake(0, victim); !errors.Is(err, ErrServerCrashed) {
		t.Fatalf("Wake on crashed server: got %v, want ErrServerCrashed", err)
	}
	if err := f.Suspend(0, victim, acpi.S3); !errors.Is(err, ErrServerCrashed) {
		t.Fatalf("Suspend on crashed server: got %v, want ErrServerCrashed", err)
	}
	if got := f.CrashedServers(); len(got) != 1 || got[0] != victim {
		t.Fatalf("CrashedServers = %v, want [%s]", got, victim)
	}
	if err := f.ReviveServer(0, victim); err != nil {
		t.Fatal(err)
	}
	if err := f.ReviveServer(0, victim); err == nil {
		t.Fatal("reviving a healthy server should fail")
	}
	if err := f.PushToZombie(0, victim); err != nil {
		t.Fatalf("revived server should accept operations: %v", err)
	}
}

func TestCrashedServerExcludedFromPlacement(t *testing.T) {
	f, err := New(testConfig(1, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Crash the first server (the stacking scheduler's preferred target) and
	// place one VM: it must land on the surviving server.
	names := f.Rack(0).Servers()
	if err := f.CrashServer(0, names[0]); err != nil {
		t.Fatal(err)
	}
	ps, err := f.PlaceVMs([]vm.VM{vm.New("vm-0", 256<<20, 128<<20)}, core.CreateVMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p := ps[0]; p.Err != "" || p.Host == names[0] {
		t.Fatalf("placement %+v, want a host other than crashed %s", p, names[0])
	}
}

// failEveryWake is a FaultInjector failing every wake attempt.
type failEveryWake struct{ calls atomic.Int64 }

func (fi *failEveryWake) WakeFails(rack int, server string) bool {
	fi.calls.Add(1)
	return true
}

func TestFaultInjectorFailsWake(t *testing.T) {
	f, err := New(testConfig(1, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	sleeper := f.Rack(0).Servers()[1]
	if err := f.Suspend(0, sleeper, acpi.S3); err != nil {
		t.Fatal(err)
	}
	fi := &failEveryWake{}
	f.SetFaultInjector(fi)
	if err := f.Wake(0, sleeper); !errors.Is(err, ErrWakeFailed) {
		t.Fatalf("Wake under injector: got %v, want ErrWakeFailed", err)
	}
	srv, err := f.Rack(0).Server(sleeper)
	if err != nil {
		t.Fatal(err)
	}
	if srv.State() != acpi.S3 {
		t.Fatalf("failed wake left server in %v, want S3", srv.State())
	}
	f.SetFaultInjector(nil)
	if err := f.Wake(0, sleeper); err != nil {
		t.Fatalf("Wake after injector removed: %v", err)
	}
	if fi.calls.Load() == 0 {
		t.Fatal("injector was never consulted")
	}
}

func TestKillControllerKeepsBorrowedMemory(t *testing.T) {
	f, specs := buildScenario(t, 2)
	placements, err := f.PlaceVMs(specs, core.CreateVMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := f.BorrowLedger()
	if len(before) == 0 {
		t.Fatal("scenario placed no cross-rack borrows")
	}
	// Kill the controller of lender rack 1 mid-run (the kill instant sits
	// past the heartbeat timeout, so the secondary notices): the secondary
	// promotes and the borrowed buffers keep serving.
	if err := f.KillController(1, f.Rack(1).Now()+10e9); err != nil {
		t.Fatal(err)
	}
	for _, p := range placements {
		if p.Err != "" {
			continue
		}
		if _, ok := f.RackOf(p.VM); !ok {
			t.Fatalf("VM %s lost after controller kill", p.VM)
		}
	}
	if got := f.BorrowLedger(); len(got) != len(before) {
		t.Fatalf("borrow ledger changed across controller kill: %d -> %d", len(before), len(got))
	}
	// The fleet still operates: destroy everything and get the buffers back.
	for _, p := range placements {
		if p.Err == "" {
			if err := f.DestroyVM(p.VM); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFleetChaosUnderRace fires concurrent placements, destroys, fail-overs
// and chaos faults (crash/revive, zombie pushes, wakes, clock advances) at
// one Fleet and asserts the ledgers still balance afterwards. Run under the
// CI -race step, it pins the locking contract of the fault surface.
func TestFleetChaosUnderRace(t *testing.T) {
	f, err := New(testConfig(4, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Racks 1 and 3 lend; keep their first server awake.
	for _, rack := range []int{1, 3} {
		for _, server := range f.Rack(rack).Servers()[1:] {
			if err := f.PushToZombie(rack, server); err != nil {
				t.Fatal(err)
			}
		}
	}
	lentBefore := f.FreeRemoteMemory()
	if lentBefore <= 0 {
		t.Fatal("no remote memory lent")
	}

	const rounds = 30
	var wg sync.WaitGroup
	var placedMu sync.Mutex
	placed := make(map[string]bool)

	// Placer: dynamic arrivals and departures through the batch machinery.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			id := fmt.Sprintf("race-vm-%02d", i)
			ps, err := f.PlaceVMs([]vm.VM{vm.New(id, 1<<30, 512<<20)}, core.CreateVMOptions{})
			if err != nil || ps[0].Err != "" {
				continue // capacity pressure and crashes may refuse arrivals
			}
			placedMu.Lock()
			placed[id] = true
			placedMu.Unlock()
			if i%3 == 0 {
				if err := f.DestroyVM(id); err == nil {
					placedMu.Lock()
					delete(placed, id)
					placedMu.Unlock()
				}
			}
		}
	}()

	// Fail-over: repeatedly kill the lender racks' controllers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			// A racing AdvanceClock can make the primary look alive again;
			// a refused fail-over is part of the storm.
			_ = f.KillController(1+2*(i%2), f.Rack(0).Now()+10e9)
		}
	}()

	// Chaos: crash and revive a non-hosting server of rack 2.
	wg.Add(1)
	go func() {
		defer wg.Done()
		victim := f.Rack(2).Servers()[3]
		for i := 0; i < rounds; i++ {
			if err := f.CrashServer(2, victim); err == nil {
				_ = f.ReviveServer(2, victim)
			}
		}
	}()

	// Posture churn: zombie pushes and wakes on rack 0's tail server, plus
	// clock advances.
	wg.Add(1)
	go func() {
		defer wg.Done()
		server := f.Rack(0).Servers()[3]
		for i := 0; i < rounds; i++ {
			_ = f.PushToZombie(0, server)
			_ = f.Wake(0, server)
			f.AdvanceClock(1e6)
		}
	}()

	wg.Wait()

	// Ledger balance: every surviving VM is still resolvable, every borrow
	// names valid racks, and destroying the survivors returns every borrowed
	// buffer to the pool.
	rackNames := map[string]bool{}
	for _, n := range f.RackNames() {
		rackNames[n] = true
	}
	for _, b := range f.BorrowLedger() {
		if !rackNames[b.Borrower] || !rackNames[b.Lender] {
			t.Fatalf("borrow ledger entry references unknown racks: %+v", b)
		}
		if b.Bytes <= 0 || b.Buffers <= 0 {
			t.Fatalf("borrow ledger entry with non-positive grant: %+v", b)
		}
	}
	placedMu.Lock()
	survivors := make([]string, 0, len(placed))
	for id := range placed {
		survivors = append(survivors, id)
	}
	placedMu.Unlock()
	for _, id := range survivors {
		if _, ok := f.RackOf(id); !ok {
			t.Fatalf("placed VM %s not resolvable after the storm", id)
		}
		if err := f.DestroyVM(id); err != nil {
			t.Fatalf("destroying survivor %s: %v", id, err)
		}
	}
	// Wake rack 0's tail server back if a push left it in Sz, then check the
	// free pool: exactly the lenders' memory (rack 0's server lends nothing
	// once awake) must be back.
	_ = f.Wake(0, f.Rack(0).Servers()[3])
	if got := f.FreeRemoteMemory(); got != lentBefore {
		t.Fatalf("free remote memory after the storm = %d, want %d (buffers leaked)", got, lentBefore)
	}
	if j := f.TotalEnergyJoules(); j < 0 {
		t.Fatalf("negative fleet energy %v", j)
	}
}

package consolidation

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/acpi"
)

// memoryHeavyFleet builds a VM population whose memory demand dominates its
// CPU demand, the regime the paper targets.
func memoryHeavyFleet(n int) []VMDemand {
	vms := make([]VMDemand, 0, n)
	for i := 0; i < n; i++ {
		vms = append(vms, VMDemand{
			ID:           fmt.Sprintf("vm-%d", i),
			BookedCPU:    1,
			BookedMemGiB: 4,
			UsedCPU:      0.3,
			UsedMemGiB:   2.5,
		})
	}
	return vms
}

func TestVMDemandHelpers(t *testing.T) {
	idle := VMDemand{UsedCPU: 0.005, UsedMemGiB: 2}
	busy := VMDemand{UsedCPU: 0.5, UsedMemGiB: 2}
	if !idle.Idle() || busy.Idle() {
		t.Error("idle detection wrong")
	}
	if idle.WSSGiB() != 2 {
		t.Error("WSS should track used memory")
	}
}

func TestPolicyByName(t *testing.T) {
	for _, want := range []string{"none", "neat", "oasis", "zombiestack"} {
		p, err := PolicyByName(want)
		if err != nil || p.Name() != want {
			t.Errorf("PolicyByName(%q) = %v, %v", want, p, err)
		}
	}
	if _, err := PolicyByName("drs"); err == nil {
		t.Error("unknown policy should fail")
	}
	if len(AllPolicies()) != 4 {
		t.Error("expected 4 policies")
	}
}

func TestSleepStateFor(t *testing.T) {
	if SleepStateFor("zombiestack") != acpi.Sz {
		t.Error("zombiestack suspends to Sz")
	}
	if SleepStateFor("neat") != acpi.S3 || SleepStateFor("oasis") != acpi.S3 {
		t.Error("neat/oasis suspend to S3")
	}
}

func TestNoConsolidationKeepsEverythingOn(t *testing.T) {
	p := NoConsolidation{}
	plan := p.Plan(memoryHeavyFleet(40), DefaultServerSpec(), 100)
	if plan.ActiveHosts != 100 || plan.SleepHosts != 0 {
		t.Errorf("plan = %+v", plan)
	}
	if plan.ActiveCPUUtilization <= 0 || plan.ActiveCPUUtilization > 0.5 {
		t.Errorf("baseline utilization = %v, should be low", plan.ActiveCPUUtilization)
	}
	if plan.TotalHosts() != 100 {
		t.Error("total hosts wrong")
	}
}

func TestNeatMemoryBound(t *testing.T) {
	// 40 VMs x 4 GiB booked = 160 GiB; servers hold 16 GiB x 0.9 = 14.4 GiB
	// usable, so Neat needs ceil(160/14.4) = 12 hosts even though the CPU
	// demand (40 cores) would fit on 6.
	neat := NewNeat()
	plan := neat.Plan(memoryHeavyFleet(40), DefaultServerSpec(), 100)
	if plan.ActiveHosts != 12 {
		t.Errorf("neat active hosts = %d, want 12 (memory bound)", plan.ActiveHosts)
	}
	if plan.SleepHosts != 88 {
		t.Errorf("sleep hosts = %d", plan.SleepHosts)
	}
	if plan.ZombieHosts != 0 || plan.MemoryServers != 0 {
		t.Error("neat uses neither zombies nor memory servers")
	}
}

func TestZombieStackCPUBound(t *testing.T) {
	// With the 50% local rule the memory pinning halves: ceil(80/14.4) = 6
	// active hosts = the CPU-bound count, and the remaining memory demand is
	// served by zombies.
	z := NewZombieStack()
	plan := z.Plan(memoryHeavyFleet(40), DefaultServerSpec(), 100)
	neat := NewNeat().Plan(memoryHeavyFleet(40), DefaultServerSpec(), 100)
	if plan.ActiveHosts >= neat.ActiveHosts {
		t.Errorf("zombiestack active hosts (%d) should be below neat's (%d)", plan.ActiveHosts, neat.ActiveHosts)
	}
	if plan.ZombieHosts == 0 {
		t.Error("zombiestack should use zombie servers for the remote memory")
	}
	if plan.RemoteMemoryGiB <= 0 {
		t.Error("remote memory should be positive")
	}
	if plan.ActiveCPUUtilization <= neat.ActiveCPUUtilization {
		t.Error("packing onto fewer hosts should raise active utilization")
	}
	if plan.TotalHosts() != 100 {
		t.Errorf("plan does not cover the fleet: %+v", plan)
	}
}

func TestOasisBetweenNeatAndZombie(t *testing.T) {
	// A fleet with many idle VMs: Oasis moves their cold memory to memory
	// servers, so it needs fewer active hosts than Neat.
	vms := memoryHeavyFleet(20)
	for i := 20; i < 40; i++ {
		vms = append(vms, VMDemand{
			ID:           fmt.Sprintf("idle-%d", i),
			BookedCPU:    1,
			BookedMemGiB: 4,
			UsedCPU:      0.001,
			UsedMemGiB:   0.5,
		})
	}
	spec := DefaultServerSpec()
	neat := NewNeat().Plan(vms, spec, 100)
	oasis := NewOasis().Plan(vms, spec, 100)
	if oasis.ActiveHosts >= neat.ActiveHosts {
		t.Errorf("oasis active hosts (%d) should be below neat's (%d)", oasis.ActiveHosts, neat.ActiveHosts)
	}
	if oasis.MemoryServers == 0 {
		t.Error("oasis should provision memory servers for the idle VMs' cold memory")
	}
	if oasis.RemoteMemoryGiB <= 0 {
		t.Error("oasis should relocate memory")
	}
}

func TestPlansWithEmptyFleet(t *testing.T) {
	for _, p := range AllPolicies() {
		plan := p.Plan(nil, DefaultServerSpec(), 50)
		if plan.ActiveHosts != 0 && p.Name() != "none" {
			t.Errorf("%s: empty fleet should need no active hosts, got %d", p.Name(), plan.ActiveHosts)
		}
		if plan.TotalHosts() != 50 {
			t.Errorf("%s: plan must cover all servers", p.Name())
		}
	}
}

func TestPlanClampsToFleetSize(t *testing.T) {
	// Demand far beyond the fleet: the plans must not exceed the fleet size.
	vms := memoryHeavyFleet(1000)
	for _, p := range AllPolicies() {
		plan := p.Plan(vms, DefaultServerSpec(), 10)
		if plan.TotalHosts() != 10 {
			t.Errorf("%s: plan covers %d hosts, want 10", p.Name(), plan.TotalHosts())
		}
		if plan.ActiveHosts > 10 || plan.SleepHosts < 0 {
			t.Errorf("%s: inconsistent plan %+v", p.Name(), plan)
		}
	}
}

func TestDegenerateTargets(t *testing.T) {
	neat := &Neat{TargetUtilization: 0}
	if plan := neat.Plan(memoryHeavyFleet(10), DefaultServerSpec(), 50); plan.ActiveHosts == 0 {
		t.Error("degenerate target should fall back to a sane default")
	}
	z := &ZombieStack{TargetUtilization: 2, LocalMemoryFraction: -1}
	if plan := z.Plan(memoryHeavyFleet(10), DefaultServerSpec(), 50); plan.ActiveHosts == 0 {
		t.Error("degenerate zombie parameters should fall back to defaults")
	}
	o := &Oasis{TargetUtilization: -3}
	if plan := o.Plan(memoryHeavyFleet(10), DefaultServerSpec(), 50); plan.ActiveHosts == 0 {
		t.Error("degenerate oasis target should fall back to defaults")
	}
}

// Property: for any fleet, ZombieStack never uses more active (S0) hosts than
// Neat, and every plan covers exactly the fleet.
func TestPropertyZombieNeverWorseThanNeat(t *testing.T) {
	f := func(nVMs uint8, memPerVM, cpuPerVM uint8, servers uint8) bool {
		n := int(nVMs)%60 + 1
		total := int(servers)%200 + 10
		mem := 1 + float64(memPerVM%8)
		cpu := 0.5 + float64(cpuPerVM%4)
		vms := make([]VMDemand, n)
		for i := range vms {
			vms[i] = VMDemand{
				ID:           fmt.Sprintf("v%d", i),
				BookedCPU:    cpu,
				BookedMemGiB: mem,
				UsedCPU:      cpu * 0.3,
				UsedMemGiB:   mem * 0.6,
			}
		}
		spec := DefaultServerSpec()
		neat := NewNeat().Plan(vms, spec, total)
		zombie := NewZombieStack().Plan(vms, spec, total)
		if zombie.ActiveHosts > neat.ActiveHosts {
			return false
		}
		return neat.TotalHosts() == total && zombie.TotalHosts() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPlanStepsClassification(t *testing.T) {
	hosts := []HostLoad{
		{ID: "under", CPUUtilization: 0.05, FreeMemGiB: 10, VMs: []VMDemand{
			{ID: "a", BookedCPU: 1, BookedMemGiB: 2, UsedCPU: 0.1, UsedMemGiB: 1},
		}},
		{ID: "normal", CPUUtilization: 0.5, FreeMemGiB: 8},
		{ID: "over", CPUUtilization: 0.95, FreeMemGiB: 1, VMs: []VMDemand{
			{ID: "big", BookedCPU: 4, BookedMemGiB: 4, UsedCPU: 3.5, UsedMemGiB: 3},
			{ID: "small", BookedCPU: 1, BookedMemGiB: 1, UsedCPU: 0.2, UsedMemGiB: 0.5},
		}},
		{ID: "asleep", Suspended: true, FreeMemGiB: 16},
	}
	plan := PlanSteps(hosts, false)
	if names := plan.HostNames(plan.UnderloadedHosts); len(names) != 1 || names[0] != "under" {
		t.Errorf("underloaded = %v", names)
	}
	if names := plan.HostNames(plan.OverloadedHosts); len(names) != 1 || names[0] != "over" {
		t.Errorf("overloaded = %v", names)
	}
	// The underloaded host's VM and the overloaded host's biggest VM migrate.
	if dest, _ := plan.DestinationOf("a"); dest != "normal" {
		t.Errorf("vm a should move to the normal host, got %q", dest)
	}
	if dest, ok := plan.DestinationOf("big"); !ok || dest == "over" {
		t.Errorf("vm big should migrate away, got %q", dest)
	}
	if _, ok := plan.DestinationOf("small"); ok {
		t.Error("only the biggest VM of an overloaded host migrates per pass")
	}
	// The emptied underloaded host is suspended.
	if names := plan.HostNames(plan.Suspend); len(names) != 1 || names[0] != "under" {
		t.Errorf("suspend = %v", names)
	}
}

func TestPlanStepsWakesSuspendedHost(t *testing.T) {
	// No normal host has room: the planner must wake the suspended one.
	hosts := []HostLoad{
		{ID: "under", CPUUtilization: 0.1, FreeMemGiB: 0, VMs: []VMDemand{
			{ID: "a", BookedCPU: 1, BookedMemGiB: 8, UsedCPU: 0.1, UsedMemGiB: 6},
		}},
		{ID: "busy", CPUUtilization: 0.6, FreeMemGiB: 1},
		{ID: "zzz", Suspended: true, FreeMemGiB: 16},
	}
	plan := PlanSteps(hosts, false)
	if names := plan.HostNames(plan.Wake); len(names) != 1 || names[0] != "zzz" {
		t.Errorf("wake = %v", names)
	}
	if dest, _ := plan.DestinationOf("a"); dest != "zzz" {
		t.Errorf("vm a should land on the woken host, got %q", dest)
	}
}

func TestPlanStepsZombieAwareNeedsLessMemory(t *testing.T) {
	// The 30%-of-WSS rule lets a small host accept a VM that vanilla Neat
	// would reject, avoiding the wake-up.
	hosts := []HostLoad{
		{ID: "under", CPUUtilization: 0.1, FreeMemGiB: 0, VMs: []VMDemand{
			{ID: "a", BookedCPU: 1, BookedMemGiB: 8, UsedCPU: 0.1, UsedMemGiB: 4},
		}},
		{ID: "tight", CPUUtilization: 0.5, FreeMemGiB: 2},
		{ID: "zzz", Suspended: true, FreeMemGiB: 16},
	}
	vanilla := PlanSteps(hosts, false)
	if dest, _ := vanilla.DestinationOf("a"); dest != "zzz" {
		t.Errorf("vanilla should need the suspended host, got %q", dest)
	}
	zombie := PlanSteps(hosts, true)
	if dest, _ := zombie.DestinationOf("a"); dest != "tight" {
		t.Errorf("zombie-aware placement should fit on the tight host, got %q", dest)
	}
	if len(zombie.Wake) != 0 {
		t.Errorf("zombie-aware plan should not wake anyone, woke %v", zombie.Wake)
	}
}

func TestPlanStepsUnplaceableVMKeepsHostUp(t *testing.T) {
	hosts := []HostLoad{
		{ID: "under", CPUUtilization: 0.1, FreeMemGiB: 0, VMs: []VMDemand{
			{ID: "a", BookedCPU: 1, BookedMemGiB: 64, UsedCPU: 0.1, UsedMemGiB: 32},
		}},
		{ID: "small", CPUUtilization: 0.5, FreeMemGiB: 2},
	}
	plan := PlanSteps(hosts, false)
	if len(plan.Suspend) != 0 {
		t.Errorf("host with an unplaceable VM must stay up, suspend=%v", plan.Suspend)
	}
	if _, ok := plan.DestinationOf("a"); ok {
		t.Error("the unplaceable VM must not be migrated")
	}
}

package consolidation

import "testing"

func TestInitialPlan(t *testing.T) {
	p := InitialPlan(50)
	if p.ActiveHosts != 50 || p.TotalHosts() != 50 {
		t.Fatalf("initial plan = %+v, want every server active", p)
	}
}

func TestDeltaConsolidation(t *testing.T) {
	// The fleet consolidates from all-awake: 100 active -> 20 active, 30
	// zombies, 50 asleep, with 40 VMs spread over the 100 hosts.
	prev := InitialPlan(100)
	next := FleetPlan{ActiveHosts: 20, ZombieHosts: 30, SleepHosts: 50}
	d := Delta(prev, next, 40)
	if d.SleepEnters != 50 || d.SleepExits != 0 {
		t.Errorf("sleep enters/exits = %d/%d, want 50/0", d.SleepEnters, d.SleepExits)
	}
	if d.ZombieEnters != 30 || d.ZombieExits != 0 {
		t.Errorf("zombie enters/exits = %d/%d, want 30/0", d.ZombieEnters, d.ZombieExits)
	}
	if d.FreedHosts != 80 {
		t.Errorf("freed hosts = %d, want 80", d.FreedHosts)
	}
	// 40 VMs over 100 hosts, 80 freed: ceil(40*80/100) = 32 migrations.
	if d.Migrations != 32 {
		t.Errorf("migrations = %d, want 32", d.Migrations)
	}
	if d.Transitions() != 80 {
		t.Errorf("transitions = %d, want 80", d.Transitions())
	}
}

func TestDeltaWake(t *testing.T) {
	// Load grows: two zombies and a sleeper wake, no hosts are freed.
	prev := FleetPlan{ActiveHosts: 10, ZombieHosts: 5, SleepHosts: 85}
	next := FleetPlan{ActiveHosts: 13, ZombieHosts: 3, SleepHosts: 84}
	d := Delta(prev, next, 60)
	if d.ZombieExits != 2 || d.ZombieEnters != 0 {
		t.Errorf("zombie exits = %d, want 2", d.ZombieExits)
	}
	if d.SleepExits != 1 || d.SleepEnters != 0 {
		t.Errorf("sleep exits = %d, want 1", d.SleepExits)
	}
	if d.FreedHosts != 0 || d.Migrations != 0 {
		t.Errorf("no hosts freed, got freed=%d migrations=%d", d.FreedHosts, d.Migrations)
	}
}

func TestDeltaMemoryServers(t *testing.T) {
	prev := FleetPlan{ActiveHosts: 20, MemoryServers: 2, SleepHosts: 78}
	next := FleetPlan{ActiveHosts: 20, MemoryServers: 5, SleepHosts: 75}
	d := Delta(prev, next, 10)
	if d.MemoryServerStarts != 3 || d.MemoryServerStops != 0 {
		t.Errorf("memory server starts/stops = %d/%d, want 3/0", d.MemoryServerStarts, d.MemoryServerStops)
	}
	if back := Delta(next, prev, 10); back.MemoryServerStops != 3 || back.MemoryServerStarts != 0 {
		t.Errorf("reverse delta = %+v, want 3 stops", back)
	}
}

func TestDeltaIdentical(t *testing.T) {
	plan := FleetPlan{ActiveHosts: 30, ZombieHosts: 10, SleepHosts: 60}
	if d := Delta(plan, plan, 100); d != (PlanDelta{}) {
		t.Errorf("identical plans should produce an empty delta, got %+v", d)
	}
	// Identical plans must stay event-free in every category, including
	// memory servers, and regardless of the VM population size.
	full := FleetPlan{ActiveHosts: 25, ZombieHosts: 5, MemoryServers: 10, SleepHosts: 60}
	for _, vms := range []int{0, 1, 500} {
		d := Delta(full, full, vms)
		if d != (PlanDelta{}) {
			t.Errorf("identical plans (vms=%d) should yield zero events, got %+v", vms, d)
		}
		if d.Transitions() != 0 {
			t.Errorf("identical plans (vms=%d) should count zero transitions, got %d", vms, d.Transitions())
		}
	}
}

func TestDeltaEmptyPreviousPlan(t *testing.T) {
	// A zero-value previous plan (no posture at all — distinct from
	// InitialPlan's all-awake fleet) means every category of the next plan
	// grows from nothing: each sleeping category pays its enters and no host
	// is freed, so no migrations are charged.
	next := FleetPlan{ActiveHosts: 12, ZombieHosts: 4, MemoryServers: 2, SleepHosts: 7}
	d := Delta(FleetPlan{}, next, 80)
	if d.SleepEnters != 7 || d.SleepExits != 0 {
		t.Errorf("sleep enters/exits = %d/%d, want 7/0", d.SleepEnters, d.SleepExits)
	}
	if d.ZombieEnters != 4 || d.ZombieExits != 0 {
		t.Errorf("zombie enters/exits = %d/%d, want 4/0", d.ZombieEnters, d.ZombieExits)
	}
	if d.MemoryServerStarts != 2 || d.MemoryServerStops != 0 {
		t.Errorf("memory server starts/stops = %d/%d, want 2/0", d.MemoryServerStarts, d.MemoryServerStops)
	}
	if d.FreedHosts != 0 || d.Migrations != 0 {
		t.Errorf("active hosts grew, so nothing drains; got freed=%d migrations=%d", d.FreedHosts, d.Migrations)
	}
	if d.Transitions() != 13 {
		t.Errorf("transitions = %d, want 13", d.Transitions())
	}
}

func TestDeltaMemoryServerOnlyChange(t *testing.T) {
	// Only the memory-server assignment changes: actives and zombies hold
	// steady, two sleepers are re-provisioned as memory servers. The delta
	// must charge exactly the memory-server starts and the matching sleep
	// exits — no migrations, because no active host was freed.
	prev := FleetPlan{ActiveHosts: 20, ZombieHosts: 5, MemoryServers: 3, SleepHosts: 72}
	next := FleetPlan{ActiveHosts: 20, ZombieHosts: 5, MemoryServers: 5, SleepHosts: 70}
	d := Delta(prev, next, 150)
	if d.MemoryServerStarts != 2 || d.MemoryServerStops != 0 {
		t.Errorf("memory server starts/stops = %d/%d, want 2/0", d.MemoryServerStarts, d.MemoryServerStops)
	}
	if d.SleepExits != 2 || d.SleepEnters != 0 {
		t.Errorf("sleep exits/enters = %d/%d, want 2/0", d.SleepExits, d.SleepEnters)
	}
	if d.ZombieEnters != 0 || d.ZombieExits != 0 {
		t.Errorf("zombies untouched, got enters=%d exits=%d", d.ZombieEnters, d.ZombieExits)
	}
	if d.FreedHosts != 0 || d.Migrations != 0 {
		t.Errorf("no active host freed, got freed=%d migrations=%d", d.FreedHosts, d.Migrations)
	}
	if d.Transitions() != 4 {
		t.Errorf("transitions = %d, want 4 (2 starts + 2 sleep exits)", d.Transitions())
	}
}

package consolidation

import (
	"fmt"
	"math"

	"repro/internal/acpi"
	"repro/internal/ident"
)

// VMDemand is the consolidation-level view of one VM (one trace task).
type VMDemand struct {
	ID           string
	BookedCPU    float64 // cores
	BookedMemGiB float64
	UsedCPU      float64
	UsedMemGiB   float64
}

// Idle reports whether the VM is idle by the paper's criterion (CPU
// utilization below 1% of a core).
func (v VMDemand) Idle() bool { return v.UsedCPU < 0.01 }

// WSSGiB estimates the VM's working set (the memory it actively uses).
func (v VMDemand) WSSGiB() float64 { return v.UsedMemGiB }

// ServerSpec describes one server model of the fleet.
type ServerSpec struct {
	Cores  float64
	MemGiB float64
}

// DefaultServerSpec matches the paper's testbed machines (8 cores, 16 GiB).
func DefaultServerSpec() ServerSpec { return ServerSpec{Cores: 8, MemGiB: 16} }

// FleetPlan is the outcome of one consolidation epoch at fleet level: how
// many servers are in each power state and how busy the active ones are.
type FleetPlan struct {
	// Policy names the algorithm that produced the plan.
	Policy string
	// ActiveHosts are servers in S0 running VMs.
	ActiveHosts int
	// ZombieHosts are servers in Sz lending their memory (ZombieStack only).
	ZombieHosts int
	// MemoryServers are Oasis low-power memory servers (Oasis only).
	MemoryServers int
	// SleepHosts are servers suspended to S3.
	SleepHosts int
	// ActiveCPUUtilization is the mean CPU utilization of the active hosts.
	ActiveCPUUtilization float64
	// RemoteMemoryGiB is the memory served remotely (zombie or memory server).
	RemoteMemoryGiB float64
}

// TotalHosts returns the fleet size covered by the plan.
func (p FleetPlan) TotalHosts() int {
	return p.ActiveHosts + p.ZombieHosts + p.MemoryServers + p.SleepHosts
}

// Category is one of a FleetPlan's server counts.
type Category uint8

// The posture categories.
const (
	ActiveHost Category = iota
	ZombieHost
	MemoryServer
	SleepHost
)

// Hosts returns a pointer to the plan's count of servers in category c.
func (p *FleetPlan) Hosts(c Category) *int {
	switch c {
	case ActiveHost:
		return &p.ActiveHosts
	case ZombieHost:
		return &p.ZombieHosts
	case MemoryServer:
		return &p.MemoryServers
	default:
		return &p.SleepHosts
	}
}

// Utilization is the mean CPU utilization of hosts servers of the given
// cores running usedCPU cores, clamped to [0, 1] (0 with no host or core).
// The clamps are explicit comparisons, so NaN and -0 pass through.
func Utilization(usedCPU float64, hosts int, cores float64) float64 {
	if hosts <= 0 || cores <= 0 {
		return 0
	}
	u := usedCPU / (float64(hosts) * cores)
	if u > 1 {
		return 1
	}
	if u < 0 {
		return 0
	}
	return u
}

// Policy plans one consolidation epoch at fleet level.
type Policy interface {
	// Name identifies the policy in result tables.
	Name() string
	// Plan distributes the currently running VMs over totalServers servers of
	// the given spec and decides every server's power state. It equals
	// PlanDemand(SumDemand(vms), spec, totalServers) field for field.
	Plan(vms []VMDemand, spec ServerSpec, totalServers int) FleetPlan
	// PlanDemand is Plan for any population whose sums are d: a caller that
	// keeps a population's sums, rather than the population, plans from them.
	PlanDemand(d Demand, spec ServerSpec, totalServers int) FleetPlan
}

// Demand is what the built-in policies read of a population: its size, its
// booked and used totals, and Oasis's split of it into busy and idle VMs
// (VMDemand.Idle). Every sum adds the population's terms left to right in the
// population's order, so planning from a population's Demand is bit-identical
// to planning from the population.
type Demand struct {
	VMs                                          int
	BookedCPU, BookedMemGiB, UsedCPU, UsedMemGiB float64
	// BusyVMs counts the VMs that are not idle, summed in the Busy totals.
	BusyVMs                                      int
	BusyBookedCPU, BusyBookedMemGiB, BusyUsedCPU float64
	// IdleWSSGiB is the idle VMs' working sets and IdleColdGiB the rest of
	// their booked memory.
	IdleWSSGiB, IdleColdGiB float64
}

// Add adds one VM to the population, after every VM already in it: its terms
// go to the sums the way SumDemand folds them, so adding a population's VMs in
// order to a zero Demand is SumDemand of the population, bit for bit.
func (d *Demand) Add(v VMDemand) {
	d.VMs++
	d.BookedCPU += v.BookedCPU
	d.BookedMemGiB += v.BookedMemGiB
	d.UsedCPU += v.UsedCPU
	d.UsedMemGiB += v.UsedMemGiB
	if v.Idle() {
		d.IdleWSSGiB += v.WSSGiB()
		d.IdleColdGiB += v.BookedMemGiB - v.WSSGiB()
	} else {
		d.BusyVMs++
		d.BusyBookedCPU += v.BookedCPU
		d.BusyBookedMemGiB += v.BookedMemGiB
		d.BusyUsedCPU += v.UsedCPU
	}
}

// SumDemand folds a population, in order, into its Demand.
func SumDemand(vms []VMDemand) Demand {
	d, s := sumTotals(vms), sumSplit(vms)
	d.BusyVMs, d.BusyBookedCPU, d.BusyBookedMemGiB, d.BusyUsedCPU = s.BusyVMs, s.BusyBookedCPU, s.BusyBookedMemGiB, s.BusyUsedCPU
	d.IdleWSSGiB, d.IdleColdGiB = s.IdleWSSGiB, s.IdleColdGiB
	return d
}

// sumTotals folds the population's size and its booked and used totals, the
// part of its Demand every policy but Oasis reads. The sums accumulate in
// locals, not through the struct, so they stay in registers.
func sumTotals(vms []VMDemand) Demand {
	var bookedCPU, bookedMem, usedCPU, usedMem float64
	for i := range vms {
		v := &vms[i]
		bookedCPU += v.BookedCPU
		bookedMem += v.BookedMemGiB
		usedCPU += v.UsedCPU
		usedMem += v.UsedMemGiB
	}
	return Demand{VMs: len(vms), BookedCPU: bookedCPU, BookedMemGiB: bookedMem, UsedCPU: usedCPU, UsedMemGiB: usedMem}
}

// sumSplit folds the population's busy/idle split, the part of its Demand
// Oasis reads.
func sumSplit(vms []VMDemand) Demand {
	var busyCPU, busyMem, busyUsedCPU, idleWSS, idleCold float64
	busy := 0
	for i := range vms {
		v := &vms[i]
		if v.Idle() {
			idleWSS += v.WSSGiB()
			idleCold += v.BookedMemGiB - v.WSSGiB()
		} else {
			busyCPU += v.BookedCPU
			busyMem += v.BookedMemGiB
			busyUsedCPU += v.UsedCPU
			busy++
		}
	}
	return Demand{
		VMs: len(vms), BusyVMs: busy, BusyBookedCPU: busyCPU, BusyBookedMemGiB: busyMem, BusyUsedCPU: busyUsedCPU,
		IdleWSSGiB: idleWSS, IdleColdGiB: idleCold,
	}
}

// clampHosts bounds n to [0, total].
func clampHosts(n, total int) int {
	if n < 0 {
		return 0
	}
	if n > total {
		return total
	}
	return n
}

// packTarget caps how full Neat, Oasis and ZombieStack pack the active
// servers (QoS headroom).
const packTarget float64 = 0.9

// ceilHosts is the servers that hold demand at perHost each, capped at total.
// The cap comes before the conversion, which keeps int() in range: a demand
// too large for an int takes the whole fleet.
func ceilHosts(demand, perHost float64, total int) int {
	h := math.Ceil(demand / perHost)
	if h > float64(total) {
		return total
	}
	return int(h)
}

// hostsFor is the sizing rule every built-in policy shares: the servers that
// hold cpu cores at cpuPerHost each and mem GiB at memPerHost each, at least
// one for a non-empty population, within the fleet.
func hostsFor(n int, cpu, cpuPerHost, mem, memPerHost float64, total int) int {
	active := max(ceilHosts(cpu, cpuPerHost, total), ceilHosts(mem, memPerHost, total))
	if n > 0 && active < 1 {
		active = 1
	}
	return clampHosts(active, total)
}

// NoConsolidation is the reference policy: every server stays in S0
// regardless of load. Figure 10's "% energy saving" is computed against it.
type NoConsolidation struct{}

// Name implements Policy.
func (NoConsolidation) Name() string { return "none" }

// Plan implements Policy.
func (p NoConsolidation) Plan(vms []VMDemand, spec ServerSpec, totalServers int) FleetPlan {
	return p.PlanDemand(sumTotals(vms), spec, totalServers)
}

// PlanDemand implements Policy.
func (NoConsolidation) PlanDemand(d Demand, spec ServerSpec, totalServers int) FleetPlan {
	return FleetPlan{Policy: "none", ActiveHosts: totalServers, ActiveCPUUtilization: Utilization(d.UsedCPU, totalServers, spec.Cores)}
}

// Neat packs VMs by their booked resources: a server must hold everything a
// VM booked, so the number of active servers is driven by whichever resource
// dimension saturates first (memory, for memory-heavy fleets). Freed servers
// suspend to S3.
type Neat struct{}

// NewNeat returns the Neat planner.
func NewNeat() *Neat { return &Neat{} }

// Name implements Policy.
func (n *Neat) Name() string { return "neat" }

// Plan implements Policy.
func (n *Neat) Plan(vms []VMDemand, spec ServerSpec, totalServers int) FleetPlan {
	return n.PlanDemand(sumTotals(vms), spec, totalServers)
}

// PlanDemand implements Policy. Memory is the binding dimension in the paper's
// fleets.
func (n *Neat) PlanDemand(d Demand, spec ServerSpec, totalServers int) FleetPlan {
	active := hostsFor(d.VMs, d.BookedCPU, spec.Cores*packTarget, d.BookedMemGiB, spec.MemGiB*packTarget, totalServers)
	return FleetPlan{
		Policy:               n.Name(),
		ActiveHosts:          active,
		SleepHosts:           totalServers - active,
		ActiveCPUUtilization: Utilization(d.UsedCPU, active, spec.Cores),
	}
}

// Oasis extends Neat: idle VMs are partially migrated, their non-working-set
// memory relocated to dedicated low-power memory servers so that the servers
// hosting only idle VMs can be suspended.
type Oasis struct{}

// NewOasis returns the Oasis planner.
func NewOasis() *Oasis { return &Oasis{} }

// Name implements Policy.
func (o *Oasis) Name() string { return "oasis" }

// Plan implements Policy.
func (o *Oasis) Plan(vms []VMDemand, spec ServerSpec, totalServers int) FleetPlan {
	return o.PlanDemand(sumSplit(vms), spec, totalServers)
}

// PlanDemand implements Policy. Busy VMs are packed like Neat (full
// reservations local), and the active servers must also hold the idle VMs'
// working sets; the rest of the idle VMs' memory moves to memory servers.
func (o *Oasis) PlanDemand(d Demand, spec ServerSpec, totalServers int) FleetPlan {
	active := hostsFor(d.BusyVMs, d.BusyBookedCPU, spec.Cores*packTarget, d.BusyBookedMemGiB, spec.MemGiB*packTarget, totalServers)
	active = max(active, ceilHosts(d.BusyBookedMemGiB+d.IdleWSSGiB, spec.MemGiB*packTarget, totalServers))
	memServers := 0
	if d.IdleColdGiB > 0 {
		memServers = clampHosts(ceilHosts(d.IdleColdGiB, spec.MemGiB, totalServers), totalServers-active)
	}
	return FleetPlan{
		Policy:               o.Name(),
		ActiveHosts:          active,
		MemoryServers:        memServers,
		SleepHosts:           totalServers - active - memServers,
		ActiveCPUUtilization: Utilization(d.BusyUsedCPU, active, spec.Cores),
		RemoteMemoryGiB:      d.IdleColdGiB,
	}
}

// ZombieStack packs VMs by CPU demand, keeping only LocalMemoryFraction of
// each VM's memory on the active servers; the overflow memory is served by
// zombie servers in Sz. Servers that are neither active nor needed as
// zombies suspend to S3.
type ZombieStack struct {
	// LocalMemoryFraction is the share of each VM's reserved memory that must
	// be local (the 50% placement rule; consolidation tolerates down to the
	// 30% WSS rule before waking a zombie).
	LocalMemoryFraction float64
}

// NewZombieStack returns the policy with the paper's 50% placement rule.
func NewZombieStack() *ZombieStack { return &ZombieStack{LocalMemoryFraction: 0.5} }

// Name implements Policy.
func (z *ZombieStack) Name() string { return "zombiestack" }

// Plan implements Policy.
func (z *ZombieStack) Plan(vms []VMDemand, spec ServerSpec, totalServers int) FleetPlan {
	return z.PlanDemand(sumTotals(vms), spec, totalServers)
}

// PlanDemand implements Policy. Active servers are sized by CPU demand and by
// the LOCAL part of the memory demand only; the memory demand beyond their
// local share is served remotely: first from the active servers' own leftover
// memory, then from zombie servers.
func (z *ZombieStack) PlanDemand(d Demand, spec ServerSpec, totalServers int) FleetPlan {
	localFrac := z.LocalMemoryFraction
	if localFrac <= 0 || localFrac > 1 {
		localFrac = 0.5
	}
	active := hostsFor(d.VMs, d.BookedCPU, spec.Cores*packTarget, d.BookedMemGiB*localFrac, spec.MemGiB*packTarget, totalServers)
	remoteNeed := d.BookedMemGiB - float64(active)*spec.MemGiB*packTarget
	if remoteNeed < 0 {
		remoteNeed = 0
	}
	zombies := 0
	if remoteNeed > 0 {
		zombies = clampHosts(ceilHosts(remoteNeed, spec.MemGiB, totalServers), totalServers-active)
	}
	return FleetPlan{
		Policy:               z.Name(),
		ActiveHosts:          active,
		ZombieHosts:          zombies,
		SleepHosts:           totalServers - active - zombies,
		ActiveCPUUtilization: Utilization(d.UsedCPU, active, spec.Cores),
		RemoteMemoryGiB:      remoteNeed,
	}
}

// SleepStateFor returns the ACPI state a policy uses for its non-active,
// non-zombie servers (all three suspend to S3) and for its special servers.
func SleepStateFor(policy string) acpi.SleepState {
	switch policy {
	case "zombiestack":
		return acpi.Sz
	default:
		return acpi.S3
	}
}

// AllPolicies returns the Figure 10 contenders plus the no-consolidation
// reference, in presentation order.
func AllPolicies() []Policy {
	return []Policy{NoConsolidation{}, NewNeat(), NewOasis(), NewZombieStack()}
}

// Contenders returns the three policies Figure 10 compares (Neat, Oasis,
// ZombieStack), without the no-consolidation baseline.
func Contenders() []Policy {
	return []Policy{NewNeat(), NewOasis(), NewZombieStack()}
}

// PolicyByName returns the named policy.
func PolicyByName(name string) (Policy, error) {
	for _, p := range AllPolicies() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("consolidation: unknown policy %q", name)
}

// --- Step-wise Neat loop (rack level) ---------------------------------------

// HostLoad is the step-wise planner's view of one host.
type HostLoad struct {
	ID string
	// CPUUtilization is used/total CPU (0..1).
	CPUUtilization float64
	// VMs currently placed on the host.
	VMs []VMDemand
	// FreeMemGiB is the host's free local memory.
	FreeMemGiB float64
	// Suspended reports whether the host is currently asleep.
	Suspended bool
}

// StepPlan is the outcome of one pass of the Neat consolidation loop. Hosts
// and VMs are referenced by dense ident IDs interned into Names — one shared
// namespace, so host and VM identifiers must not collide — and rendered back
// to strings only at the API edge (DestinationOf, HostNames).
type StepPlan struct {
	// Names interns every host and VM identifier the plan references.
	Names *ident.Registry
	// UnderloadedHosts should be emptied and suspended.
	UnderloadedHosts []ident.ID
	// OverloadedHosts need some VMs migrated away.
	OverloadedHosts []ident.ID
	// Migrations lists VM moves in placement order.
	Migrations []Migration
	// Suspend lists hosts to suspend after their VMs leave.
	Suspend []ident.ID
	// Wake lists suspended hosts that must be woken to receive VMs.
	Wake []ident.ID
	// migrated marks the VM IDs with a planned destination (membership
	// queries without scanning Migrations).
	migrated ident.Set
}

// Migration is one planned VM move.
type Migration struct {
	VM   ident.ID
	Dest ident.ID
}

// HostNames renders a plan ID list back to names (the API/rendering edge).
func (p *StepPlan) HostNames(ids []ident.ID) []string {
	if len(ids) == 0 {
		return nil
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = p.Names.Name(id)
	}
	return out
}

// DestinationOf returns the destination host planned for a VM, by name.
func (p *StepPlan) DestinationOf(vmID string) (string, bool) {
	id, ok := p.Names.Lookup(vmID)
	if !ok || !p.migrated.Has(id) {
		return "", false
	}
	for _, m := range p.Migrations {
		if m.VM == id {
			return p.Names.Name(m.Dest), true
		}
	}
	return "", false
}

// The step-wise loop's thresholds, as in the paper.
const (
	// underloadThreshold marks a host underloaded (the paper's Oasis
	// experiment uses 20%).
	underloadThreshold = 0.2
	// overloadThreshold marks a host overloaded.
	overloadThreshold = 0.9
	// wssFraction is the fraction of a VM's WSS that must fit on the target
	// when zombie-aware (Section 5.2).
	wssFraction = 0.3
)

// PlanSteps runs the four Neat steps over the current host loads: determine
// underloaded hosts, determine overloaded hosts, select VMs to migrate, and
// place them (waking suspended hosts when nothing else fits). A zombie-aware
// plan relaxes the placement constraint to the 30%-of-WSS rule.
func PlanSteps(hosts []HostLoad, zombieAware bool) StepPlan {
	plan := StepPlan{Names: ident.NewRegistry()}

	// Hosts are interned first, in input order, so host ident IDs double as
	// dense host indices for the bitsets below.
	hostID := make([]ident.ID, len(hosts))
	for i, h := range hosts {
		hostID[i] = plan.Names.Intern(h.ID)
	}

	// Steps 1 and 2: classify hosts.
	var under, over, normal []int
	for i, h := range hosts {
		if h.Suspended {
			continue
		}
		switch {
		case h.CPUUtilization < underloadThreshold:
			under = append(under, i)
			plan.UnderloadedHosts = append(plan.UnderloadedHosts, hostID[i])
		case h.CPUUtilization > overloadThreshold:
			over = append(over, i)
			plan.OverloadedHosts = append(plan.OverloadedHosts, hostID[i])
		default:
			normal = append(normal, i)
		}
	}

	// Step 3: select VMs to migrate — all VMs of underloaded hosts, and the
	// largest CPU consumer of each overloaded host (first wins on a tie).
	type pending struct {
		vm   VMDemand
		from int
	}
	var toMigrate []pending
	for _, i := range under {
		for _, v := range hosts[i].VMs {
			toMigrate = append(toMigrate, pending{v, i})
		}
	}
	for _, i := range over {
		best := -1
		for vi, v := range hosts[i].VMs {
			if best < 0 || v.UsedCPU > hosts[i].VMs[best].UsedCPU {
				best = vi
			}
		}
		if best >= 0 {
			toMigrate = append(toMigrate, pending{hosts[i].VMs[best], i})
		}
	}

	// Step 4: place the selected VMs on normal hosts; wake suspended hosts if
	// nothing fits. Targets are scanned in ascending host index order; free
	// headroom is a dense slice and the target/wake sets are bitsets, so the
	// per-VM scan neither hashes a string nor allocates.
	free := make([]float64, len(hosts))
	var isTarget ident.Set
	for _, i := range normal {
		free[i] = hosts[i].FreeMemGiB
		isTarget.Add(ident.ID(i))
	}
	var woken ident.Set
	for _, p := range toMigrate {
		need := p.vm.BookedMemGiB
		if zombieAware {
			need = p.vm.WSSGiB() * wssFraction
		}
		placed := false
		for i := range hosts {
			if i == p.from || !isTarget.Has(ident.ID(i)) {
				continue
			}
			if free[i] >= need {
				free[i] -= need
				vmID := plan.Names.Intern(p.vm.ID)
				plan.Migrations = append(plan.Migrations, Migration{VM: vmID, Dest: hostID[i]})
				plan.migrated.Add(vmID)
				placed = true
				break
			}
		}
		if !placed {
			// Wake a suspended host (the zombie with the fewest allocated
			// buffers in the real system; here the first suspended host).
			for i, h := range hosts {
				if h.Suspended && !woken.Has(ident.ID(i)) {
					woken.Add(ident.ID(i))
					plan.Wake = append(plan.Wake, hostID[i])
					vmID := plan.Names.Intern(p.vm.ID)
					plan.Migrations = append(plan.Migrations, Migration{VM: vmID, Dest: hostID[i]})
					plan.migrated.Add(vmID)
					free[i] = hosts[i].FreeMemGiB - need
					isTarget.Add(ident.ID(i))
					placed = true
					break
				}
			}
		}
		if !placed {
			// The VM stays where it is; its source host cannot be suspended.
			for j, id := range plan.UnderloadedHosts {
				if id == hostID[p.from] {
					plan.UnderloadedHosts = append(plan.UnderloadedHosts[:j], plan.UnderloadedHosts[j+1:]...)
					break
				}
			}
		}
	}

	// Underloaded hosts whose every VM found a destination are suspended.
	for _, i := range under {
		allMoved := true
		for _, v := range hosts[i].VMs {
			id, ok := plan.Names.Lookup(v.ID)
			if !ok || !plan.migrated.Has(id) {
				allMoved = false
				break
			}
		}
		stillListed := false
		for _, id := range plan.UnderloadedHosts {
			if id == hostID[i] {
				stillListed = true
				break
			}
		}
		if allMoved && stillListed {
			plan.Suspend = append(plan.Suspend, hostID[i])
		}
	}
	return plan
}

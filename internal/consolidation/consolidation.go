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

// Policy plans one consolidation epoch at fleet level.
type Policy interface {
	// Name identifies the policy in result tables.
	Name() string
	// Plan distributes the currently running VMs over totalServers servers of
	// the given spec and decides every server's power state.
	Plan(vms []VMDemand, spec ServerSpec, totalServers int) FleetPlan
}

// sumDemand returns the aggregate CPU (cores) and memory (GiB) demand, booked
// and used.
func sumDemand(vms []VMDemand) (bookedCPU, bookedMem, usedCPU, usedMem float64) {
	for _, v := range vms {
		bookedCPU += v.BookedCPU
		bookedMem += v.BookedMemGiB
		usedCPU += v.UsedCPU
		usedMem += v.UsedMemGiB
	}
	return
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

// packTarget is a planner's packing target: 0.9 unless set within (0,1].
func packTarget(t float64) float64 {
	if t <= 0 || t > 1 {
		return 0.9
	}
	return t
}

// hostsFor is the sizing rule Neat and ZombieStack share: the servers that
// hold cpu cores at cpuPerHost each and mem GiB at memPerHost each, at least
// one for a non-empty population, within the fleet. It is nondecreasing in cpu
// and mem (correctly rounded division by a positive constant, Ceil, max and
// clamps all are; clamping before the conversion keeps int() in range), so
// bounds on the two sums (SumBracket) give bounds on the answer.
func hostsFor(n int, cpu, cpuPerHost, mem, memPerHost float64, total int) int {
	ceilHosts := func(demand, perHost float64) int {
		h := math.Ceil(demand / perHost)
		if h > float64(total) {
			return total
		}
		return int(h)
	}
	active := max(ceilHosts(cpu, cpuPerHost), ceilHosts(mem, memPerHost))
	if n > 0 && active < 1 {
		active = 1
	}
	return clampHosts(active, total)
}

// SumBracket bounds the left-to-right float64 sum of n non-negative finite
// terms taken in any order, given their sum taken in one order. Recursive
// summation returns T(1+θ) for the true sum T with |θ| ≤ γ = (n-1)u/(1-(n-1)u),
// u = 2⁻⁵³, whatever the order (Higham, Accuracy and Stability of Numerical
// Algorithms, §4.2; no absolute term, since an addition with a subnormal
// result is exact), so two orders differ by a factor below 1+2nu. k = 1+4nu
// is exact in float64 and its spare 2nu absorbs the rounding of sum/k and
// sum*k. A non-finite hi means a sum overflowed and the bound does not hold.
func SumBracket(sum float64, n int) (lo, hi float64) {
	k := 1 + float64(n)*0x1p-51
	return sum / k, sum * k
}

// NoConsolidation is the reference policy: every server stays in S0
// regardless of load. Figure 10's "% energy saving" is computed against it.
type NoConsolidation struct{}

// Name implements Policy.
func (NoConsolidation) Name() string { return "none" }

// Plan implements Policy.
func (NoConsolidation) Plan(vms []VMDemand, spec ServerSpec, totalServers int) FleetPlan {
	_, _, usedCPU, _ := sumDemand(vms)
	util := 0.0
	if totalServers > 0 && spec.Cores > 0 {
		util = usedCPU / (float64(totalServers) * spec.Cores)
	}
	if util > 1 {
		util = 1
	}
	return FleetPlan{Policy: "none", ActiveHosts: totalServers, ActiveCPUUtilization: util}
}

// Neat packs VMs by their booked resources: a server must hold everything a
// VM booked, so the number of active servers is driven by whichever resource
// dimension saturates first (memory, for memory-heavy fleets). Freed servers
// suspend to S3.
type Neat struct {
	// TargetUtilization caps how full Neat packs the active servers (QoS
	// headroom); 0.9 by default.
	TargetUtilization float64
}

// NewNeat returns Neat with its default packing target.
func NewNeat() *Neat { return &Neat{TargetUtilization: 0.9} }

// Name implements Policy.
func (n *Neat) Name() string { return "neat" }

// ActiveHostsFor is Plan's ActiveHosts for any population of vms VMs whose
// booked demand sums to bookedCPU cores and bookedMem GiB, nondecreasing in
// both sums: the online loop sizes an arrival with it instead of folding the
// population again. Memory is the binding dimension in the paper's fleets.
func (n *Neat) ActiveHostsFor(vms int, bookedCPU, bookedMem float64, spec ServerSpec, totalServers int) int {
	target := packTarget(n.TargetUtilization)
	return hostsFor(vms, bookedCPU, spec.Cores*target, bookedMem, spec.MemGiB*target, totalServers)
}

// Plan implements Policy.
func (n *Neat) Plan(vms []VMDemand, spec ServerSpec, totalServers int) FleetPlan {
	bookedCPU, bookedMem, usedCPU, _ := sumDemand(vms)
	active := n.ActiveHostsFor(len(vms), bookedCPU, bookedMem, spec, totalServers)
	util := 0.0
	if active > 0 {
		util = usedCPU / (float64(active) * spec.Cores)
		if util > 1 {
			util = 1
		}
	}
	return FleetPlan{
		Policy:               n.Name(),
		ActiveHosts:          active,
		SleepHosts:           totalServers - active,
		ActiveCPUUtilization: util,
	}
}

// Oasis extends Neat: idle VMs are partially migrated, their non-working-set
// memory relocated to dedicated low-power memory servers so that the servers
// hosting only idle VMs can be suspended.
type Oasis struct {
	// TargetUtilization is the packing target for the active servers.
	TargetUtilization float64
	// MemoryServerPowerFraction is the power of one memory server relative to
	// a regular server (the paper assumes about 40%); kept here so the energy
	// model and the planner agree.
	MemoryServerPowerFraction float64
}

// NewOasis returns Oasis with the paper's assumptions.
func NewOasis() *Oasis {
	return &Oasis{TargetUtilization: 0.9, MemoryServerPowerFraction: 0.4}
}

// Name implements Policy.
func (o *Oasis) Name() string { return "oasis" }

// Plan implements Policy.
func (o *Oasis) Plan(vms []VMDemand, spec ServerSpec, totalServers int) FleetPlan {
	target := packTarget(o.TargetUtilization)
	// Split the fleet into busy and idle demand in one pass. The sums
	// accumulate in the same subsequence order the old busy/idle slices
	// preserved, so the floats are bit-identical — without materialising
	// either slice (Plan runs once per epoch in the simulator's hot loop).
	var busyCPU, busyMem, usedCPU float64
	var idleWSS, idleCold float64
	var nBusy int
	for _, v := range vms {
		if v.Idle() {
			// Idle VMs keep only their working set on the active servers; the
			// rest of their memory moves to memory servers.
			idleWSS += v.WSSGiB()
			idleCold += v.BookedMemGiB - v.WSSGiB()
		} else {
			busyCPU += v.BookedCPU
			busyMem += v.BookedMemGiB
			usedCPU += v.UsedCPU
			nBusy++
		}
	}
	// Busy VMs are packed like Neat (full reservations local).
	cpuHosts := int(math.Ceil(busyCPU / (spec.Cores * target)))
	memHosts := int(math.Ceil(busyMem / (spec.MemGiB * target)))
	active := cpuHosts
	if memHosts > active {
		active = memHosts
	}
	if nBusy > 0 && active < 1 {
		active = 1
	}
	// The working sets must still fit on active servers' memory.
	extraForWSS := int(math.Ceil((busyMem + idleWSS) / (spec.MemGiB * target)))
	if extraForWSS > active {
		active = extraForWSS
	}
	memServers := 0
	if idleCold > 0 {
		memServers = int(math.Ceil(idleCold / spec.MemGiB))
	}
	active = clampHosts(active, totalServers)
	memServers = clampHosts(memServers, totalServers-active)
	util := 0.0
	if active > 0 {
		util = usedCPU / (float64(active) * spec.Cores)
		if util > 1 {
			util = 1
		}
	}
	return FleetPlan{
		Policy:               o.Name(),
		ActiveHosts:          active,
		MemoryServers:        memServers,
		SleepHosts:           totalServers - active - memServers,
		ActiveCPUUtilization: util,
		RemoteMemoryGiB:      idleCold,
	}
}

// ZombieStack packs VMs by CPU demand, keeping only LocalMemoryFraction of
// each VM's memory on the active servers; the overflow memory is served by
// zombie servers in Sz. Servers that are neither active nor needed as
// zombies suspend to S3.
type ZombieStack struct {
	// TargetUtilization is the packing target for active servers.
	TargetUtilization float64
	// LocalMemoryFraction is the share of each VM's reserved memory that must
	// be local (the 50% placement rule; consolidation tolerates down to the
	// 30% WSS rule before waking a zombie).
	LocalMemoryFraction float64
	// WakeThresholdWSS is the fraction of a VM's WSS that must be available
	// before re-using an active server instead of waking a zombie (Section
	// 5.2 uses 30%).
	WakeThresholdWSS float64
}

// NewZombieStack returns the policy with the paper's parameters.
func NewZombieStack() *ZombieStack {
	return &ZombieStack{TargetUtilization: 0.9, LocalMemoryFraction: 0.5, WakeThresholdWSS: 0.3}
}

// Name implements Policy.
func (z *ZombieStack) Name() string { return "zombiestack" }

// ActiveHostsFor is Plan's ActiveHosts for any population of vms VMs whose
// booked demand sums to bookedCPU cores and bookedMem GiB, nondecreasing in
// both sums (see Neat.ActiveHostsFor): active servers are sized by CPU demand
// and by the LOCAL part of the memory demand only.
func (z *ZombieStack) ActiveHostsFor(vms int, bookedCPU, bookedMem float64, spec ServerSpec, totalServers int) int {
	target := packTarget(z.TargetUtilization)
	localFrac := z.LocalMemoryFraction
	if localFrac <= 0 || localFrac > 1 {
		localFrac = 0.5
	}
	return hostsFor(vms, bookedCPU, spec.Cores*target, bookedMem*localFrac, spec.MemGiB*target, totalServers)
}

// Plan implements Policy.
func (z *ZombieStack) Plan(vms []VMDemand, spec ServerSpec, totalServers int) FleetPlan {
	target := packTarget(z.TargetUtilization)
	bookedCPU, bookedMem, usedCPU, _ := sumDemand(vms)
	active := z.ActiveHostsFor(len(vms), bookedCPU, bookedMem, spec, totalServers)

	// The remaining memory demand is served remotely: first from the active
	// servers' own leftover memory, then from zombie servers.
	remoteNeed := bookedMem - float64(active)*spec.MemGiB*target
	if remoteNeed < 0 {
		remoteNeed = 0
	}
	zombies := 0
	if remoteNeed > 0 {
		zombies = int(math.Ceil(remoteNeed / spec.MemGiB))
	}
	zombies = clampHosts(zombies, totalServers-active)
	util := 0.0
	if active > 0 {
		util = usedCPU / (float64(active) * spec.Cores)
		if util > 1 {
			util = 1
		}
	}
	return FleetPlan{
		Policy:               z.Name(),
		ActiveHosts:          active,
		ZombieHosts:          zombies,
		SleepHosts:           totalServers - active - zombies,
		ActiveCPUUtilization: util,
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

// StepConfig parameterises the step-wise loop.
type StepConfig struct {
	// UnderloadThreshold marks a host underloaded (default 0.2, the paper's
	// Oasis experiment uses 20%).
	UnderloadThreshold float64
	// OverloadThreshold marks a host overloaded (default 0.9).
	OverloadThreshold float64
	// ZombieAware relaxes the placement constraint to the 30%-of-WSS rule and
	// suspends to Sz instead of S3.
	ZombieAware bool
	// WSSFraction is the fraction of a VM's WSS that must fit on the target
	// (0.3 in Section 5.2) when ZombieAware.
	WSSFraction float64
}

// DefaultStepConfig returns the thresholds used in the paper.
func DefaultStepConfig(zombieAware bool) StepConfig {
	return StepConfig{UnderloadThreshold: 0.2, OverloadThreshold: 0.9, ZombieAware: zombieAware, WSSFraction: 0.3}
}

// PlanSteps runs the four Neat steps over the current host loads: determine
// underloaded hosts, determine overloaded hosts, select VMs to migrate, and
// place them (waking suspended hosts when nothing else fits).
func PlanSteps(hosts []HostLoad, cfg StepConfig) StepPlan {
	if cfg.UnderloadThreshold <= 0 {
		cfg.UnderloadThreshold = 0.2
	}
	if cfg.OverloadThreshold <= 0 || cfg.OverloadThreshold > 1 {
		cfg.OverloadThreshold = 0.9
	}
	if cfg.WSSFraction <= 0 {
		cfg.WSSFraction = 0.3
	}
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
		case h.CPUUtilization < cfg.UnderloadThreshold:
			under = append(under, i)
			plan.UnderloadedHosts = append(plan.UnderloadedHosts, hostID[i])
		case h.CPUUtilization > cfg.OverloadThreshold:
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
		if cfg.ZombieAware {
			need = p.vm.WSSGiB() * cfg.WSSFraction
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

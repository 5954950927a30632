package consolidation

import "math"

// Plan deltas: the fleet-level planners return one aggregate FleetPlan per
// consolidation epoch, so the state changes between two consecutive epochs
// are fully determined by the pair of plans. Delta translates that pair into
// the transition events the datacenter simulator charges: how many servers
// suspend, wake or change role, and how many VM migrations are needed to
// drain the servers being released.

// PlanDelta counts the fleet transitions implied by moving from one epoch's
// plan to the next. Every count is a number of whole servers or VMs.
type PlanDelta struct {
	// SleepEnters / SleepExits are S0 -> S3 suspends and S3 -> S0 wakes.
	SleepEnters, SleepExits int
	// ZombieEnters / ZombieExits are S0 -> Sz pushes and Sz -> S0 wakes.
	ZombieEnters, ZombieExits int
	// MemoryServerStarts / MemoryServerStops count Oasis memory servers being
	// brought up (an S3 wake into the stripped-down serving mode) or released
	// (a suspend back to S3).
	MemoryServerStarts, MemoryServerStops int
	// FreedHosts is the number of previously active hosts released by the new
	// plan; each must be drained of its VMs before it can leave S0.
	FreedHosts int
	// Migrations is the number of VM moves needed to drain the freed hosts,
	// assuming VMs spread evenly over the previously active hosts.
	Migrations int
}

// Transitions returns the total number of ACPI state changes in the delta.
func (d PlanDelta) Transitions() int {
	return d.SleepEnters + d.SleepExits + d.ZombieEnters + d.ZombieExits +
		d.MemoryServerStarts + d.MemoryServerStops
}

// Delta derives the transition events between two consecutive epoch plans.
// vmCount is the VM population of the new epoch, used to size the migration
// drain of the freed hosts.
//
// Each sleeping category (S3, Sz, memory server) is compared independently: a
// growing category pays one enter per added server, a shrinking one pays one
// exit per removed server. Because the fleet size is constant, the active
// delta is the mirror of the sleeping deltas, so every server movement
// through S0 is counted exactly once — and a server that changes sleeping
// category (say S3 to Sz) is correctly charged one wake plus one re-suspend,
// which is the only physical path between sleep states.
func Delta(prev, next FleetPlan, vmCount int) PlanDelta {
	var d PlanDelta
	d.SleepEnters, d.SleepExits = split(next.SleepHosts - prev.SleepHosts)
	d.ZombieEnters, d.ZombieExits = split(next.ZombieHosts - prev.ZombieHosts)
	d.MemoryServerStarts, d.MemoryServerStops = split(next.MemoryServers - prev.MemoryServers)
	if freed := prev.ActiveHosts - next.ActiveHosts; freed > 0 {
		d.FreedHosts = freed
		if prev.ActiveHosts > 0 && vmCount > 0 {
			d.Migrations = int(math.Ceil(float64(vmCount) * float64(freed) / float64(prev.ActiveHosts)))
		}
	}
	return d
}

// split decomposes a signed count into (increase, decrease).
func split(delta int) (up, down int) {
	if delta > 0 {
		return delta, 0
	}
	return 0, -delta
}

// InitialPlan is the fleet state before the first consolidation epoch: every
// server awake in S0 and no load placed, the same no-consolidation posture
// the Figure 10 baseline integrates. The first epoch's transition bill is the
// cost of consolidating the fleet out of this state.
func InitialPlan(totalServers int) FleetPlan {
	return FleetPlan{Policy: "initial", ActiveHosts: totalServers}
}

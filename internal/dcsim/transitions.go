// The transition-cost model: the steady-state engine integrates each epoch as
// if the fleet had always been in the plan's posture, which is exactly the
// optimistic bound the paper's Figure 10 discussion warns about. This file
// charges the events that move the fleet between postures:
//
//   - ACPI transitions (S0 <-> S3, S0 <-> Sz, memory-server starts/stops)
//     derived from consecutive plans via consolidation.Delta, priced with the
//     acpi latency table through energy.TransitionJoules;
//   - migration drains: a host released by the new plan keeps burning S0 idle
//     power while its VMs migrate away, with per-VM durations from
//     internal/migration (the ZombieStack protocol for the zombiestack
//     policy, vanilla pre-copy otherwise — the Figure 9 comparison);
//   - remote-memory churn: active hosts fault on zombie-hosted pages; each
//     fault is a one-sided 4 KiB RDMA READ priced by the internal/rdma cost
//     model, and the faulting host stalls at its operating power.
//
// Every cost is a pure function of (previous plan, current plan, current VM
// population), all of which any epoch shard can derive independently, so the
// parallel engine stays bit-identical to the sequential one.

package dcsim

import (
	"repro/internal/acpi"
	"repro/internal/consolidation"
	"repro/internal/energy"
	"repro/internal/migration"
	"repro/internal/rdma"
	"repro/internal/vm"
)

// TransitionModel parameterises the per-epoch transition costs.
type TransitionModel struct {
	// Vanilla is the pre-copy migration protocol used to drain hosts under
	// the neat and oasis policies.
	Vanilla *migration.Vanilla
	// Zombie is the ZombieStack migration protocol (hot local pages only,
	// remote buffers re-pointed) used under the zombiestack policy.
	Zombie *migration.ZombieStack
	// LocalMemoryFraction is the share of a VM's memory kept local under the
	// zombiestack policy (the 50% placement rule), fed to Zombie.Migrate.
	LocalMemoryFraction float64
	// Fabric prices the remote-memory page faults.
	Fabric rdma.CostModel
	// RemoteFaultsPerGiBPerSec is the rate at which active hosts fault on
	// remotely-served memory, per GiB of remote memory.
	RemoteFaultsPerGiBPerSec float64
	// RemotePageBytes is the payload of one remote fault (guest page size).
	RemotePageBytes int
}

// DefaultTransitionModel returns the model with the paper's parameters: the
// Figure 9 migration protocols, the FDR-Infiniband fabric constants, the 50%
// local-memory rule and a moderate remote-fault rate.
func DefaultTransitionModel() *TransitionModel {
	return &TransitionModel{
		Vanilla:                  migration.NewVanilla(),
		Zombie:                   migration.NewZombieStack(),
		LocalMemoryFraction:      0.5,
		Fabric:                   rdma.DefaultCostModel(),
		RemoteFaultsPerGiBPerSec: 50,
		RemotePageBytes:          vm.DefaultPageSize,
	}
}

// TransitionBill is the priced outcome of one posture change. It is the
// exported face of the per-epoch transition accounting, shared with the
// online control plane (internal/autopilot), whose ticks and emergency wakes
// must be charged by exactly the rules the offline oracle pays under — the
// regret comparison is meaningless otherwise.
type TransitionBill struct {
	// Joules is the total energy charged to the posture change.
	Joules float64
	// Transitions is the number of ACPI state changes performed.
	Transitions int
	// Migrations is the number of VM moves draining the freed hosts.
	Migrations int
	// MigrationSeconds is the total host time spent draining.
	MigrationSeconds float64
}

// Cost prices moving the fleet from the prev posture to the next one, with
// the given VM population running: the ACPI suspend/wake events of the plan
// delta, the migration drains of the freed hosts (protocol selected by the
// policy name — the ZombieStack protocol for "zombiestack", vanilla pre-copy
// otherwise), and the remote-memory churn of the new posture over dt seconds.
// dt also caps each freed host's drain, so a host is never charged for
// draining longer than the interval it drains in. fabricFactor scales the
// churn's fabric latency — the chaos layer's degraded-fabric pricing; a
// factor of exactly 1 is the healthy fabric, and multiplying by 1.0 is exact
// in IEEE arithmetic, which keeps an empty fault plan indistinguishable from
// the no-chaos path.
func (tm *TransitionModel) Cost(m *energy.MachineProfile, policy string, prev, plan consolidation.FleetPlan, vms []consolidation.VMDemand, dt, fabricFactor float64) TransitionBill {
	d := consolidation.Delta(prev, plan, len(vms))
	var c TransitionBill
	c.Transitions = d.Transitions()

	// ACPI transitions. Memory servers are sleeping machines woken into the
	// Oasis low-power serving mode, so a start prices as an S3 wake and a
	// stop as a suspend back to S3.
	c.Joules += float64(d.SleepEnters) * m.TransitionJoules(acpi.S0, acpi.S3)
	c.Joules += float64(d.SleepExits) * m.TransitionJoules(acpi.S3, acpi.S0)
	c.Joules += float64(d.ZombieEnters) * m.TransitionJoules(acpi.S0, acpi.Sz)
	c.Joules += float64(d.ZombieExits) * m.TransitionJoules(acpi.Sz, acpi.S0)
	c.Joules += float64(d.MemoryServerStarts) * m.TransitionJoules(acpi.S3, acpi.S0)
	c.Joules += float64(d.MemoryServerStops) * m.TransitionJoules(acpi.S0, acpi.S3)

	// Migration drain: the freed hosts stay in S0 at idle power while their
	// VMs leave, in parallel across hosts, serially within a host.
	if d.Migrations > 0 && d.FreedHosts > 0 {
		if perMigSec := tm.migrationSeconds(policy, vms); perMigSec > 0 {
			perHost := perMigSec * float64(d.Migrations) / float64(d.FreedHosts)
			if perHost > dt {
				perHost = dt
			}
			c.Migrations = d.Migrations
			c.MigrationSeconds = perHost * float64(d.FreedHosts)
			c.Joules += c.MigrationSeconds * m.PowerWatts(acpi.S0, 0)
		}
	}

	// Remote-memory churn: faults on zombie- or memory-server-hosted pages
	// stall the faulting active host at its operating power for the fabric
	// round trip of one page.
	if plan.RemoteMemoryGiB > 0 && tm.RemoteFaultsPerGiBPerSec > 0 {
		faults := tm.RemoteFaultsPerGiBPerSec * plan.RemoteMemoryGiB * dt
		perFaultSec := float64(tm.Fabric.TransferNs(tm.Fabric.OneSidedLatencyNs, tm.RemotePageBytes)) / 1e9 * fabricFactor
		c.Joules += faults * perFaultSec * m.PowerWatts(acpi.S0, plan.ActiveCPUUtilization)
	}
	return c
}

// migrationSeconds returns the duration of migrating the epoch's mean VM
// under the policy's protocol, or 0 when the population is empty.
func (tm *TransitionModel) migrationSeconds(policy string, vms []consolidation.VMDemand) float64 {
	var bookedGiB, usedGiB float64
	for _, v := range vms {
		bookedGiB += v.BookedMemGiB
		usedGiB += v.UsedMemGiB
	}
	if len(vms) == 0 || bookedGiB <= 0 {
		return 0
	}
	wssRatio := usedGiB / bookedGiB
	if wssRatio > 1 {
		wssRatio = 1
	}
	meanVM := vm.New("epoch-mean", int64(bookedGiB/float64(len(vms))*float64(1<<30)), 0)
	if meanVM.ReservedBytes <= 0 {
		return 0
	}
	var res migration.Result
	var err error
	if policy == "zombiestack" {
		res, err = tm.Zombie.Migrate(meanVM, wssRatio, tm.LocalMemoryFraction)
	} else {
		res, err = tm.Vanilla.Migrate(meanVM, wssRatio)
	}
	if err != nil {
		return 0
	}
	return res.DurationSeconds()
}

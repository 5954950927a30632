// Package consolidation implements the VM consolidation systems compared in
// the paper's Section 6.6.2 (Figure 10):
//
//   - Neat: the OpenStack Neat consolidation loop (underload/overload
//     detection, VM selection, placement, suspend freed hosts). Vanilla Neat
//     only places a VM on a server that holds ALL the resources the VM booked,
//     so memory-heavy fleets strand CPU.
//   - Oasis: energy-oriented consolidation in which idle VMs are partially
//     migrated (only their working set moves) and their remaining memory is
//     relocated to a dedicated low-power memory server consuming about 40% of
//     a regular server, letting the original host suspend.
//   - ZombieStack: the paper's system. Placement only requires a fraction of
//     the VM's memory locally (the rest is remote), freed servers are pushed
//     into the Sz zombie state so their memory keeps serving the rack, and
//     zombies with the fewest allocated buffers are woken first.
//
// Two views are provided: a fleet-level planner (Policy) used by the
// datacenter simulator to reproduce Figure 10 and by the online control
// plane, and the step-wise Neat loop (PlanSteps) used at rack level.
//
// A Policy plans either a population (Plan) or its sums (PlanDemand, over a
// Demand: the VM count, the booked and used totals and the busy/idle split).
// The contract is Plan(vms) ≡ PlanDemand(SumDemand(vms)), field for field and
// bit for bit: each built-in policy has one sizing implementation,
// PlanDemand, and its Plan folds only the sums that policy reads. The
// datacenter simulator folds each epoch once and calls PlanDemand for every
// contender; the online loop holds its population and calls Plan.
package consolidation

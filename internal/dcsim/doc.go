// Package dcsim is the large-scale datacenter simulator of Section 6.6.2: it
// replays a (Google-like) task trace against a server fleet, runs a
// consolidation policy at a fixed period, and integrates the fleet's energy
// using the per-state power model of internal/energy. The output is the
// energy saving relative to the no-consolidation baseline, which is what
// Figure 10 reports for Neat, Oasis and ZombieStack on HP and Dell servers.
//
// A posture is priced by one rule, PosturePowerWatts: the number of hosts in
// each state times that state's power from the machine profile (Table 3),
// with an Oasis memory server at a constant 0.4 of the machine's peak power.
// The no-consolidation baseline, BaselinePowerWatts, keeps every server in S0
// with the load spread across the fleet. A posture change is billed by one
// function too, TransitionCost, over the paper's fixed parameters.
//
// Two accounting models are available. The steady-state model integrates each
// epoch as if the fleet had always been in the epoch plan's posture — the
// optimistic bound. With Config.TransitionCosts the engine becomes
// event-driven: every epoch's change of plan is translated into transition
// events — ACPI suspends and wakes priced by the internal/acpi latency table
// through energy.Prices.TransitionJoules, VM migration drains priced by the
// internal/migration protocols, and remote-memory faults priced by the
// internal/rdma cost model — and those events are charged against the epoch
// energy ledger (see transitions.go). The baseline fleet never transitions,
// so enabling transition costs can only lower the reported saving.
//
// An epoch's consolidation.Demand, the sums every policy plans from, comes
// from one difference pass over the trace (dcsim.go): each task adds its
// terms to the cell of the epoch it starts in and subtracts them from the
// cell after the last epoch it overlaps, and a prefix scan over the cells
// yields every epoch's population, rounded once per field. The sums are
// exact (internal/exact): the pass finds, in one scan, the fixed-point grid
// its trace's terms need — two 64-bit words for every generated family — so
// an exact add is an integer add, and no Demand depends on the tasks'
// order, their IDs or how the pass was split. No replay keys on a task ID,
// so a repeated one is two VMs.
//
// Runs that share a trace and a consolidation period share one epoch walk
// (parallel.go), whose grid scan validates the trace before any run's config
// and which computes each epoch's Demand once for every run to plan and price
// from its own energy.Prices table.
//
// The simulation decomposes into independent consolidation epochs, so with
// Config.Workers above 1 the walk splits both halves: the tasks into equal
// contiguous ranges, each entered into its own difference array, merged
// exactly; then the epochs into equal contiguous ranges, planned and priced
// concurrently (placement evaluation, energy integration and transition
// pricing) and merged back per run in epoch order. Transition events depend
// only on the previous and current epoch plans, both pure functions of their
// epoch Demands, so a range derives its predecessor plan with a one-epoch
// lookback and the merge performs exactly the same floating-point additions
// in exactly the same order as the sequential path: a parallel run is
// bit-identical to a sequential one (see parallel.go).
//
// internal/autopilot's online loop replays a trace through a replay index of
// its own; its oracles are plain Runs of the same trace.
//
// On top of single runs, sweep.go provides a scenario-sweep harness that runs
// a grid of {policy, machine profile, trace, consolidation period,
// transition-cost on/off} scenarios, one walk per (trace, period) group, the
// groups concurrently, and aggregates the results with internal/metrics.
//
// Because the engine plans each epoch with the epoch's whole population —
// knowledge no causal controller has — a run is also the offline upper bound
// for the online control plane: Oracle runs the engine with transition costs
// forced on, and internal/autopilot measures its regret against that
// configuration using the same exported pricing rules (PosturePowerWatts, BaselinePowerWatts,
// TransitionCost).
//
// Config.Chaos re-runs any of the above under a deterministic fault schedule
// (internal/chaos): epochs plan against the then-surviving fleet, crashed
// servers burn wedged at S0 idle, the churn bill is scaled by the epoch's
// fabric degradation factor, and wasted wakes, re-homing transfers and
// controller rebuilds are charged per epoch (see chaos.go). Every chaos
// charge is a pure function of (plan, epoch span, posture), so the parallel
// engine stays bit-identical — and the oracle can be re-run under the same
// schedule the online loop suffered, giving the resilience regret.
package dcsim

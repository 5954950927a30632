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
// through energy.TransitionJoules, VM migration drains priced by the
// internal/migration protocols, and remote-memory faults priced by the
// internal/rdma cost model — and those events are charged against the epoch
// energy ledger (see transitions.go). The baseline fleet never transitions,
// so enabling transition costs can only lower the reported saving.
//
// A run replays its trace through one read-only ReplayIndex (dcsim.go): the
// tasks in start order, each VM's rank in the lexicographic VM-ID order
// populations are planned and integrated in, its demand ready to copy, and
// its VM ID as a substring of one buffer. The ranks are sorted by an integer
// key that orders like the "task-%d" strings, so the build compares no string
// either. Run builds the index; internal/autopilot, whose online loop keeps
// its running set by rank, builds it once per trace and fault plan and hands
// it to its online runs and, through RunIndexed, to the oracle. The index is
// always passed as an argument and never cached on the trace. A replayer
// derives an epoch's population by merging the epoch's arrivals, sorted by
// rank, with the surviving running set — linear, no string compared, nothing
// allocated — and seeks to any epoch with one filtered scan of the tasks
// started by then. A trace that repeats a task ID is rejected at the build.
//
// Runs that share a trace and a consolidation period share one epoch walk
// (parallel.go): CompareOpts and Sweep build the index once per trace, and the
// walk builds each epoch's population once for every run to plan and price.
//
// The simulation decomposes into independent consolidation epochs, so the
// walk can shard the per-epoch accounting (placement evaluation, energy
// integration and transition pricing) across a pool of workers: set
// Config.Workers above 1 and the epochs are split into contiguous shards of
// near-equal population, each seeking to its own start, simulated
// concurrently, and merged back per run in epoch order. Transition events
// depend only on the previous and current epoch plans, both pure functions of
// their epoch populations, so a shard derives its predecessor plan with a
// one-epoch lookback and the merge performs exactly the same floating-point
// additions in exactly the same order as the sequential path: a parallel run
// is bit-identical to a sequential one (see parallel.go).
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

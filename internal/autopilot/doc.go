// Package autopilot is the online autonomic control plane: a deterministic
// discrete-event loop that consumes a trace's streaming arrival feed
// (trace.Stream), admits and places each task at its arrival instant, and on
// a configurable tick re-plans consolidation incrementally — the adopted
// posture is diffed into suspend/zombie/wake events via consolidation.Delta
// — under a pluggable online policy: reactive threshold, hysteresis
// watermarks, or predictive EWMA forecasting, each with fixed parameters
// (the headrooms, watermarks and smoothing constants in policy.go).
//
// The offline simulator (internal/dcsim) replays whole epochs with oracle
// knowledge of each epoch's population, which makes every Figure 10 savings
// number an optimistic bound (the paper's consolidation manager, §6.6, runs
// online and has no such knowledge). The autopilot closes that gap: it only
// ever sees the past, pays for every posture change through the same
// transition bill as the offline engine (dcsim.TransitionCost), and bills
// steady-state power through the same pricing rules (dcsim.PosturePowerWatts,
// with an Oasis memory server at a constant 0.4 of peak power, and
// dcsim.BaselinePowerWatts) on a tick-quantized ledger that mirrors the
// oracle's epoch accounting (see Run), so the regret
// report (Regret) comparing its costed saving against dcsim.Oracle on the
// same trace isolates decision quality alone. Everything is
// seed-deterministic: a fixed trace seed reproduces the full regret report
// bit for bit.
//
// The loop replays through the trace's dcsim.ReplayIndex: it knows a VM by
// its rank, its place in the arrival order, reads an event's demand from the
// event's task, and keeps the running set as a bitset over ranks, whose view
// in rank order is written into a reused buffer only when the policy, a tick
// or a migration bill reads it, so a run allocates nothing per task or tick.
// The interval's cumulative population is one consolidation.Demand: SumDemand
// of the running set at a tick, and an admitted arrival, which ranks after
// every member, adds its terms after theirs, so the Demand is always the
// population's fold in rank order. An arrival is sized by the planner's
// PlanDemand of it. Whatever replays one trace more than once sorts its event
// order and builds its index once: Regret, CompareOnline, RunChaos,
// CompareChaos and ChaosRow give each online run a trace.Stream.Restart
// cursor and the index, which the oracle shares, and compute each oracle
// once, since it ignores the online policy.
//
// Decisions can additionally be executed against a live multi-rack
// fleet.Fleet through FleetExecutor, which mirrors every posture as real
// per-server ACPI transitions (S0/Sz/S3) on the rack model's energy ledger.
//
// The loop is also the injection point of the deterministic fault layer
// (internal/chaos): with Config.Chaos set, crashes, stuck wakes, controller
// losses and fabric degradation are consumed as a fourth event source
// (see chaos.go) — crashed and stuck servers leave the usable pool, failed
// emergency wakes bill their wasted transitions and escalate, crashed
// serving servers re-home their remote memory — and RunChaos compares the
// faulted run against its fault-free twin and against the oracle re-run
// under the identical schedule (the resilience regret). ChaosRow is the same
// comparison for several policies at once, its simulations exposed as
// independent jobs: a row of the scenario matrix.
package autopilot

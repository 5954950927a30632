// Package autopilot is the online autonomic control plane: a deterministic
// discrete-event loop that consumes a trace's streaming arrival feed
// (trace.Stream), admits and places each task at its arrival instant, and on
// a configurable tick re-plans consolidation incrementally — the adopted
// posture is diffed into suspend/zombie/wake events via consolidation.Delta
// (consolidation.Replan packages plan and delta for cost-aware controllers)
// — under a pluggable online policy: reactive threshold, hysteresis
// watermarks, or predictive EWMA forecasting.
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
// its rank in VM-ID order, keeps the running set as a bitset over ranks, and
// writes the ID-sorted population into a reused buffer only when the policy,
// the interval reset or a migration bill reads it, so a run allocates nothing
// per task or per tick. An admitted arrival is sized against the interval's
// cumulative population without reading it: the loop keeps that population's
// booked sums (folded in ID order at each tick, added to per arrival) and
// evaluates the planner's sizing rule at both ends of the rounding bracket
// around them (consolidation.SumBracket has the bound and its proof sketch),
// folding the population only if the ends disagree or the planner has no
// rule; the sorted view is brought up to date when the bill, a tick or that
// fold reads it. Whatever replays one trace more than once passes the
// index on instead of rebuilding it: Regret hands it to the online loop and
// the oracle, and CompareOnline, RunChaos, CompareChaos and ChaosRow also
// compute each oracle once, since it does not depend on the online policy.
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

// Package autopilot is the online autonomic control plane: a deterministic
// discrete-event loop that walks a trace's arrivals and departures in causal
// order (trace.Stream's), admits and places each task at its arrival
// instant, and on a configurable tick re-plans consolidation incrementally —
// the adopted posture is diffed into suspend/zombie/wake events via
// consolidation.Delta — under a pluggable online policy: reactive threshold,
// hysteresis watermarks, or predictive EWMA forecasting, each with fixed
// parameters (the headrooms, watermarks and smoothing constants in
// policy.go).
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
// The loop replays through the trace's replay index (index.go): it knows a
// VM by its rank, its place in the arrival order, merges the index's arrival
// and departure orders itself, reads each VM's task at its rank (the trace's
// own slice when the trace is in arrival order, one sorted copy otherwise),
// and keeps the running set as a bitset over ranks, so a run allocates
// nothing per task or tick. The index is built in one pass in arrival order,
// which also applies Task.ValidateIn and returns Trace.Validate's error,
// while the departure order is sorted on a second goroutine. A tick folds
// the running set once, in rank order (the index's fold): that one
// consolidation.Demand is what the policy observes (Observation.Demand), what
// the drain of freed hosts is billed against, and the next interval's
// cumulative population, to which each admitted arrival, ranking after every
// member, adds its terms, so the interval's Demand is always the population's
// fold in rank order. An arrival is sized by the planner's PlanDemand of it.
//
// Admission reads the running set's booked sums and the usable fleet, never
// a posture, so without chaos every policy admits, rejects and retires the
// same tasks. One walk of the feed therefore carries several policies as
// lanes: the running set, its books, the interval's Demand, the tick's fold
// and each distinct planner's sizing are the walk's, and a lane holds only a
// policy's posture, ledger and emergency wakes. CompareOnline and the
// fault-free twins of every ChaosRow, CompareChaos and RunChaos run their
// policies as one walk; Run, Regret and every faulted run are walks of one
// lane. Whatever replays one trace more than once builds its index once and
// computes each oracle once, since the oracle ignores the online policy.
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

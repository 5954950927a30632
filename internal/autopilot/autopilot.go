package autopilot

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/acpi"
	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/dcsim"
	"repro/internal/energy"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config parameterises one online control-plane run.
type Config struct {
	// Trace is the workload whose arrival feed the loop consumes.
	Trace *trace.Trace
	// Policy is the online decision policy (reactive, hysteresis, EWMA...).
	// The bundled policies hold forecasting state, so a Config needs a fresh
	// policy per run.
	Policy Policy
	// Machine is the power profile of every server in the fleet.
	Machine *energy.MachineProfile
	// ServerSpec is the capacity of every server.
	ServerSpec consolidation.ServerSpec
	// TickSec is the re-planning period of the control loop; 300 s by
	// default. The regret oracle runs with the same consolidation period.
	TickSec int64
	// Executor, when set, mirrors every decision onto a backing system (a
	// live fleet.Fleet via FleetExecutor). Nil keeps the run on the abstract
	// energy ledger only.
	Executor Executor
	// Chaos replays the run under a deterministic fault schedule: crashes,
	// stuck wakes, controller losses and fabric degradation are injected as
	// loop events and billed as energy penalties (see chaos.go). Nil or an
	// empty plan leaves the run bit-identical to the fault-free path. The
	// caller decides whether to apply the plan's trace perturbation
	// (chaos.Plan.PerturbTrace) — Regret and RunChaos do.
	Chaos *chaos.Plan
	// Workers shards the offline oracle's epoch accounting when this config
	// is replayed through Regret or RunChaos; the online loop itself is
	// inherently sequential. Any value yields bit-identical reports.
	Workers int
	// OnTick, when set, observes the control loop: it is called after every
	// re-planning pass with a snapshot of the posture just installed and the
	// run's cumulative counters. Telemetry only — the callback cannot
	// influence the run, and a nil hook leaves the loop bit-identical. Under
	// RunChaos the hook observes the faulted run only (the fault-free twin
	// runs silently), so a subscriber sees one coherent event sequence.
	OnTick func(TickEvent)
	// Obs, when set, attaches the run to an observability bundle: counters
	// for the stream and ledger totals, and trace events for every tick,
	// re-plan, billed transition and chaos moment, stamped with the loop's
	// simulated clock so exports are byte-stable. Telemetry only — a nil
	// bundle leaves the loop bit-identical and allocation-free.
	Obs *obs.Obs
}

// TickEvent is the telemetry snapshot OnTick receives after each re-planning
// tick: the instant, the posture the policy just installed, and the run's
// cumulative stream and energy counters up to that instant.
type TickEvent struct {
	// AtSec is the tick instant; Tick its ordinal (1-based).
	AtSec int64 `json:"at_sec"`
	Tick  int   `json:"tick"`
	// The posture installed for the next interval.
	ActiveHosts     int     `json:"active_hosts"`
	ZombieHosts     int     `json:"zombie_hosts"`
	MemoryServers   int     `json:"memory_servers"`
	SleepHosts      int     `json:"sleep_hosts"`
	RemoteMemoryGiB float64 `json:"remote_gib"`
	// Running is the admitted population present at the tick.
	Running int `json:"running"`
	// Cumulative stream counters as of this tick.
	Arrivals       int `json:"arrivals"`
	Admitted       int `json:"admitted"`
	Rejected       int `json:"rejected"`
	EmergencyWakes int `json:"emergency_wakes"`
	// Cumulative energy ledger as of this tick (the interval just billed
	// included), in joules.
	EnergyJoules   float64 `json:"energy_j"`
	BaselineJoules float64 `json:"baseline_j"`
}

// Validate checks the configuration, its trace first.
func (c *Config) Validate() error { return c.traceFirst(c.validateRun()) }

// traceFirst returns the trace's error if the trace fails Trace.Validate, and
// err otherwise. The entry points check the trace as they index it, after the
// rest of the configuration, and call it only when that fails, so a bad trace
// is still reported before a bad configuration.
func (c *Config) traceFirst(err error) error {
	if c.Trace != nil {
		if terr := c.Trace.Validate(); terr != nil {
			return terr
		}
	}
	return err
}

// validateRun checks everything the configuration adds to its trace.
func (c *Config) validateRun() error {
	if c.Trace == nil {
		return fmt.Errorf("autopilot: a trace is required")
	}
	if err := validatePolicy(c.Policy); err != nil {
		return err
	}
	if c.Machine == nil {
		return fmt.Errorf("autopilot: a machine power profile is required")
	}
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if c.ServerSpec.Cores <= 0 || c.ServerSpec.MemGiB <= 0 {
		return fmt.Errorf("autopilot: server spec needs positive capacity")
	}
	if c.TickSec < 0 {
		return fmt.Errorf("autopilot: negative tick period %d", c.TickSec)
	}
	// The walk's tick clock runs to the first tick past the horizon.
	if tick := cmp.Or(c.TickSec, defaultTickSec); c.Trace.HorizonSec > math.MaxInt64-tick {
		return fmt.Errorf("autopilot: horizon %d s plus tick period %d s overflows int64", c.Trace.HorizonSec, tick)
	}
	if c.Workers < 0 {
		return fmt.Errorf("autopilot: negative worker count %d", c.Workers)
	}
	if err := c.Chaos.Validate(); err != nil {
		return err
	}
	if c.Executor != nil && !c.Chaos.Empty() {
		// The executor maps postures onto a fixed-size live fleet; a chaos
		// run shrinks the abstract fleet under it. Drive live-fleet faults
		// through fleet.Fleet's own fault surface instead.
		return fmt.Errorf("autopilot: chaos runs use the abstract ledger only; unset Executor or use an empty plan")
	}
	// An executor that knows its server count (FleetExecutor does) must match
	// the trace's fleet size — catching it here turns a mid-run panic into a
	// configuration error.
	if sized, ok := c.Executor.(interface{ Servers() int }); ok {
		if n := sized.Servers(); n != c.Trace.Machines {
			return fmt.Errorf("autopilot: executor drives %d servers, trace has %d machines", n, c.Trace.Machines)
		}
	}
	return nil
}

// validatePolicy checks the one part of a configuration that differs between
// the runs of a comparison.
func validatePolicy(p Policy) error {
	if p == nil {
		return fmt.Errorf("autopilot: an online policy is required")
	}
	if p.Planner() == nil {
		return fmt.Errorf("autopilot: policy %q has no base planner", p.Name())
	}
	return nil
}

// defaultTickSec is the tick period a zero TickSec selects.
const defaultTickSec = 300

// applyDefaults fills optional fields.
func (c *Config) applyDefaults() {
	c.TickSec = cmp.Or(c.TickSec, defaultTickSec)
}

// Result summarises one online run. Energy accounting is directly comparable
// to dcsim.Result: same baseline rule, same transition-cost model, same
// steady-state pricing — only the knowledge differs.
type Result struct {
	// Policy is the online policy, Planner its base consolidation planner.
	Policy  string
	Planner string
	Trace   string
	Machine string
	// TickSec is the re-planning period the run used.
	TickSec int64
	// EnergyJoules is the fleet energy over the horizon, transition costs
	// included; BaselineJoules is the no-consolidation fleet energy. Both are
	// tick-quantized: each tick interval is billed as one block against the
	// interval's cumulative population, the same rule the offline engine
	// applies per epoch (see Run).
	EnergyJoules   float64
	BaselineJoules float64
	// SavingPercent is the costed online saving: 100*(1-Energy/Baseline).
	SavingPercent float64
	// TransitionJoules is the part of EnergyJoules charged to posture
	// changes (ACPI events, migration drains, remote-memory churn).
	TransitionJoules float64
	// StateTransitions counts ACPI state changes; Migrations the VM moves
	// draining freed hosts; MigrationSeconds the host time spent draining.
	StateTransitions int
	Migrations       int
	MigrationSeconds float64
	// Ticks is the number of re-planning ticks executed.
	Ticks int
	// Arrivals and Departures count the stream events seen; Admitted and
	// Rejected split the arrivals by the admission decision.
	Arrivals   int
	Departures int
	Admitted   int
	Rejected   int
	// EmergencyWakes counts servers woken between ticks because an arrival
	// did not fit the current posture — the cost of not knowing the future.
	EmergencyWakes int
	// MeanActiveHosts is the time-weighted mean number of S0 servers;
	// PeakActiveHosts the maximum posture the loop ever held.
	MeanActiveHosts float64
	PeakActiveHosts int

	// Chaos counters, all zero on a fault-free run. ChaosScenario names the
	// fault plan; SLOViolations counts arrivals the degraded fleet could not
	// serve at full capacity; WastedTransitions the ACPI events that bought
	// nothing (failed wakes); WastedJoules every fault penalty charged to
	// EnergyJoules (wedged-server burn, stuck zombies, wasted wakes,
	// re-homing transfers, controller rebuilds); ReHomedGiB the remote
	// memory re-homed off crashed serving servers; ServerCrashes /
	// StuckZombies / ControllerFailovers the faults that actually struck.
	ChaosScenario       string
	SLOViolations       int
	WastedTransitions   int
	WastedJoules        float64
	ReHomedGiB          float64
	ServerCrashes       int
	StuckZombies        int
	ControllerFailovers int
}

// walk is one pass over a replay's event feed. It holds what admission reads
// once — the running set, its books and the interval's Demand — and carries a
// lane per policy: the posture, ledger and policy of one run. Admission
// compares the books with the usable fleet and never reads a posture, so
// without chaos every policy admits, rejects and retires the same tasks, and
// one walk carries them all (see replay.jobs). Under chaos the usable fleet is
// what the lane's own posture has lost, so a chaos walk has one lane, and so
// has a walk that drives an executor, calls OnTick or feeds Obs.
type walk struct {
	cfg   *Config
	total int
	// prices is cfg.Machine compiled for the walk.
	prices energy.Prices

	// idx is the trace's replay index: the walk knows a VM by its rank, its
	// position in the arrival order, and reads its events and its demand from
	// the index.
	idx *replayIndex
	// running is the admitted population, a bitset over ranks, and the books
	// its running sums.
	running   ident.Set
	bookedCPU float64
	bookedMem float64
	usedCPU   float64

	// intervalStart is the beginning of the current tick interval and cum the
	// Demand of the interval's cumulative population: every task admitted at
	// any point since the interval started, departures included. The ledger
	// bills whole intervals against it (see billInterval), and emergency wakes
	// size against it too — a departure's capacity is only reclaimed at the
	// next re-plan tick, the way a periodic consolidation manager works. A
	// tick sets cum to the fold of the running set in rank order, and an
	// admitted arrival, whose rank follows every member's, is added after
	// them: cum is always SumDemand of the interval population in rank order.
	intervalStart int64
	cum           consolidation.Demand

	// The stream counters, which every lane shares.
	ticks, arrivals, departures, admitted, rejected int

	lanes []lane

	// chaos is the fault-injection state of the run, nil on fault-free runs
	// so every chaos branch is skipped and the loop stays bit-identical to
	// the pre-chaos path.
	chaos *chaosRun

	// obs is the resolved observability handle, nil on unobserved runs so
	// every emission site is one pointer test and no allocation (see obs.go).
	obs *apObs
}

// lane is one policy's run within a walk.
type lane struct {
	*walk
	policy  Policy
	planner consolidation.Policy
	// sizer is the walk's first lane with this lane's planner. It plans the
	// requirement of each admission into required, which the later lanes with
	// the same planner read.
	sizer    *lane
	required int

	posture  consolidation.FleetPlan
	res      Result
	activeDt float64
}

// laneError is one lane's failure. It reads as the failure itself and keeps
// the policy's name, which a comparison of several policies reports.
type laneError struct {
	policy string
	err    error
}

func (e *laneError) Error() string { return e.err.Error() }
func (e *laneError) Unwrap() error { return e.err }

// Run executes the online control loop over the trace's arrival feed.
//
// The loop is event-driven: arrivals, departures, and re-planning ticks are
// processed in time order (departures before arrivals at equal instants,
// trace.Stream's order, and a due tick last, so the policy observes the
// population as of the tick instant). The first tick fires at TickSec —
// before it the fleet holds the all-awake initial posture, because an online
// controller has not seen anything yet.
//
// The energy ledger is tick-quantized, deliberately mirroring the offline
// engine's epoch accounting so the regret comparison is apples to apples: at
// the end of each tick interval the whole interval is billed at the posture
// then held (emergency wakes included — a server the controller had to power
// on mid-interval was provisioned for this interval's population) with the
// utilization and baseline of the interval's cumulative population, exactly
// the population the offline oracle plans that epoch for. Decisions remain
// strictly causal; only the billing granularity is aligned.
func Run(cfg Config) (Result, error) {
	if err := cfg.validateRun(); err != nil {
		return Result{}, cfg.traceFirst(err)
	}
	idx, err := newReplayIndex(cfg.Trace)
	if err != nil {
		return Result{}, err
	}
	cfg.applyDefaults()
	w := newWalk(&cfg, idx, []Policy{cfg.Policy})
	if err := w.run(); err != nil {
		return Result{}, err
	}
	return w.lanes[0].res, nil
}

// newWalk prepares a walk of a validated configuration with defaults applied,
// over the index of its trace, with a lane for each policy (a fresh instance
// each, cfg.Policy is not read). Several lanes need a configuration that
// walks them together (see walk).
func newWalk(cfg *Config, idx *replayIndex, policies []Policy) *walk {
	w := &walk{cfg: cfg, total: cfg.Trace.Machines, prices: cfg.Machine.Prices(), idx: idx, lanes: make([]lane, len(policies)), obs: newAPObs(cfg.Obs)}
	if !cfg.Chaos.Empty() {
		w.chaos = newChaosRun(cfg.Chaos)
	}
	for i, pol := range policies {
		l := &w.lanes[i]
		*l = lane{walk: w, policy: pol, planner: pol.Planner(), posture: consolidation.InitialPlan(w.total)}
		l.sizer = l
		if k := slices.IndexFunc(w.lanes[:i], func(o lane) bool { return samePlanner(o.planner, l.planner) }); k >= 0 {
			l.sizer = &w.lanes[k]
		}
		l.res = Result{
			Policy:          pol.Name(),
			Planner:         l.planner.Name(),
			Trace:           cfg.Trace.Name,
			Machine:         cfg.Machine.Name,
			TickSec:         cfg.TickSec,
			PeakActiveHosts: l.posture.ActiveHosts,
		}
		if w.chaos != nil {
			l.res.ChaosScenario = cfg.Chaos.Name
		}
	}
	return w
}

// run walks the trace to the horizon and closes every lane's ledger. A
// lane's failure ends the walk as a *laneError. The next arrival is the VM
// of rank arrived and the next departure departs[left].
func (w *walk) run() error {
	horizon := w.cfg.Trace.HorizonSec
	tasks, departs := w.idx.tasks, w.idx.departs
	arrived, left := 0, 0
	now := int64(0)
	nextTick := w.cfg.TickSec

	for now < horizon {
		// The next moment: the earliest of the next chaos fault, the next
		// departure and arrival, the next tick and the horizon.
		t := min(horizon, nextTick)
		if left < len(departs) {
			t = min(t, tasks[departs[left]].EndSec)
		}
		if arrived < len(tasks) {
			t = min(t, tasks[arrived].StartSec)
		}
		if w.chaos != nil {
			if m, ok := w.chaos.peek(); ok && m.at < t {
				t = m.at
			}
		}
		for i := range w.lanes {
			w.lanes[i].integrate(now, t)
		}
		now = t

		// At equal instants faults strike first (the fleet an arrival meets
		// is the already-degraded one), then departures, then arrivals, each
		// in its index order, then a due tick — fully deterministic.
		if w.chaos != nil {
			l := &w.lanes[0] // a chaos walk has one lane
			for {
				m, ok := w.chaos.peek()
				if !ok || m.at != now {
					break
				}
				w.chaos.pop()
				if err := l.chaosMoment(now, m); err != nil {
					return l.fail(err)
				}
			}
		}
		for ; left < len(departs) && tasks[departs[left]].EndSec == now; left++ {
			if stepped != nil {
				stepped(now, departs[left], true)
			}
			w.depart(departs[left])
		}
		for ; arrived < len(tasks) && tasks[arrived].StartSec == now; arrived++ {
			if stepped != nil {
				stepped(now, int32(arrived), false)
			}
			if err := w.arrive(now, int32(arrived)); err != nil {
				return err
			}
		}
		if now == nextTick {
			if now < horizon {
				if err := w.tick(now, horizon); err != nil {
					return err
				}
			}
			nextTick += w.cfg.TickSec
		}
	}
	for i := range w.lanes {
		w.lanes[i].finish(horizon)
	}
	return nil
}

// fail wraps the lane's failure.
func (l *lane) fail(err error) error { return &laneError{policy: l.policy.Name(), err: err} }

// integrate advances the physical clock for [from, to): the time-weighted
// posture statistics, the executor's backing system, and the chaos burn.
// Steady-state energy is not charged here — the ledger bills whole intervals
// in billInterval — but crashed and stuck servers ARE: their counts only
// change at chaos moments, and every moment bounds an integrate span, so
// accruing their burn here integrates the wedged time exactly, matching the
// offline engine's CrashedServerSeconds accounting second for second.
func (l *lane) integrate(from, to int64) {
	if to <= from {
		return
	}
	l.activeDt += float64(l.posture.ActiveHosts) * float64(to-from)
	if l.chaos != nil && (l.chaos.crashed > 0 || l.chaos.stuck > 0) {
		// Crashed servers wedge at S0 idle power and stuck zombies burn Sz
		// until their windows close — pure penalties on the consolidated
		// side, never on the baseline.
		burn := float64(l.chaos.crashed)*l.prices.PowerWatts(acpi.S0, 0) +
			float64(l.chaos.stuck)*l.prices.PowerWatts(acpi.Sz, 0)
		l.addPenalty(burn * float64(to-from))
	}
	if l.cfg.Executor != nil {
		l.cfg.Executor.Advance(to - from)
	}
}

// billInterval closes the ledger over [intervalStart, to): steady-state
// fleet power at the posture currently held, with the active utilization and
// the no-consolidation baseline both computed over the interval's cumulative
// population — the exact accounting rule the offline engine applies to the
// same span, so the only difference left between the two sides of a regret
// comparison is the quality of the posture decisions.
func (l *lane) billInterval(to int64) {
	dt := float64(to - l.intervalStart)
	if dt <= 0 {
		return
	}
	billed := l.posture
	billed.ActiveCPUUtilization = consolidation.Utilization(l.cum.UsedCPU, billed.ActiveHosts, l.cfg.ServerSpec.Cores)
	l.res.EnergyJoules += dcsim.PosturePowerWatts(&l.prices, billed) * dt
	l.res.BaselineJoules += dcsim.BaselinePowerWatts(&l.prices, l.cfg.ServerSpec, l.cum.UsedCPU, l.total) * dt
}

// addPenalty charges a chaos fault penalty: energy on the consolidated fleet
// only, tracked separately so the report can attribute it.
func (l *lane) addPenalty(joules float64) {
	l.res.EnergyJoules += joules
	l.res.WastedJoules += joules
}

// available returns the number of servers the controller can actually use:
// the fleet minus the servers chaos currently holds crashed or stuck.
func (w *walk) available() int {
	if w.chaos == nil {
		return w.total
	}
	n := w.total - w.chaos.crashed - w.chaos.stuck
	if n < 0 {
		n = 0
	}
	return n
}

// admitted, when a test sets it, observes every lane after every admission.
var admitted func(l *lane, rank int32)

// stepped, when a test sets it, observes every arrival and departure the walk
// handles, in its order, before the walk handles it.
var stepped func(at int64, rank int32, depart bool)

// arrive admits and places one task at its arrival instant. A task whose
// booked reservation cannot fit the fleet even fully awake is rejected; an
// admitted task that does not fit a lane's posture triggers an emergency
// wake there, billed as ACPI transitions. Under chaos the fleet an arrival
// meets is the degraded one: crashed and stuck servers neither admit nor
// host, and an arrival squeezed out (or placed short of the planner's
// requirement) by faults counts as an SLO violation.
func (w *walk) arrive(now int64, rank int32) error {
	w.arrivals++
	v := &w.idx.tasks[rank]
	capacity := w.available()
	spec := w.cfg.ServerSpec
	if w.bookedCPU+v.BookedCPU > float64(capacity)*spec.Cores ||
		w.bookedMem+v.BookedMemGiB > float64(capacity)*spec.MemGiB {
		if w.chaos != nil && capacity < w.total &&
			w.bookedCPU+v.BookedCPU <= float64(w.total)*spec.Cores &&
			w.bookedMem+v.BookedMemGiB <= float64(w.total)*spec.MemGiB {
			// The healthy fleet would have admitted it.
			w.lanes[0].res.SLOViolations++
		}
		w.rejected++
		w.obs.observeArrival(false)
		return nil
	}
	w.running.Add(ident.ID(rank))
	w.bookedCPU += v.BookedCPU
	w.bookedMem += v.BookedMemGiB
	w.usedCPU += v.UsedCPU
	w.cum.Add(vmDemand(v))
	w.admitted++
	w.obs.observeArrival(true)
	for i := range w.lanes {
		l := &w.lanes[i]
		l.refreshUtil()
		if admitted != nil {
			admitted(l, rank)
		}
		if err := l.place(now); err != nil {
			return l.fail(err)
		}
	}
	return nil
}

// place checks an admission against the lane's posture: the planner's
// requirement for the interval's cumulative population (capacity freed by a
// departure is only reclaimed at the next tick, so mid-interval arrivals size
// against everything the interval has hosted). If the posture holds fewer
// active hosts than required, the difference wakes immediately — sleepers
// first, then zombies, then memory servers.
func (l *lane) place(now int64) error {
	if l.sizer == l {
		l.required = l.requiredHosts()
	} else {
		l.required = l.sizer.required
	}
	if l.required <= l.posture.ActiveHosts {
		return nil
	}
	if err := l.ensureActive(now, l.required); err != nil {
		return err
	}
	if l.chaos != nil && l.posture.ActiveHosts < l.required {
		// Every wake candidate is crashed or stuck: the task runs on a
		// fleet below the planner's requirement.
		l.res.SLOViolations++
	}
	return nil
}

// requiredHosts is the planner's active-host requirement for the interval's
// cumulative population, planned from its Demand.
func (l *lane) requiredHosts() int {
	return l.planner.PlanDemand(l.cum, l.cfg.ServerSpec, l.available()).ActiveHosts
}

// ensureActive raises the posture to the required number of active hosts
// through the emergency-wake path: sleepers first, then zombies, then memory
// servers, ACPI cost only (no churn mid-epoch). Under chaos, S3->S0 attempts
// can fail — the failed server sticks in a zombie-like state, the wasted
// transition is billed, and the wake escalates to the next candidate.
func (l *lane) ensureActive(nowSec int64, required int) error {
	need := required - l.posture.ActiveHosts
	if need <= 0 {
		return nil
	}
	if l.chaos != nil && l.posture.SleepHosts > 0 {
		attempts := need
		if attempts > l.posture.SleepHosts {
			attempts = l.posture.SleepHosts
		}
		if failed := l.chaos.takeWakeFailures(nowSec, attempts); failed > 0 {
			l.posture.SleepHosts -= failed
			l.chaos.stuck += failed
			l.res.StuckZombies += failed
			l.res.WastedTransitions += failed
			l.res.StateTransitions += failed
			l.addPenalty(float64(failed) * l.prices.TransitionJoules(acpi.S3, acpi.S0))
			l.obs.observeWakeFailures(nowSec, failed)
		}
	}
	next := wake(l.posture, need)
	next = l.normalize(l.posture.Policy, next)
	d := consolidation.Delta(l.posture, next, l.population())
	woken := d.SleepExits + d.ZombieExits + d.MemoryServerStops
	l.res.EmergencyWakes += woken
	l.obs.observeEmergencyWake(nowSec, woken)
	// ACPI cost only: no churn mid-epoch, and a wake frees no host to drain,
	// so the bill reads no population.
	return l.applyPosture(nowSec, next, false, 0, consolidation.Demand{})
}

// depart retires one admitted task.
func (w *walk) depart(rank int32) {
	if !w.running.Has(ident.ID(rank)) {
		return // was rejected at admission
	}
	w.running.Remove(ident.ID(rank))
	v := &w.idx.tasks[rank]
	w.bookedCPU -= v.BookedCPU
	w.bookedMem -= v.BookedMemGiB
	w.usedCPU -= v.UsedCPU
	w.departures++
	w.obs.observeDepart()
	for i := range w.lanes {
		w.lanes[i].refreshUtil()
	}
}

// population is the number of VMs running: every admitted task departs once.
func (w *walk) population() int { return w.admitted - w.departures }

// tick runs one re-planning pass. The running set is folded once; every lane
// bills its closing interval and re-plans from that Demand, which then opens
// the next interval as cum.
func (w *walk) tick(now, horizon int64) error {
	running := w.idx.fold(&w.running)
	for i := range w.lanes {
		l := &w.lanes[i]
		if err := l.tick(now, horizon, running); err != nil {
			return l.fail(err)
		}
	}
	w.ticks++
	w.intervalStart = now
	w.cum = running
	if w.cfg.OnTick != nil {
		l := &w.lanes[0] // a hooked walk has one lane
		w.cfg.OnTick(TickEvent{
			AtSec:           now,
			Tick:            w.ticks,
			ActiveHosts:     l.posture.ActiveHosts,
			ZombieHosts:     l.posture.ZombieHosts,
			MemoryServers:   l.posture.MemoryServers,
			SleepHosts:      l.posture.SleepHosts,
			RemoteMemoryGiB: l.posture.RemoteMemoryGiB,
			Running:         w.population(),
			Arrivals:        w.arrivals,
			Admitted:        w.admitted,
			Rejected:        w.rejected,
			EmergencyWakes:  l.res.EmergencyWakes,
			EnergyJoules:    l.res.EnergyJoules,
			BaselineJoules:  l.res.BaselineJoules,
		})
	}
	return nil
}

// tick is the lane's share of a re-planning pass: the closing interval is
// billed, then the policy observes the running population and the posture
// and decides the posture for the next interval, billed through the shared
// transition-cost model (churn included, over the interval that the posture
// will hold).
func (l *lane) tick(now, horizon int64, running consolidation.Demand) error {
	l.billInterval(now)
	obs := Observation{
		NowSec:       now,
		TickSec:      l.cfg.TickSec,
		Demand:       running,
		Prev:         l.posture,
		Spec:         l.cfg.ServerSpec,
		TotalServers: l.available(),
		walk:         l.walk,
	}
	plan := l.normalize(l.policy.Name(), l.policy.Decide(obs))
	dt := l.cfg.TickSec
	if rest := horizon - now; rest < dt {
		dt = rest
	}
	// Trace order mirrors the pass itself: the tick fires, the policy's
	// re-plan is installed, then applyPosture emits the billed transitions.
	l.obs.observeTick(now, l.ticks+1, l.population(), plan)
	return l.applyPosture(now, plan, true, float64(dt), running)
}

// applyPosture bills the posture change and installs it. withChurn selects
// whether the remote-memory churn of the new posture over dtSec is charged —
// true at ticks (mirroring the offline engine's per-epoch charge), false for
// mid-interval emergency wakes, whose interval was already charged at the
// last tick. Under chaos the churn is scaled by the interval's time-weighted
// fabric degradation factor. running is the Demand of the population the
// freed hosts drain. An executor failure (a live fleet refusing a
// transition) is returned, not swallowed: a failed transition must surface
// rather than silently strand the tasks the posture was sized for.
func (l *lane) applyPosture(nowSec int64, next consolidation.FleetPlan, withChurn bool, dtSec float64, running consolidation.Demand) error {
	priced := next
	if !withChurn {
		priced.RemoteMemoryGiB = 0
	}
	fabric := 1.0
	if l.chaos != nil && withChurn {
		fabric = l.chaos.plan.FabricFactor(nowSec, nowSec+int64(dtSec))
	}
	bill := dcsim.TransitionCost(&l.prices, l.planner.Name(), l.posture, priced, running, dtSec, fabric)
	l.res.EnergyJoules += bill.Joules
	l.res.TransitionJoules += bill.Joules
	l.res.StateTransitions += bill.Transitions
	l.res.Migrations += bill.Migrations
	l.res.MigrationSeconds += bill.MigrationSeconds
	l.obs.observeBill(nowSec, bill)
	if l.cfg.Executor != nil {
		if err := l.cfg.Executor.Apply(nowSec, l.posture, next); err != nil {
			return fmt.Errorf("autopilot: executor apply at %ds: %w", nowSec, err)
		}
	}
	l.posture = next
	if next.ActiveHosts > l.res.PeakActiveHosts {
		l.res.PeakActiveHosts = next.ActiveHosts
	}
	return nil
}

// normalize clamps a policy's plan to the servers actually available (the
// fleet minus any chaos-crashed or stuck servers), recomputes the residual
// sleepers and the active utilization from the actually-running population,
// and stamps the policy name.
func (l *lane) normalize(name string, p consolidation.FleetPlan) consolidation.FleetPlan {
	avail := l.available()
	clamp := func(n, hi int) int {
		if n < 0 {
			return 0
		}
		if n > hi {
			return hi
		}
		return n
	}
	p.ActiveHosts = clamp(p.ActiveHosts, avail)
	p.ZombieHosts = clamp(p.ZombieHosts, avail-p.ActiveHosts)
	p.MemoryServers = clamp(p.MemoryServers, avail-p.ActiveHosts-p.ZombieHosts)
	p.SleepHosts = avail - p.ActiveHosts - p.ZombieHosts - p.MemoryServers
	p.Policy = name
	p.ActiveCPUUtilization = consolidation.Utilization(l.usedCPU, p.ActiveHosts, l.cfg.ServerSpec.Cores)
	return p
}

// refreshUtil recomputes the posture's utilization after a population change.
func (l *lane) refreshUtil() {
	l.posture.ActiveCPUUtilization = consolidation.Utilization(l.usedCPU, l.posture.ActiveHosts, l.cfg.ServerSpec.Cores)
}

// finish bills the final (possibly partial) interval and closes the
// integrals and the stream counters into the Result.
func (l *lane) finish(horizon int64) {
	l.billInterval(horizon)
	l.res.Ticks, l.res.Arrivals, l.res.Departures = l.ticks, l.arrivals, l.departures
	l.res.Admitted, l.res.Rejected = l.admitted, l.rejected
	if horizon > 0 {
		l.res.MeanActiveHosts = l.activeDt / float64(horizon)
	}
	if l.res.BaselineJoules > 0 {
		l.res.SavingPercent = 100 * (1 - l.res.EnergyJoules/l.res.BaselineJoules)
	}
}

// wake raises the posture's active count by need servers, drawing on
// sleepers first, then zombies (shrinking the remotely-served memory
// proportionally), then memory servers.
func wake(p consolidation.FleetPlan, need int) consolidation.FleetPlan {
	for _, c := range [...]consolidation.Category{consolidation.SleepHost, consolidation.ZombieHost, consolidation.MemoryServer} {
		pool := p.Hosts(c)
		n := min(need, *pool)
		if c == consolidation.ZombieHost && n > 0 {
			p.RemoteMemoryGiB *= float64(*pool-n) / float64(*pool)
		}
		*pool -= n
		p.ActiveHosts += n
		need -= n
	}
	return p
}

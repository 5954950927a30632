package autopilot

import (
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
	AtSec int64
	Tick  int
	// The posture installed for the next interval.
	ActiveHosts     int
	ZombieHosts     int
	MemoryServers   int
	SleepHosts      int
	RemoteMemoryGiB float64
	// Running is the admitted population present at the tick.
	Running int
	// Cumulative stream counters as of this tick.
	Arrivals       int
	Admitted       int
	Rejected       int
	EmergencyWakes int
	// Cumulative energy ledger as of this tick (the interval just billed
	// included), in joules.
	EnergyJoules   float64
	BaselineJoules float64
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Trace == nil {
		return fmt.Errorf("autopilot: a trace is required")
	}
	if err := c.Trace.Validate(); err != nil {
		return err
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

// applyDefaults fills optional fields.
func (c *Config) applyDefaults() {
	if c.TickSec == 0 {
		c.TickSec = 300
	}
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

// hostSizer is the optional method of a base planner that states its sizing
// rule on aggregate booked demand (consolidation.Neat and ZombieStack have
// it): Plan's ActiveHosts for any population of n VMs whose booked demand
// sums to bookedCPU and bookedMem, nondecreasing in both sums.
type hostSizer interface {
	ActiveHostsFor(n int, bookedCPU, bookedMem float64, spec consolidation.ServerSpec, totalServers int) int
}

// loop is the mutable state of one run.
type loop struct {
	cfg     *Config
	total   int
	planner consolidation.Policy
	sizer   hostSizer // planner's sizing rule, nil when it only has Plan

	// idx is the trace's replay index: the loop knows a VM by its rank, its
	// position in VM-ID order, and reads its demand from the index.
	idx *dcsim.ReplayIndex
	// running is the admitted population, a bitset over ranks. vms is its
	// ID-sorted view, written into a reused buffer only when someone reads
	// the population itself (runningVMs); stale marks it out of date.
	running   ident.Set
	vms       []consolidation.VMDemand
	stale     bool
	bookedCPU float64
	bookedMem float64
	usedCPU   float64
	usedMem   float64

	posture consolidation.FleetPlan
	// intervalStart is the beginning of the current tick interval and cum the
	// interval's cumulative population: every task that has been admitted at
	// any point since the interval started, departures included. The ledger
	// bills whole intervals against cum (see billInterval), and emergency
	// wakes size against it too — a departure's capacity is only reclaimed at
	// the next re-plan tick, the way a periodic consolidation manager works.
	// An arrival reads only the planner's requirement for cum, which
	// requiredHosts sizes from cumCPU and cumMem: cum's booked sums, folded in
	// ID order when a tick resets cum and only added to in between, so each is
	// a sum of exactly cum's terms in some order. cum and cumRanks (the same
	// VMs' ranks) are sorted by ID up to the last read: an arrival appends its
	// rank to pending, and intervalVMs, the one way to read cum, merges pending
	// in first — once per tick under a planner with a sizing rule, one
	// binary-search insert per arrival under one without.
	intervalStart  int64
	cum            []consolidation.VMDemand
	cumRanks       []int32
	pending        []int32
	cumCPU, cumMem float64

	res      Result
	activeDt float64

	// chaos is the fault-injection state of the run, nil on fault-free runs
	// so every chaos branch is skipped and the loop stays bit-identical to
	// the pre-chaos path.
	chaos *chaosRun

	// obs is the resolved observability handle, nil on unobserved runs so
	// every emission site is one pointer test and no allocation (see obs.go).
	obs *apObs
}

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
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	// Both builds only read the trace, so the event order is sorted on a
	// second core while this one builds the index.
	streamc := make(chan *trace.Stream, 1)
	go func() { streamc <- trace.NewStream(cfg.Trace) }()
	idx, err := dcsim.NewReplayIndex(cfg.Trace)
	stream := <-streamc
	if err != nil {
		return Result{}, err
	}
	return run(cfg, idx, stream)
}

// run is Run on a validated configuration, over an index and an unread
// arrival feed the caller built from cfg.Trace: a regret comparison builds the
// index once for its online runs and its oracle.
func run(cfg Config, idx *dcsim.ReplayIndex, stream *trace.Stream) (Result, error) {
	cfg.applyDefaults()

	l := &loop{
		cfg:     &cfg,
		total:   cfg.Trace.Machines,
		planner: cfg.Policy.Planner(),
		idx:     idx,
		posture: consolidation.InitialPlan(cfg.Trace.Machines),
		obs:     newAPObs(cfg.Obs),
	}
	l.sizer, _ = l.planner.(hostSizer)
	l.res = Result{
		Policy:          cfg.Policy.Name(),
		Planner:         l.planner.Name(),
		Trace:           cfg.Trace.Name,
		Machine:         cfg.Machine.Name,
		TickSec:         cfg.TickSec,
		PeakActiveHosts: l.posture.ActiveHosts,
	}
	if !cfg.Chaos.Empty() {
		l.chaos = newChaosRun(cfg.Chaos)
		l.res.ChaosScenario = cfg.Chaos.Name
	}

	horizon := cfg.Trace.HorizonSec
	ev, evOK := stream.Next()
	now := int64(0)
	nextTick := cfg.TickSec

	for now < horizon {
		// The next moment: the earliest of the next chaos fault, the next
		// stream event, the next tick and the horizon.
		t := horizon
		if nextTick < t {
			t = nextTick
		}
		if evOK && ev.AtSec < t {
			t = ev.AtSec
		}
		if l.chaos != nil {
			if m, ok := l.chaos.peek(); ok && m.at < t {
				t = m.at
			}
		}
		l.integrate(now, t)
		now = t

		// At equal instants faults strike first (the fleet an arrival meets
		// is the already-degraded one), then the stream's departures and
		// arrivals, then a due tick — fully deterministic.
		if l.chaos != nil {
			for {
				m, ok := l.chaos.peek()
				if !ok || m.at != now {
					break
				}
				l.chaos.pop()
				if err := l.chaosMoment(now, m); err != nil {
					return Result{}, err
				}
			}
		}
		for evOK && ev.AtSec == now {
			if ev.Kind == trace.Depart {
				l.depart(idx.Rank(ev.Index))
			} else if err := l.arrive(now, idx.Rank(ev.Index)); err != nil {
				return Result{}, err
			}
			ev, evOK = stream.Next()
		}
		if now == nextTick {
			if now < horizon {
				if err := l.tick(now, horizon); err != nil {
					return Result{}, err
				}
			}
			nextTick += cfg.TickSec
		}
	}
	return l.finish(horizon), nil
}

// integrate advances the physical clock for [from, to): the time-weighted
// posture statistics, the executor's backing system, and the chaos burn.
// Steady-state energy is not charged here — the ledger bills whole intervals
// in billInterval — but crashed and stuck servers ARE: their counts only
// change at chaos moments, and every moment bounds an integrate span, so
// accruing their burn here integrates the wedged time exactly, matching the
// offline engine's CrashedServerSeconds accounting second for second.
func (l *loop) integrate(from, to int64) {
	if to <= from {
		return
	}
	l.activeDt += float64(l.posture.ActiveHosts) * float64(to-from)
	if l.chaos != nil && (l.chaos.crashed > 0 || l.chaos.stuck > 0) {
		// Crashed servers wedge at S0 idle power and stuck zombies burn Sz
		// until their windows close — pure penalties on the consolidated
		// side, never on the baseline.
		burn := float64(l.chaos.crashed)*l.cfg.Machine.PowerWatts(acpi.S0, 0) +
			float64(l.chaos.stuck)*l.cfg.Machine.PowerWatts(acpi.Sz, 0)
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
func (l *loop) billInterval(to int64) {
	dt := float64(to - l.intervalStart)
	if dt <= 0 {
		return
	}
	var usedCPU float64
	for _, v := range l.intervalVMs() {
		usedCPU += v.UsedCPU
	}
	billed := l.posture
	billed.ActiveCPUUtilization = utilization(usedCPU, billed.ActiveHosts, l.cfg.ServerSpec.Cores)
	l.res.EnergyJoules += dcsim.PosturePowerWatts(l.cfg.Machine, billed) * dt
	l.res.BaselineJoules += dcsim.BaselinePowerWatts(l.cfg.Machine, l.cfg.ServerSpec, usedCPU, l.total) * dt
}

// addPenalty charges a chaos fault penalty: energy on the consolidated fleet
// only, tracked separately so the report can attribute it.
func (l *loop) addPenalty(joules float64) {
	l.res.EnergyJoules += joules
	l.res.WastedJoules += joules
}

// available returns the number of servers the controller can actually use:
// the fleet minus the servers chaos currently holds crashed or stuck.
func (l *loop) available() int {
	if l.chaos == nil {
		return l.total
	}
	n := l.total - l.chaos.crashed - l.chaos.stuck
	if n < 0 {
		n = 0
	}
	return n
}

// arrive admits and places one task at its arrival instant. A task whose
// booked reservation cannot fit the fleet even fully awake is rejected; an
// admitted task that does not fit the current posture triggers an emergency
// wake, billed as ACPI transitions. Under chaos the fleet an arrival meets
// is the degraded one: crashed and stuck servers neither admit nor host, and
// an arrival squeezed out (or placed short of the planner's requirement) by
// faults counts as an SLO violation.
func (l *loop) arrive(now int64, rank int32) error {
	l.res.Arrivals++
	v := l.idx.Demand(rank)
	capacity := l.available()
	if l.bookedCPU+v.BookedCPU > float64(capacity)*l.cfg.ServerSpec.Cores ||
		l.bookedMem+v.BookedMemGiB > float64(capacity)*l.cfg.ServerSpec.MemGiB {
		if l.chaos != nil && capacity < l.total &&
			l.bookedCPU+v.BookedCPU <= float64(l.total)*l.cfg.ServerSpec.Cores &&
			l.bookedMem+v.BookedMemGiB <= float64(l.total)*l.cfg.ServerSpec.MemGiB {
			// The healthy fleet would have admitted it.
			l.res.SLOViolations++
		}
		l.res.Rejected++
		l.obs.observeArrival(false)
		return nil
	}
	l.running.Add(ident.ID(rank))
	l.stale = true
	l.bookedCPU += v.BookedCPU
	l.bookedMem += v.BookedMemGiB
	l.usedCPU += v.UsedCPU
	l.usedMem += v.UsedMemGiB
	l.pending = append(l.pending, rank)
	l.cumCPU += v.BookedCPU
	l.cumMem += v.BookedMemGiB
	l.res.Admitted++
	l.obs.observeArrival(true)
	l.refreshUtil()

	// Placement check: the planner's sizing rule for the interval's
	// cumulative population (capacity freed by a departure is only reclaimed
	// at the next tick, so mid-interval arrivals size against everything the
	// interval has hosted). If the posture holds fewer active hosts than
	// required, wake the difference immediately — sleepers first, then
	// zombies, then memory servers.
	if required := l.requiredHosts(); required > l.posture.ActiveHosts {
		if err := l.ensureActive(now, required); err != nil {
			return err
		}
		if l.chaos != nil && l.posture.ActiveHosts < required {
			// Every wake candidate is crashed or stuck: the task runs on a
			// fleet below the planner's requirement.
			l.res.SLOViolations++
		}
	}
	return nil
}

// requiredHosts is the planner's active-host requirement for the interval's
// cumulative population: exactly planner.Plan(cum).ActiveHosts whenever that
// exceeds the posture held, and some count within the posture otherwise. Plan
// folds cum's booked demand in ID order; cumCPU and cumMem are the same terms
// summed in another order, so the fold lies within consolidation.SumBracket
// of them and the sizing rule, nondecreasing in both sums, puts Plan's answer
// between its values at the two ends. The population itself is folded only
// when the ends differ across a Ceil boundary above the posture, when a sum
// overflowed (the bound is void), or when the planner states no rule.
func (l *loop) requiredHosts() int {
	spec, avail := l.cfg.ServerSpec, l.available()
	if l.sizer != nil {
		n := len(l.cum) + len(l.pending)
		cpuLo, cpuHi := consolidation.SumBracket(l.cumCPU, n)
		memLo, memHi := consolidation.SumBracket(l.cumMem, n)
		if cpuHi <= math.MaxFloat64 && memHi <= math.MaxFloat64 {
			hi := l.sizer.ActiveHostsFor(n, cpuHi, memHi, spec, avail)
			if hi <= l.posture.ActiveHosts || hi == l.sizer.ActiveHostsFor(n, cpuLo, memLo, spec, avail) {
				return hi
			}
		}
	}
	l.obs.observeExactFold()
	return l.planner.Plan(l.intervalVMs(), spec, avail).ActiveHosts
}

// intervalVMs returns cum sorted by ID, after merging in the arrivals
// admitted since the last read, from the back: each pending rank, largest
// first, is found by binary search and the block of cum above it moves up
// once — one search and one memmove for one arrival, one pass for many.
func (l *loop) intervalVMs() []consolidation.VMDemand {
	if m := len(l.pending); m > 0 {
		slices.Sort(l.pending)
		hi := len(l.cum) // cum[:hi] is not placed yet
		l.cum = slices.Grow(l.cum, m)[:hi+m]
		l.cumRanks = slices.Grow(l.cumRanks, m)[:hi+m]
		for j := m - 1; j >= 0; j-- {
			rank := l.pending[j]
			at, _ := slices.BinarySearch(l.cumRanks[:hi], rank)
			copy(l.cum[at+j+1:], l.cum[at:hi])
			copy(l.cumRanks[at+j+1:], l.cumRanks[at:hi])
			l.cum[at+j], l.cumRanks[at+j] = l.idx.Demand(rank), rank
			hi = at
		}
		l.pending = l.pending[:0]
	}
	return l.cum
}

// ensureActive raises the posture to the required number of active hosts
// through the emergency-wake path: sleepers first, then zombies, then memory
// servers, ACPI cost only (no churn mid-epoch). Under chaos, S3->S0 attempts
// can fail — the failed server sticks in a zombie-like state, the wasted
// transition is billed, and the wake escalates to the next candidate.
func (l *loop) ensureActive(nowSec int64, required int) error {
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
			l.addPenalty(float64(failed) * l.cfg.Machine.TransitionJoules(acpi.S3, acpi.S0))
			l.obs.observeWakeFailures(nowSec, failed)
		}
	}
	next := wake(l.posture, need)
	next = l.normalize(l.posture.Policy, next)
	d := consolidation.Delta(l.posture, next, l.population())
	woken := d.SleepExits + d.ZombieExits + d.MemoryServerStops
	l.res.EmergencyWakes += woken
	l.obs.observeEmergencyWake(nowSec, woken)
	return l.applyPosture(nowSec, next, false, 0) // ACPI cost only: no churn mid-epoch
}

// depart retires one admitted task.
func (l *loop) depart(rank int32) {
	if !l.running.Has(ident.ID(rank)) {
		return // was rejected at admission
	}
	l.running.Remove(ident.ID(rank))
	l.stale = true
	v := l.idx.Demand(rank)
	l.bookedCPU -= v.BookedCPU
	l.bookedMem -= v.BookedMemGiB
	l.usedCPU -= v.UsedCPU
	l.usedMem -= v.UsedMemGiB
	l.res.Departures++
	l.obs.observeDepart()
	l.refreshUtil()
}

// population is the number of VMs running: every admitted task departs once.
func (l *loop) population() int { return l.res.Admitted - l.res.Departures }

// runningVMs returns the admitted population sorted by ID, valid until the
// next arrival or departure. Ascending rank is ascending ID, so the view is
// one pass over the bitset, made on the first read after a change: a tick
// reads it several times, an interval's arrivals and departures never do.
func (l *loop) runningVMs() []consolidation.VMDemand {
	if l.stale {
		l.vms = l.vms[:0]
		l.running.Each(func(rank ident.ID) { l.vms = append(l.vms, l.idx.Demand(int32(rank))) })
		l.stale = false
	}
	return l.vms
}

// tick runs one re-planning pass: the closing interval is billed, then the
// policy observes the current population and posture and decides the posture
// for the next interval, billed through the shared transition-cost model
// (churn included, over the interval that the posture will hold).
func (l *loop) tick(now, horizon int64) error {
	l.billInterval(now)
	obs := Observation{
		NowSec:       now,
		TickSec:      l.cfg.TickSec,
		VMs:          l.runningVMs(),
		Prev:         l.posture,
		Spec:         l.cfg.ServerSpec,
		TotalServers: l.available(),
	}
	plan := l.normalize(l.cfg.Policy.Name(), l.cfg.Policy.Decide(obs))
	dt := l.cfg.TickSec
	if rest := horizon - now; rest < dt {
		dt = rest
	}
	// Trace order mirrors the pass itself: the tick fires, the policy's
	// re-plan is installed, then applyPosture emits the billed transitions.
	l.obs.observeTick(now, l.res.Ticks+1, l.population(), plan)
	if err := l.applyPosture(now, plan, true, float64(dt)); err != nil {
		return err
	}
	l.res.Ticks++
	l.intervalStart = now
	l.cum = append(l.cum[:0], l.runningVMs()...)
	l.cumRanks, l.pending = l.cumRanks[:0], l.pending[:0]
	l.running.Each(func(rank ident.ID) { l.cumRanks = append(l.cumRanks, int32(rank)) })
	l.cumCPU, l.cumMem = 0, 0
	for _, v := range l.cum {
		l.cumCPU += v.BookedCPU
		l.cumMem += v.BookedMemGiB
	}
	if l.cfg.OnTick != nil {
		l.cfg.OnTick(TickEvent{
			AtSec:           now,
			Tick:            l.res.Ticks,
			ActiveHosts:     l.posture.ActiveHosts,
			ZombieHosts:     l.posture.ZombieHosts,
			MemoryServers:   l.posture.MemoryServers,
			SleepHosts:      l.posture.SleepHosts,
			RemoteMemoryGiB: l.posture.RemoteMemoryGiB,
			Running:         l.population(),
			Arrivals:        l.res.Arrivals,
			Admitted:        l.res.Admitted,
			Rejected:        l.res.Rejected,
			EmergencyWakes:  l.res.EmergencyWakes,
			EnergyJoules:    l.res.EnergyJoules,
			BaselineJoules:  l.res.BaselineJoules,
		})
	}
	return nil
}

// applyPosture bills the posture change and installs it. withChurn selects
// whether the remote-memory churn of the new posture over dtSec is charged —
// true at ticks (mirroring the offline engine's per-epoch charge), false for
// mid-interval emergency wakes, whose interval was already charged at the
// last tick. Under chaos the churn is scaled by the interval's time-weighted
// fabric degradation factor. An executor failure (a live fleet refusing a
// transition) is returned, not swallowed: a failed transition must surface
// rather than silently strand the tasks the posture was sized for.
func (l *loop) applyPosture(nowSec int64, next consolidation.FleetPlan, withChurn bool, dtSec float64) error {
	priced := next
	if !withChurn {
		priced.RemoteMemoryGiB = 0
	}
	fabric := 1.0
	if l.chaos != nil && withChurn {
		fabric = l.chaos.plan.FabricFactor(nowSec, nowSec+int64(dtSec))
	}
	// The bill reads the population only to price the drain of freed hosts.
	// An emergency wake frees none, and there are thousands per run, so the
	// view is not made for them.
	var vms []consolidation.VMDemand
	if next.ActiveHosts < l.posture.ActiveHosts {
		vms = l.runningVMs()
	}
	bill := dcsim.TransitionCost(l.cfg.Machine, l.planner.Name(), l.posture, priced, vms, dtSec, fabric)
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
func (l *loop) normalize(name string, p consolidation.FleetPlan) consolidation.FleetPlan {
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
	p.ActiveCPUUtilization = utilization(l.usedCPU, p.ActiveHosts, l.cfg.ServerSpec.Cores)
	return p
}

// refreshUtil recomputes the posture's utilization after a population change.
func (l *loop) refreshUtil() {
	l.posture.ActiveCPUUtilization = utilization(l.usedCPU, l.posture.ActiveHosts, l.cfg.ServerSpec.Cores)
}

// finish bills the final (possibly partial) interval and closes the
// integrals into the Result.
func (l *loop) finish(horizon int64) Result {
	l.billInterval(horizon)
	if horizon > 0 {
		l.res.MeanActiveHosts = l.activeDt / float64(horizon)
	}
	if l.res.BaselineJoules > 0 {
		l.res.SavingPercent = 100 * (1 - l.res.EnergyJoules/l.res.BaselineJoules)
	}
	return l.res
}

// wake raises the posture's active count by need servers, drawing on
// sleepers first, then zombies (shrinking the remotely-served memory
// proportionally), then memory servers.
func wake(p consolidation.FleetPlan, need int) consolidation.FleetPlan {
	take := func(avail int) int {
		if need < avail {
			avail = need
		}
		need -= avail
		return avail
	}
	if n := take(p.SleepHosts); n > 0 {
		p.SleepHosts -= n
		p.ActiveHosts += n
	}
	if n := take(p.ZombieHosts); n > 0 {
		p.RemoteMemoryGiB *= float64(p.ZombieHosts-n) / float64(p.ZombieHosts)
		p.ZombieHosts -= n
		p.ActiveHosts += n
	}
	if n := take(p.MemoryServers); n > 0 {
		p.MemoryServers -= n
		p.ActiveHosts += n
	}
	return p
}

// utilization is used CPU over active capacity, clamped to [0,1].
func utilization(usedCPU float64, active int, cores float64) float64 {
	if active <= 0 || cores <= 0 {
		return 0
	}
	u := usedCPU / (float64(active) * cores)
	if u > 1 {
		return 1
	}
	if u < 0 {
		return 0
	}
	return u
}

package dcsim

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/acpi"
	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/energy"
	"repro/internal/exact"
	"repro/internal/ident"
	"repro/internal/trace"
)

// Config parameterises one simulation run.
type Config struct {
	// Trace is the workload to replay.
	Trace *trace.Trace
	// Policy is the consolidation policy under test. Plan must be safe for
	// concurrent use (the bundled policies are stateless) when Workers > 1 or
	// when the config is part of a Sweep.
	Policy consolidation.Policy
	// Machine is the power profile of every server in the fleet.
	Machine *energy.MachineProfile
	// ServerSpec is the capacity of every server.
	ServerSpec consolidation.ServerSpec
	// ConsolidationPeriodSec is how often the policy re-plans (OpenStack Neat
	// style periodic consolidation); 300 s by default.
	ConsolidationPeriodSec int64
	// Workers shards the per-epoch accounting across that many goroutines.
	// 0 or 1 selects the sequential engine. Results are identical either way.
	Workers int
	// TransitionCosts turns the steady-state integration into the
	// event-driven accounting: every epoch additionally charges the ACPI
	// suspend/wake transitions, migration drains and remote-memory churn
	// implied by the change of plan (see transitions.go). Off by default,
	// which reproduces the optimistic Figure 10 bound.
	TransitionCosts bool
	// Chaos replays the run under a deterministic fault schedule: crashed
	// servers shrink the capacity the policy plans against and burn S0 idle
	// power, fabric degradation windows scale the remote-memory churn, failed
	// wakes bill wasted transitions, and crashed serving servers bill
	// re-homing transfers (see chaos.go). Every chaos charge is a pure
	// function of (plan, epoch span, epoch posture), so the parallel engine
	// stays bit-identical — and an empty plan is bit-identical to no plan.
	Chaos *chaos.Plan
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Trace == nil {
		return fmt.Errorf("dcsim: a trace is required")
	}
	if err := c.Trace.Validate(); err != nil {
		return err
	}
	return c.validateRun()
}

// validateRun checks everything the configuration adds to its trace.
func (c *Config) validateRun() error {
	if c.Policy == nil {
		return fmt.Errorf("dcsim: a consolidation policy is required")
	}
	if c.Machine == nil {
		return fmt.Errorf("dcsim: a machine power profile is required")
	}
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if c.ServerSpec.Cores <= 0 || c.ServerSpec.MemGiB <= 0 {
		return fmt.Errorf("dcsim: server spec needs positive capacity")
	}
	if c.Workers < 0 {
		return fmt.Errorf("dcsim: negative worker count %d", c.Workers)
	}
	if err := c.Chaos.Validate(); err != nil {
		return err
	}
	return nil
}

// Result summarises one simulation run.
type Result struct {
	Policy  string
	Machine string
	Trace   string
	// PeriodSec is the consolidation period the run used.
	PeriodSec int64
	// EnergyJoules is the fleet energy over the trace horizon.
	EnergyJoules float64
	// BaselineJoules is the no-consolidation fleet energy over the same
	// horizon (all servers in S0).
	BaselineJoules float64
	// SavingPercent is the Figure 10 metric: 100*(1 - Energy/Baseline).
	SavingPercent float64
	// MeanActiveHosts is the time-weighted mean number of S0 servers.
	MeanActiveHosts float64
	// MeanZombieHosts is the time-weighted mean number of Sz servers.
	MeanZombieHosts float64
	// MeanSleepHosts is the time-weighted mean number of S3 servers.
	MeanSleepHosts float64
	// MeanActiveUtilization is the time-weighted mean CPU utilization of the
	// active servers.
	MeanActiveUtilization float64
	// Epochs is the number of consolidation periods simulated.
	Epochs int
	// TransitionCosts reports whether the run charged transition events.
	TransitionCosts bool
	// TransitionJoules is the energy charged to transition events (ACPI
	// suspends/wakes, migration drains, remote-memory churn). It is included
	// in EnergyJoules but not in BaselineJoules — the baseline fleet never
	// transitions — so enabling transition costs can only lower the saving.
	TransitionJoules float64
	// StateTransitions is the number of ACPI state changes performed.
	StateTransitions int
	// Migrations is the number of VM migrations performed to drain freed
	// hosts.
	Migrations int
	// MigrationSeconds is the total host time spent draining VMs.
	MigrationSeconds float64
	// ChaosScenario names the fault plan the run was priced under ("" when
	// no faults were injected); ChaosJoules is the energy charged to fault
	// penalties (crashed-server burn, wasted wakes, re-homing transfers,
	// controller rebuilds), included in EnergyJoules but never in the
	// baseline. WastedTransitions counts failed wake attempts and
	// ReHomedGiB the remote memory re-homed off crashed serving servers.
	ChaosScenario     string
	ChaosJoules       float64
	WastedTransitions int
	ReHomedGiB        float64
}

// epochSpan bounds one consolidation period within the trace horizon.
type epochSpan struct {
	start, end int64
}

// epochSpans splits the horizon into consolidation periods.
func epochSpans(horizonSec, periodSec int64) []epochSpan {
	spans := make([]epochSpan, 0, int(horizonSec/periodSec)+1)
	for start := int64(0); start < horizonSec; start += periodSec {
		end := start + periodSec
		if end > horizonSec {
			end = horizonSec
		}
		spans = append(spans, epochSpan{start: start, end: end})
	}
	return spans
}

// epochStats is one epoch's contribution to the run integrals. Every field is
// the exact term the sequential loop would have added, so merging a slice of
// epochStats in epoch order reproduces the sequential accumulation bit for
// bit.
type epochStats struct {
	energyJ      float64
	baselineJ    float64
	activeDt     float64
	zombieDt     float64
	sleepDt      float64
	utilDt       float64
	dt           float64
	transitionJ  float64
	transitions  int
	migrations   int
	migrationSec float64
	chaosJ       float64
	wasted       int
	reHomedGiB   float64
}

// ReplayIndex is the read-only replay view of one trace, built once and
// shared by everything that replays it: dcsim's walks, shards and replayers,
// and autopilot's online loop. A VM's rank is its task's position in the
// trace's arrival order (trace.ArrivalOrder), so the online loop keeps its
// running set as ascending integers in the order the VMs arrived, and reads
// its events from the index's Feed.
type ReplayIndex struct {
	tr *trace.Trace
	// starts, ends and demand are indexed by rank: the VM of rank r starts
	// at starts[r]. A demand carries no VM ID: no simulation reads one.
	starts, ends []int64
	demand       []consolidation.VMDemand
	// rankOf is indexed by a task's position in the trace.
	rankOf []int32
	// online is what only the online loop reads, built by the first Feed or
	// Fold; the epoch walks never build it.
	onlineOnce sync.Once
	online     onlineIndex
}

// onlineIndex is the part of a ReplayIndex only an online replay reads.
type onlineIndex struct {
	// departs is the departure order, the ranks in trace.DepartureOrder.
	departs []int32
	// busy is a bitset over ranks, set for the VMs that are not idle.
	busy []uint64
}

// NewReplayIndex builds the index of a trace, nil for a nil trace. Traces list
// their tasks by start already, so the arrival order is close to a scan.
func NewReplayIndex(tr *trace.Trace) *ReplayIndex {
	if tr == nil {
		return nil
	}
	order := trace.ArrivalOrder(tr.Tasks)
	n := len(order)
	idx := &ReplayIndex{
		tr:     tr,
		starts: make([]int64, n), ends: make([]int64, n),
		demand: make([]consolidation.VMDemand, n), rankOf: make([]int32, n),
	}
	for rank, ti := range order {
		t := &tr.Tasks[ti]
		idx.rankOf[ti] = int32(rank)
		idx.starts[rank], idx.ends[rank] = t.StartSec, t.EndSec
		idx.demand[rank] = consolidation.VMDemand{
			BookedCPU: t.BookedCPU, BookedMemGiB: t.BookedMemGiB,
			UsedCPU: t.UsedCPU, UsedMemGiB: t.UsedMemGiB,
		}
	}
	return idx
}

// Rank returns the rank of the task at position task of the trace's Tasks.
func (idx *ReplayIndex) Rank(task int) int32 { return idx.rankOf[task] }

// Demand returns the consolidation-level view of the VM of the given rank,
// whose ID is left empty.
func (idx *ReplayIndex) Demand(rank int32) consolidation.VMDemand { return idx.demand[rank] }

// builtOnline, when a test sets it, observes every index whose online part
// is built.
var builtOnline func(*ReplayIndex)

// onlinePart returns the online part of the index, built on the first call.
// It is read-only once built, so any number of walks may share it.
func (idx *ReplayIndex) onlinePart() *onlineIndex {
	idx.onlineOnce.Do(func() {
		o := &idx.online
		o.departs = trace.DepartureOrder(idx.tr.Tasks)
		for i, task := range o.departs {
			o.departs[i] = idx.rankOf[task]
		}
		o.busy = make([]uint64, (len(idx.demand)+63)/64)
		for rank, v := range idx.demand {
			if !v.Idle() {
				o.busy[rank/64] |= 1 << (rank % 64)
			}
		}
		if builtOnline != nil {
			builtOnline(idx)
		}
	})
	return &idx.online
}

// Feed returns a cursor at the start of the index's event feed.
func (idx *ReplayIndex) Feed() Feed { return Feed{departs: idx.onlinePart().departs, idx: idx} }

// Fold returns the Demand of the VMs whose ranks running holds, folded in
// rank order: SumDemand of them, bit for bit. Every sum adds its terms in that
// order, but the sums are split over three passes, the busy and idle sums
// over running masked by the VMs' busy bits, so that no pass branches on a VM
// and each keeps few sums live.
func (idx *ReplayIndex) Fold(running *ident.Set) consolidation.Demand {
	busy, words := idx.onlinePart().busy, running.Words()
	var d consolidation.Demand
	var bookedCPU, bookedMem, usedCPU, usedMem float64
	for i, w := range words {
		d.VMs += bits.OnesCount64(w)
		for ; w != 0; w &= w - 1 {
			v := &idx.demand[i*64+bits.TrailingZeros64(w)]
			bookedCPU += v.BookedCPU
			bookedMem += v.BookedMemGiB
			usedCPU += v.UsedCPU
			usedMem += v.UsedMemGiB
		}
	}
	d.BookedCPU, d.BookedMemGiB, d.UsedCPU, d.UsedMemGiB = bookedCPU, bookedMem, usedCPU, usedMem
	var busyCPU, busyMem, busyUsedCPU float64
	for i, w := range words {
		w &= busy[i]
		d.BusyVMs += bits.OnesCount64(w)
		for ; w != 0; w &= w - 1 {
			v := &idx.demand[i*64+bits.TrailingZeros64(w)]
			busyCPU += v.BookedCPU
			busyMem += v.BookedMemGiB
			busyUsedCPU += v.UsedCPU
		}
	}
	d.BusyBookedCPU, d.BusyBookedMemGiB, d.BusyUsedCPU = busyCPU, busyMem, busyUsedCPU
	var idleWSS, idleCold float64
	for i, w := range words {
		for w &^= busy[i]; w != 0; w &= w - 1 {
			v := &idx.demand[i*64+bits.TrailingZeros64(w)]
			idleWSS += v.WSSGiB()
			idleCold += v.BookedMemGiB - v.WSSGiB()
		}
	}
	d.IdleWSSGiB, d.IdleColdGiB = idleWSS, idleCold
	return d
}

// Event is one element of a feed: the VM of rank Rank arrives at AtSec, or
// departs then.
type Event struct {
	AtSec  int64
	Rank   int32
	Depart bool
}

// Feed walks a replay's arrivals and departures in time order, trace.Stream's
// order: at equal instants departures come first, and events of one kind
// follow the arrival and departure orders. It reads the index only, so it
// copies no task.
type Feed struct {
	departs       []int32
	idx           *ReplayIndex
	arrived, left int
}

// Next returns the next event, or ok=false when the feed is exhausted. The
// earliest-ending VM still to depart goes first when it is due no later than
// the next arrival; one that has not arrived yet never is, because the next
// arrival starts no later than it does and it ends after it starts.
func (f *Feed) Next() (ev Event, ok bool) {
	idx := f.idx
	if f.left < len(f.departs) {
		dep := f.departs[f.left]
		if f.arrived == len(idx.starts) || idx.ends[dep] <= idx.starts[f.arrived] {
			f.left++
			return Event{AtSec: idx.ends[dep], Rank: dep, Depart: true}, true
		}
	}
	if f.arrived == len(idx.starts) {
		return Event{}, false
	}
	f.arrived++
	return Event{AtSec: idx.starts[f.arrived-1], Rank: int32(f.arrived - 1)}, true
}

// departures counting-sorts the ranks by the epoch whose start retires them,
// ⌈end/period⌉: bucket e is ranks[first[e]:first[e+1]]. A walk sorts once for
// its period, and its shards share the buckets read-only.
func (idx *ReplayIndex) departures(periodSec int64, epochs int) (first, ranks []int32) {
	buf := make([]int32, epochs+3+len(idx.ends))
	first, ranks = buf[:epochs+3], buf[epochs+3:]
	for _, end := range idx.ends {
		first[(end+periodSec-1)/periodSec+2]++
	}
	for e := 1; e < len(first); e++ {
		first[e] += first[e-1]
	}
	for rank, end := range idx.ends { // moves first[e+1] from bucket e's start to its end
		at := &first[(end+periodSec-1)/periodSec+1]
		ranks[*at], *at = int32(rank), *at+1
	}
	return first, ranks
}

// replayer walks consolidation epochs in order over a shared index, holding
// the population's Demand as exact running sums (internal/exact): a VM is
// added when it arrives and subtracted when it departs. Its first population
// call may be at any epoch: it seeks, with one scan of the tasks started by
// then that admits those still running.
type replayer struct {
	idx          *ReplayIndex
	spans        []epochSpan
	goneAt, gone []int32 // the walk's departures
	next         int32   // the rank of the next arrival

	vms, busy                                        int
	bookedCPU, bookedMem, usedCPU, usedMem           exact.Sum
	busyCPU, busyMem, busyUsedCPU, idleWSS, idleCold exact.Sum
}

// population returns the Demand of epoch e, the epoch after the previous
// call's: it retires the VMs whose last second fell in the previous epoch and
// admits the tasks starting before e ends and running at its start. Until it
// has scanned a task a replayer has no VM to retire, so a seek retires none.
func (r *replayer) population(e int) consolidation.Demand {
	if r.next > 0 {
		for _, rank := range r.gone[r.goneAt[e]:r.goneAt[e+1]] {
			r.count(rank, -1)
		}
	}
	idx, span := r.idx, r.spans[e]
	for ; int(r.next) < len(idx.starts) && idx.starts[r.next] < span.end; r.next++ {
		if idx.ends[r.next] > span.start {
			r.count(r.next, 1)
		}
	}
	return consolidation.Demand{
		VMs: r.vms, BookedCPU: r.bookedCPU.Float(), BookedMemGiB: r.bookedMem.Float(),
		UsedCPU: r.usedCPU.Float(), UsedMemGiB: r.usedMem.Float(),
		BusyVMs: r.busy, BusyBookedCPU: r.busyCPU.Float(), BusyBookedMemGiB: r.busyMem.Float(),
		BusyUsedCPU: r.busyUsedCPU.Float(), IdleWSSGiB: r.idleWSS.Float(), IdleColdGiB: r.idleCold.Float(),
	}
}

// count adds (sign 1) or subtracts (sign -1) the terms consolidation.SumDemand
// folds for the VM of the given rank.
func (r *replayer) count(rank int32, sign int) {
	v, s := &r.idx.demand[rank], float64(sign)
	r.vms += sign
	r.bookedCPU.Add(s * v.BookedCPU)
	r.bookedMem.Add(s * v.BookedMemGiB)
	r.usedCPU.Add(s * v.UsedCPU)
	r.usedMem.Add(s * v.UsedMemGiB)
	if v.Idle() {
		r.idleWSS.Add(s * v.WSSGiB())
		r.idleCold.Add(s * (v.BookedMemGiB - v.WSSGiB()))
	} else {
		r.busy += sign
		r.busyCPU.Add(s * v.BookedCPU)
		r.busyMem.Add(s * v.BookedMemGiB)
		r.busyUsedCPU.Add(s * v.UsedCPU)
	}
}

// simulateEpoch evaluates the policy on the Demand of one epoch's population,
// which the walk keeps once for every config, integrates the fleet power over
// the epoch and, when transition costs are enabled, charges the events
// implied by moving from prev's posture to this epoch's. It returns the
// epoch's plan so the caller can thread it into the next epoch's delta.
func simulateEpoch(cfg *Config, d consolidation.Demand, span epochSpan, prev consolidation.FleetPlan) (epochStats, consolidation.FleetPlan) {
	plan := epochPlan(cfg, d, span)
	dt := float64(span.end - span.start)
	stats := epochStats{
		activeDt:  float64(plan.ActiveHosts) * dt,
		zombieDt:  float64(plan.ZombieHosts) * dt,
		sleepDt:   float64(plan.SleepHosts) * dt,
		utilDt:    plan.ActiveCPUUtilization * dt,
		dt:        dt,
		energyJ:   PosturePowerWatts(cfg.Machine, plan) * dt,
		baselineJ: BaselinePowerWatts(cfg.Machine, cfg.ServerSpec, d.UsedCPU, cfg.Trace.Machines) * dt,
	}
	if cfg.TransitionCosts {
		c := TransitionCost(cfg.Machine, cfg.Policy.Name(), chaosAlignPrev(cfg, prev, plan), plan, d, dt, chaosFabricFactor(cfg, span))
		stats.energyJ += c.Joules
		stats.transitionJ = c.Joules
		stats.transitions = c.Transitions
		stats.migrations = c.Migrations
		stats.migrationSec = c.MigrationSeconds
	}
	if !cfg.Chaos.Empty() {
		ch := chaosEpochCost(cfg, prev, plan, d.VMs, span)
		stats.energyJ += ch.joules
		stats.chaosJ = ch.joules
		stats.transitions += ch.transitions
		stats.wasted = ch.wasted
		stats.reHomedGiB = ch.reHomedGiB
	}
	return stats, plan
}

// epochPlan evaluates the policy on the Demand of one epoch's population
// against the capacity actually available: the full fleet, minus any servers
// the chaos plan holds crashed at the epoch start. It is the single planning
// entry point shared by a shard's epochs and its lookback, so every shard
// derives identical plans whatever the worker count.
func epochPlan(cfg *Config, d consolidation.Demand, span epochSpan) consolidation.FleetPlan {
	total := cfg.Trace.Machines
	if crashed := cfg.Chaos.CrashedAt(span.start); crashed > 0 {
		total -= crashed
		if total < 1 {
			total = 1
		}
	}
	return cfg.Policy.PlanDemand(d, cfg.ServerSpec, total)
}

// Run executes the simulation, sequentially or sharded across
// Config.Workers goroutines; the result is identical either way.
func Run(cfg Config) (Result, error) {
	return RunIndexed(cfg, NewReplayIndex(cfg.Trace))
}

// RunIndexed is Run over an index the caller built from cfg.Trace, so
// whatever replays one trace more than once (autopilot's regret reports and
// the scenario matrix) builds it once. It is the one-config walk.
func RunIndexed(cfg Config, idx *ReplayIndex) (Result, error) {
	cfgs := []Config{cfg}
	if err := prepare(idx, cfgs); err != nil {
		return Result{}, err
	}
	return walk(idx, cfgs)[0], nil
}

// prepare readies the configs of one walk: they must replay the trace idx
// was built from, which is validated once for all of them, then each gets
// the default 300 s period and is validated itself. The first error wins.
func prepare(idx *ReplayIndex, cfgs []Config) error {
	if idx == nil {
		return fmt.Errorf("dcsim: a trace is required")
	}
	if len(cfgs) > 0 && idx.tr != cfgs[0].Trace { // a walk's configs share its trace
		return fmt.Errorf("dcsim: the replay index was built from another trace")
	}
	if err := idx.tr.Validate(); err != nil {
		return err
	}
	for i := range cfgs {
		if cfgs[i].ConsolidationPeriodSec <= 0 {
			cfgs[i].ConsolidationPeriodSec = 300
		}
		if err := cfgs[i].validateRun(); err != nil {
			return err
		}
	}
	return nil
}

// mergeEpochStats folds per-epoch contributions into a Result in epoch order,
// performing the same additions in the same order as a sequential run.
func mergeEpochStats(cfg Config, stats []epochStats) Result {
	res := Result{
		Policy:          cfg.Policy.Name(),
		Machine:         cfg.Machine.Name,
		Trace:           cfg.Trace.Name,
		PeriodSec:       cfg.ConsolidationPeriodSec,
		TransitionCosts: cfg.TransitionCosts,
	}
	if !cfg.Chaos.Empty() {
		res.ChaosScenario = cfg.Chaos.Name
	}
	var horizonSec float64
	for _, s := range stats {
		res.EnergyJoules += s.energyJ
		res.BaselineJoules += s.baselineJ
		res.MeanActiveHosts += s.activeDt
		res.MeanZombieHosts += s.zombieDt
		res.MeanSleepHosts += s.sleepDt
		res.MeanActiveUtilization += s.utilDt
		res.TransitionJoules += s.transitionJ
		res.StateTransitions += s.transitions
		res.Migrations += s.migrations
		res.MigrationSeconds += s.migrationSec
		res.ChaosJoules += s.chaosJ
		res.WastedTransitions += s.wasted
		res.ReHomedGiB += s.reHomedGiB
		horizonSec += s.dt
		res.Epochs++
	}
	if horizonSec > 0 {
		res.MeanActiveHosts /= horizonSec
		res.MeanZombieHosts /= horizonSec
		res.MeanSleepHosts /= horizonSec
		res.MeanActiveUtilization /= horizonSec
	}
	if res.BaselineJoules > 0 {
		res.SavingPercent = 100 * (1 - res.EnergyJoules/res.BaselineJoules)
	}
	return res
}

// oasisMemoryServerFraction is the power of an Oasis memory server relative
// to the machine's peak (0.4 per the paper).
const oasisMemoryServerFraction = 0.4

// PosturePowerWatts returns the steady-state fleet power (watts) of one
// consolidation posture: active hosts at their operating point, zombies in
// Sz, Oasis memory servers at oasisMemoryServerFraction of peak power,
// sleepers in S3. It is the single pricing rule shared by the offline engine
// and the online control plane, so the two sides of a regret comparison
// integrate identical power.
func PosturePowerWatts(m *energy.MachineProfile, plan consolidation.FleetPlan) float64 {
	p := float64(plan.ActiveHosts) * m.PowerWatts(acpi.S0, plan.ActiveCPUUtilization)
	p += float64(plan.ZombieHosts) * m.PowerWatts(acpi.Sz, 0)
	p += float64(plan.MemoryServers) * oasisMemoryServerFraction * m.MaxPowerWatts
	p += float64(plan.SleepHosts) * m.PowerWatts(acpi.S3, 0)
	return p
}

// BaselinePowerWatts returns the no-consolidation fleet power: every server
// in S0 with the aggregate used CPU (cores) spread across the whole fleet.
// Shared with the online control plane for the same reason as
// PosturePowerWatts.
func BaselinePowerWatts(m *energy.MachineProfile, spec consolidation.ServerSpec, usedCPU float64, totalServers int) float64 {
	return float64(totalServers) * m.PowerWatts(acpi.S0, consolidation.Utilization(usedCPU, totalServers, spec.Cores))
}

// Oracle runs the offline simulation as the upper bound an online control
// plane is measured against: the same trace, planner, machine and
// consolidation period, with transition costs forced on so both sides pay
// for their posture changes. The result's SavingPercent is the costed oracle
// saving — optimistic only in its knowledge (each epoch is planned with the
// epoch's whole population, arrivals included), not in its accounting.
func Oracle(cfg Config) (Result, error) {
	cfg.TransitionCosts = true
	return Run(cfg)
}

// Comparison is the Figure 10 experiment: every policy on every machine
// profile for one trace.
type Comparison struct {
	Trace   string
	Results []Result
}

// CompareOptions bundles the engine knobs of a comparison run.
type CompareOptions struct {
	// Workers shards each run's per-epoch accounting (Config.Workers).
	Workers int
	// TransitionCosts enables the event-driven transition accounting.
	TransitionCosts bool
}

// CompareOpts runs Neat, Oasis and ZombieStack (plus the baseline used for
// the saving computation) on the trace for each machine profile with the
// given engine options, all in one walk: each epoch's population is built once
// and planned by every run.
func CompareOpts(tr *trace.Trace, machines []*energy.MachineProfile, spec consolidation.ServerSpec, opts CompareOptions) (Comparison, error) {
	idx := NewReplayIndex(tr)
	var cfgs []Config
	for _, m := range machines {
		for _, pol := range consolidation.Contenders() {
			cfgs = append(cfgs, Config{
				Trace: tr, Policy: pol, Machine: m, ServerSpec: spec,
				Workers: opts.Workers, TransitionCosts: opts.TransitionCosts,
			})
		}
	}
	if err := prepare(idx, cfgs); err != nil {
		return Comparison{}, err
	}
	return Comparison{Trace: tr.Name, Results: walk(idx, cfgs)}, nil
}

// Saving returns the saving of a given policy/machine pair from a comparison.
func (c Comparison) Saving(policy, machine string) (float64, bool) {
	for _, r := range c.Results {
		if r.Policy == policy && r.Machine == machine {
			return r.SavingPercent, true
		}
	}
	return 0, false
}

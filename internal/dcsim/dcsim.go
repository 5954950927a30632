package dcsim

import (
	"fmt"
	"math"

	"repro/internal/acpi"
	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/energy"
	"repro/internal/exact"
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

	// prices is Machine compiled once the config is prepared.
	prices energy.Prices
}

// Validate checks the configuration as Run does.
func (c *Config) Validate() error {
	if _, err := termGrid(c.Trace, c.Workers); err != nil {
		return err
	}
	return prepare([]Config{*c})
}

// validateRun checks everything the configuration, its default period
// applied, adds to its trace.
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
	// The epoch walk's clock runs to the first period start past the horizon.
	if c.Trace.HorizonSec > math.MaxInt64-c.ConsolidationPeriodSec {
		return fmt.Errorf("dcsim: horizon %d s plus consolidation period %d s overflows int64", c.Trace.HorizonSec, c.ConsolidationPeriodSec)
	}
	return c.Chaos.Validate()
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

// The terms of one VM in a difference array: a busy VM adds the first four,
// an idle VM all five, the last its cold memory BookedMemGiB - WSSGiB(),
// rounded as SumDemand rounds it. A cell holds the busy VMs' sums, then the
// idle VMs'. An idle VM's working set (VMDemand.WSSGiB) is its used memory,
// so the idle usedMem sum is also the population's IdleWSSGiB.
const (
	bookedCPU, bookedMem, usedCPU, usedMem, coldMem = 0, 1, 2, 3, 4
	busyTerms, cellTerms                            = coldMem, 2*coldMem + 1
)

// termGrid validates the trace and finds the fixed-point grid that holds
// every sum of its tasks' terms exactly, in one scan split into the ranges
// of workers: each sum of a difference pass adds or subtracts a task's term
// at most twice. A cold term needs no covering: booked and used memory are
// not negative, so their difference is a multiple of the lower one's lowest
// bit and no larger than the larger one, however it rounds.
//
// Its error is the one Trace.Validate returns: the metadata's, or that of
// the first invalid task. Each range stops at its own first, and the lowest
// range with one wins. A walk's trace error comes before its configs'.
func termGrid(tr *trace.Trace, workers int) (exact.Grid, error) {
	if tr == nil {
		return exact.Grid{}, fmt.Errorf("dcsim: a trace is required")
	}
	if err := tr.ValidateMeta(); err != nil {
		return exact.Grid{}, err
	}
	type scan struct {
		span exact.Span
		err  error
	}
	tasks := tr.Tasks
	scans := make([]scan, cut(len(tasks), workers))
	inParallel(len(tasks), len(scans), func(p, lo, hi int) {
		var span exact.Span
		for i := lo; i < hi; i++ {
			t := &tasks[i]
			if err := t.ValidateIn(tr.HorizonSec); err != nil {
				scans[p].err = err
				return
			}
			span.Cover(t.BookedCPU, t.BookedMemGiB, t.UsedCPU, t.UsedMemGiB)
		}
		scans[p].span = span
	})
	var span exact.Span
	for _, s := range scans {
		if s.err != nil {
			return exact.Grid{}, s.err
		}
		span.Join(s.span)
	}
	return span.Grid(2 * len(tasks)), nil
}

// epochDemands is the difference pass: the Demand of each of the epochs of
// periodSec over the trace, whose grid termGrid found, exactly the sums of
// the tasks overlapping the epoch's span, rounded once per field.
//
// A task overlaps epochs ⌊start/period⌋ through ⌈end/period⌉-1, so its
// counts and terms are added to the first one's cell of a difference array
// and subtracted from the cell after the last; one cell past the final epoch
// takes the departures no epoch sees. A cell is the busy and idle VM counts,
// then cellTerms numbers on the grid. Workers above 1 split the tasks into
// that many contiguous ranges, each entered into its own array, and a prefix
// scan adds every array's cells in, exactly, so the Demands do not depend on
// the split.
func epochDemands(tr *trace.Trace, grid exact.Grid, periodSec int64, epochs, workers int) []consolidation.Demand {
	parts := make([][]uint64, cut(len(tr.Tasks), workers))
	k := grid.Words
	stride := 2 + cellTerms*k
	inParallel(len(tr.Tasks), len(parts), func(p, lo, hi int) {
		d := make([]uint64, (epochs+1)*stride)
		for i := lo; i < hi; i++ {
			t := &tr.Tasks[i]
			in, out := int(t.StartSec/periodSec)*stride, int((t.EndSec+periodSec-1)/periodSec)*stride
			v := consolidation.VMDemand{BookedCPU: t.BookedCPU, BookedMemGiB: t.BookedMemGiB, UsedCPU: t.UsedCPU, UsedMemGiB: t.UsedMemGiB}
			terms := [...]float64{v.BookedCPU, v.BookedMemGiB, v.UsedCPU, v.UsedMemGiB, v.BookedMemGiB - v.WSSGiB()}
			idle := 0
			if v.Idle() {
				idle = 1
			}
			d[in+idle]++
			d[out+idle]--
			at := 2 + idle*busyTerms*k
			grid.AddDiff(d[in+at:], d[out+at:], terms[:busyTerms+idle])
		}
		parts[p] = d
	})
	d := parts[0]
	num := func(e, t int) []uint64 { return d[e*stride+2+t*k:][:k] }
	addCell := func(e int, from []uint64) {
		d[e*stride] += from[0]
		d[e*stride+1] += from[1]
		for t := range cellTerms {
			exact.Merge(num(e, t), from[2+t*k:][:k])
		}
	}
	total := make([]uint64, k)
	sum := func(e, t int) float64 { // the busy and idle VMs' sums of term t
		copy(total, num(e, t))
		exact.Merge(total, num(e, busyTerms+t))
		return grid.Float(total)
	}
	demand := make([]consolidation.Demand, epochs)
	for e := range demand {
		for _, o := range parts[1:] {
			addCell(e, o[e*stride:])
		}
		if e > 0 {
			addCell(e, d[(e-1)*stride:])
		}
		busy, idle := int(int64(d[e*stride])), int(int64(d[e*stride+1]))
		demand[e] = consolidation.Demand{
			VMs:       busy + idle,
			BookedCPU: sum(e, bookedCPU), BookedMemGiB: sum(e, bookedMem),
			UsedCPU: sum(e, usedCPU), UsedMemGiB: sum(e, usedMem),
			BusyVMs:          busy,
			BusyBookedCPU:    grid.Float(num(e, bookedCPU)),
			BusyBookedMemGiB: grid.Float(num(e, bookedMem)),
			BusyUsedCPU:      grid.Float(num(e, usedCPU)),
			IdleWSSGiB:       grid.Float(num(e, busyTerms+usedMem)),
			IdleColdGiB:      grid.Float(num(e, busyTerms+coldMem)),
		}
	}
	return demand
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
		energyJ:   PosturePowerWatts(&cfg.prices, plan) * dt,
		baselineJ: BaselinePowerWatts(&cfg.prices, cfg.ServerSpec, d.UsedCPU, cfg.Trace.Machines) * dt,
	}
	if cfg.TransitionCosts {
		c := TransitionCost(&cfg.prices, cfg.Policy.Name(), chaosAlignPrev(cfg, prev, plan), plan, d, dt, chaosFabricFactor(cfg, span))
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
	cfgs := []Config{cfg}
	grid, err := termGrid(cfg.Trace, cfg.Workers)
	if err == nil {
		err = prepare(cfgs)
	}
	if err != nil {
		return Result{}, err
	}
	return walk(cfgs, grid)[0], nil
}

// prepare readies the configs of one walk, whose trace termGrid validated:
// each gets the default 300 s period, is validated itself and compiles its
// prices. The first error wins.
func prepare(cfgs []Config) error {
	for i := range cfgs {
		c := &cfgs[i]
		if c.ConsolidationPeriodSec <= 0 {
			c.ConsolidationPeriodSec = 300
		}
		if err := c.validateRun(); err != nil {
			return err
		}
		c.prices = c.Machine.Prices()
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
func PosturePowerWatts(m *energy.Prices, plan consolidation.FleetPlan) float64 {
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
func BaselinePowerWatts(m *energy.Prices, spec consolidation.ServerSpec, usedCPU float64, totalServers int) float64 {
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
	cfgs := make([]Config, 0, 3*len(machines))
	for _, m := range machines {
		for _, pol := range consolidation.Contenders() {
			cfgs = append(cfgs, Config{
				Trace: tr, Policy: pol, Machine: m, ServerSpec: spec,
				Workers: opts.Workers, TransitionCosts: opts.TransitionCosts,
			})
		}
	}
	grid, err := termGrid(tr, opts.Workers)
	if err == nil {
		err = prepare(cfgs)
	}
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Trace: tr.Name, Results: walk(cfgs, grid)}, nil
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

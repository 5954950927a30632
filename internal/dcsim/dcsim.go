package dcsim

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/acpi"
	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/energy"
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

// applyDefaults fills optional fields.
func (c *Config) applyDefaults() {
	if c.ConsolidationPeriodSec <= 0 {
		c.ConsolidationPeriodSec = 300
	}
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
// shared by everything that replays it: dcsim's runs, shards and replayers,
// and autopilot's online loop. A VM's rank is its position in the
// lexicographic order of the VM IDs — the order the policies and the energy
// integrals have always seen populations in — so a replay keeps its running
// set as ascending integers and never compares a string.
type ReplayIndex struct {
	tr *trace.Trace
	// starts and ranks list the tasks in start order: the i-th task to start
	// does so at starts[i] and is the VM of rank ranks[i].
	starts []int64
	ranks  []int32
	// rankOf is indexed by a task's position in the trace.
	rankOf []int32
	// ends and demand are indexed by rank. The demands' VM IDs are substrings
	// of one buffer, formatted once per trace.
	ends   []int64
	demand []consolidation.VMDemand
}

// vmOrder is the integer order key of a VM ID: keys compare the way
// strings.Compare orders the "task-%d" strings (trace.Task.VMID), with no
// string in the comparison. Decimal digits compare like the number
// left-aligned to 19 places (the longest int64), a proper prefix sorts first
// ("task-12" before "task-120"), and '-' sorts below every digit, so negative
// IDs come first, ordered among themselves by the same rule.
type vmOrder struct {
	scaled   uint64 // |ID| · 10^(19-digits)
	digits   uint8
	positive bool // ID >= 0
}

func vmOrderOf(id int) vmOrder {
	abs := uint64(id)
	if id < 0 {
		abs = -abs
	}
	k := vmOrder{digits: 1, positive: id >= 0}
	scale := uint64(1e18)
	for pow := uint64(10); abs >= pow; pow *= 10 { // 10^19 still fits, and ends the loop
		k.digits++
		scale /= 10
	}
	k.scaled = abs * scale
	return k
}

func (a vmOrder) compare(b vmOrder) int {
	if a.positive != b.positive {
		if b.positive {
			return -1
		}
		return 1
	}
	return cmp.Or(cmp.Compare(a.scaled, b.scaled), cmp.Compare(a.digits, b.digits))
}

// prefix is the key's 32 most significant bits: ordering by it never
// contradicts compare, and IDs below 10^9 share one only when one ID's digits
// are the other's followed by zeros.
func (a vmOrder) prefix() uint64 {
	p := a.scaled >> 33
	if a.positive {
		p |= 1 << 31
	}
	return p
}

// NewReplayIndex builds the index. The ranks come from sorting packed
// (key prefix, task) integers, which needs no comparator, and then each run of
// equal prefixes by the full key. That puts a repeated task ID next to itself,
// so a trace in which two VMs would share one identity is rejected here with
// the ID named.
func NewReplayIndex(tr *trace.Trace) (*ReplayIndex, error) {
	if tr == nil {
		return nil, fmt.Errorf("dcsim: a trace is required")
	}
	n := len(tr.Tasks)
	idx := &ReplayIndex{
		tr:     tr,
		starts: make([]int64, n), ranks: make([]int32, n), rankOf: make([]int32, n),
		ends: make([]int64, n), demand: make([]consolidation.VMDemand, n),
	}
	byID := make([]uint64, n) // prefix<<32 | position in tr.Tasks
	idBytes := 0
	for i := range tr.Tasks {
		k := vmOrderOf(tr.Tasks[i].ID)
		byID[i] = k.prefix()<<32 | uint64(i)
		idBytes += len("task-") + int(k.digits)
		if !k.positive {
			idBytes++
		}
	}
	slices.Sort(byID)
	for i, j := 0, 1; i < n; i = j {
		for j = i + 1; j < n && byID[j]>>32 == byID[i]>>32; j++ {
		}
		slices.SortFunc(byID[i:j], func(a, b uint64) int {
			return vmOrderOf(tr.Tasks[uint32(a)].ID).compare(vmOrderOf(tr.Tasks[uint32(b)].ID))
		})
	}
	// Every VM ID is a substring of one buffer: Grow sizes it exactly, so the
	// substrings taken while it fills are substrings of the final string.
	var ids strings.Builder
	ids.Grow(idBytes)
	var digits [20]byte
	for rank, key := range byID {
		ti := uint32(key)
		t := &tr.Tasks[ti]
		if rank > 0 && t.ID == tr.Tasks[uint32(byID[rank-1])].ID {
			return nil, fmt.Errorf("dcsim: trace %q repeats task ID %d", tr.Name, t.ID)
		}
		at := ids.Len()
		ids.WriteString("task-")
		ids.Write(strconv.AppendInt(digits[:0], int64(t.ID), 10))
		idx.rankOf[ti] = int32(rank)
		idx.ends[rank] = t.EndSec
		idx.demand[rank] = consolidation.VMDemand{
			ID: ids.String()[at:], BookedCPU: t.BookedCPU, BookedMemGiB: t.BookedMemGiB,
			UsedCPU: t.UsedCPU, UsedMemGiB: t.UsedMemGiB,
		}
	}
	// Traces list their tasks by start already, so this sort is close to a
	// scan. Equal starts need no order: they are admitted in one batch, which
	// population sorts by rank. The order is built in idx.ranks itself: the
	// last loop reads entry i before it overwrites it.
	byStart := idx.ranks
	for i := range byStart {
		byStart[i] = int32(i)
	}
	slices.SortFunc(byStart, func(a, b int32) int { return cmp.Compare(tr.Tasks[a].StartSec, tr.Tasks[b].StartSec) })
	for i, ti := range byStart {
		idx.starts[i], idx.ranks[i] = tr.Tasks[ti].StartSec, idx.rankOf[ti]
	}
	return idx, nil
}

// Rank returns the rank of the task at position task of the trace's Tasks.
func (idx *ReplayIndex) Rank(task int) int32 { return idx.rankOf[task] }

// Demand returns the consolidation-level view of the VM of the given rank.
func (idx *ReplayIndex) Demand(rank int32) consolidation.VMDemand { return idx.demand[rank] }

// liveCounts returns how many VMs each epoch's population holds, in one sweep
// over the index: a task is live from the epoch it starts in to the epoch its
// last second falls in.
func (idx *ReplayIndex) liveCounts(periodSec int64, epochs int) []int {
	live := make([]int, epochs+1)
	for i, start := range idx.starts {
		live[start/periodSec]++
		live[(idx.ends[idx.ranks[i]]-1)/periodSec+1]--
	}
	for e := 1; e < epochs; e++ {
		live[e] += live[e-1]
	}
	return live[:epochs]
}

// replayer walks consolidation epochs in order over a shared index, keeping
// the ranks of the running VMs ascending. It may start at any epoch: admission
// only depends on the epoch end and retirement only on the epoch start, so its
// first population call seeks — one scan of the tasks started so far that
// keeps those still running, one integer sort of the survivors — and every
// later call costs that epoch's arrivals and live set, whatever came before.
type replayer struct {
	idx     *ReplayIndex
	next    int
	running []int32
	spare   []int32
	batch   []int32
	buf     []consolidation.VMDemand
}

// newReplayer sizes every buffer once for the largest population the walk
// will meet (live is the run's liveCounts), so the epoch loop allocates
// nothing and population writes by position.
func newReplayer(idx *ReplayIndex, live []int) *replayer {
	peak := slices.Max(live)
	return &replayer{
		idx:     idx,
		running: make([]int32, 0, peak), spare: make([]int32, peak), batch: make([]int32, 0, peak),
		buf: make([]consolidation.VMDemand, peak),
	}
}

// population returns the epoch's VM population sorted by ID, valid until the
// next call. The tasks starting before the epoch end and ending after its
// start are sorted by rank and merged with the running set into the spare
// buffer, dropping finished VMs and materialising demands in the same pass.
func (r *replayer) population(span epochSpan) []consolidation.VMDemand {
	idx := r.idx
	batch := r.batch[:0]
	for ; r.next < len(idx.starts) && idx.starts[r.next] < span.end; r.next++ {
		if rank := idx.ranks[r.next]; idx.ends[rank] > span.start {
			batch = append(batch, rank)
		}
	}
	slices.Sort(batch)
	r.batch = batch
	live, buf, n := r.spare[:cap(r.spare)], r.buf, 0
	for running := r.running; len(running) > 0 || len(batch) > 0; {
		var rank int32
		if len(batch) == 0 || len(running) > 0 && running[0] < batch[0] {
			rank, running = running[0], running[1:]
			if idx.ends[rank] <= span.start {
				continue
			}
		} else {
			rank, batch = batch[0], batch[1:]
		}
		live[n], buf[n] = rank, idx.demand[rank]
		n++
	}
	r.running, r.spare = live[:n], r.running
	return buf[:n]
}

// simulateEpoch evaluates the policy on one epoch's population, integrates
// the fleet power over the epoch and, when transition costs are enabled,
// charges the events implied by moving from prev's posture to this epoch's.
// It returns the epoch's plan so the caller can thread it into the next
// epoch's delta.
func simulateEpoch(cfg *Config, vms []consolidation.VMDemand, span epochSpan, prev consolidation.FleetPlan) (epochStats, consolidation.FleetPlan) {
	plan := epochPlan(cfg, vms, span)
	dt := float64(span.end - span.start)
	stats := epochStats{
		activeDt:  float64(plan.ActiveHosts) * dt,
		zombieDt:  float64(plan.ZombieHosts) * dt,
		sleepDt:   float64(plan.SleepHosts) * dt,
		utilDt:    plan.ActiveCPUUtilization * dt,
		dt:        dt,
		energyJ:   PosturePowerWatts(cfg.Machine, plan) * dt,
		baselineJ: baselinePower(cfg, vms) * dt,
	}
	if cfg.TransitionCosts {
		c := TransitionCost(cfg.Machine, cfg.Policy.Name(), chaosAlignPrev(cfg, prev, plan), plan, vms, dt, chaosFabricFactor(cfg, span))
		stats.energyJ += c.Joules
		stats.transitionJ = c.Joules
		stats.transitions = c.Transitions
		stats.migrations = c.Migrations
		stats.migrationSec = c.MigrationSeconds
	}
	if !cfg.Chaos.Empty() {
		ch := chaosEpochCost(cfg, prev, plan, vms, span)
		stats.energyJ += ch.joules
		stats.chaosJ = ch.joules
		stats.transitions += ch.transitions
		stats.wasted = ch.wasted
		stats.reHomedGiB = ch.reHomedGiB
	}
	return stats, plan
}

// epochPlan evaluates the policy on one epoch's population against the
// capacity actually available: the full fleet, minus any servers the chaos
// plan holds crashed at the epoch start. It is the single planning entry
// point shared by the sequential walk and the parallel shards' lookback, so
// both derive identical plans whatever the worker count.
func epochPlan(cfg *Config, vms []consolidation.VMDemand, span epochSpan) consolidation.FleetPlan {
	total := cfg.Trace.Machines
	if crashed := cfg.Chaos.CrashedAt(span.start); crashed > 0 {
		total -= crashed
		if total < 1 {
			total = 1
		}
	}
	return cfg.Policy.Plan(vms, cfg.ServerSpec, total)
}

// initialPlan is the fleet posture before the first epoch: all servers awake
// in S0, so the first epoch pays for consolidating the fleet out of the
// baseline posture.
func initialPlan(cfg *Config) consolidation.FleetPlan {
	return consolidation.InitialPlan(cfg.Trace.Machines)
}

// Run executes the simulation, sequentially or sharded across
// Config.Workers goroutines; the result is identical either way.
func Run(cfg Config) (Result, error) {
	idx, err := NewReplayIndex(cfg.Trace)
	if err != nil {
		return Result{}, err
	}
	return RunIndexed(cfg, idx)
}

// RunIndexed is Run over an index the caller built from cfg.Trace, so
// whatever replays one trace more than once (CompareOpts, Sweep, autopilot's
// regret reports and the scenario matrix) builds it once.
func RunIndexed(cfg Config, idx *ReplayIndex) (Result, error) {
	if idx == nil || idx.tr != cfg.Trace {
		return Result{}, fmt.Errorf("dcsim: the replay index was built from another trace")
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	cfg.applyDefaults()
	spans := epochSpans(cfg.Trace.HorizonSec, cfg.ConsolidationPeriodSec)
	live := idx.liveCounts(cfg.ConsolidationPeriodSec, len(spans))

	stats := make([]epochStats, len(spans))
	if cfg.Workers > 1 && len(spans) > 1 {
		simulateShards(&cfg, idx, spans, live, stats)
	} else {
		rep := newReplayer(idx, live)
		prev := initialPlan(&cfg)
		for i, span := range spans {
			stats[i], prev = simulateEpoch(&cfg, rep.population(span), span, prev)
		}
	}
	return mergeEpochStats(cfg, stats), nil
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

// baselinePower returns the fleet's power without consolidation: every server
// stays in S0 and the load spreads across the whole fleet.
func baselinePower(cfg *Config, vms []consolidation.VMDemand) float64 {
	var usedCPU float64
	for _, v := range vms {
		usedCPU += v.UsedCPU
	}
	return BaselinePowerWatts(cfg.Machine, cfg.ServerSpec, usedCPU, cfg.Trace.Machines)
}

// BaselinePowerWatts returns the no-consolidation fleet power: every server
// in S0 with the aggregate used CPU (cores) spread across the whole fleet.
// Shared with the online control plane for the same reason as
// PosturePowerWatts.
func BaselinePowerWatts(m *energy.MachineProfile, spec consolidation.ServerSpec, usedCPU float64, totalServers int) float64 {
	util := 0.0
	if totalServers > 0 && spec.Cores > 0 {
		util = usedCPU / (float64(totalServers) * spec.Cores)
		if util > 1 {
			util = 1
		}
	}
	return float64(totalServers) * m.PowerWatts(acpi.S0, util)
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
// given engine options.
func CompareOpts(tr *trace.Trace, machines []*energy.MachineProfile, spec consolidation.ServerSpec, opts CompareOptions) (Comparison, error) {
	idx, err := NewReplayIndex(tr)
	if err != nil {
		return Comparison{}, err
	}
	cmp := Comparison{Trace: tr.Name}
	for _, m := range machines {
		for _, pol := range consolidation.Contenders() {
			res, err := RunIndexed(Config{
				Trace: tr, Policy: pol, Machine: m, ServerSpec: spec,
				Workers: opts.Workers, TransitionCosts: opts.TransitionCosts,
			}, idx)
			if err != nil {
				return Comparison{}, err
			}
			cmp.Results = append(cmp.Results, res)
		}
	}
	return cmp, nil
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

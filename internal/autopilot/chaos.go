package autopilot

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/acpi"
	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/dcsim"
)

// Fault-aware re-planning: the online loop consumes a chaos.Plan as a fourth
// event source next to arrivals, departures and ticks. Faults mutate the
// loop's view of the fleet (crashed and stuck servers leave the usable pool)
// and bill pure energy penalties on the consolidated side, so a faulted run
// can only save less than its fault-free twin — the resilience bound
// TestChaosResilienceBound pins. Everything below is driven by the plan's
// contents and the loop's own deterministic order, so identical seeds yield
// bit-identical results.

// momentKind orders the chaos timeline events.
type momentKind uint8

// The moment kinds, in processing order at equal instants: repairs free
// capacity before new faults strike, crashes strike before controller
// losses.
const (
	momentRepair momentKind = iota
	momentStuckRepair
	momentCrash
	momentCtrlLoss
)

// chaosMoment is one instant the loop must react to.
type chaosMoment struct {
	at   int64
	kind momentKind
	idx  int // index of the originating fault in the plan
}

// chaosRun is the mutable fault-injection state of one loop run.
type chaosRun struct {
	plan    *chaos.Plan
	moments []chaosMoment
	next    int
	// crashed and stuck count the servers currently out of the usable pool:
	// crashed servers wedge at S0 idle, stuck zombies burn Sz.
	crashed int
	stuck   int
	// faults holds each plan fault's state: a WakeFailure's remaining
	// budget, and what actually struck, so repairs restore exactly the
	// servers that were lost.
	faults []faultState
}

// faultState is one fault's share of a chaosRun.
type faultState struct {
	wakeBudget, failed, crashed int
}

// newChaosRun compiles a plan into the loop's fault timeline.
func newChaosRun(p *chaos.Plan) *chaosRun {
	c := &chaosRun{plan: p, faults: make([]faultState, len(p.Faults))}
	for i, f := range p.Faults {
		switch f.Kind {
		case chaos.ServerCrash:
			c.moments = append(c.moments,
				chaosMoment{at: f.AtSec, kind: momentCrash, idx: i},
				chaosMoment{at: f.AtSec + f.DurationSec, kind: momentRepair, idx: i})
		case chaos.WakeFailure:
			c.faults[i].wakeBudget = f.Count
			c.moments = append(c.moments,
				chaosMoment{at: f.AtSec + f.DurationSec, kind: momentStuckRepair, idx: i})
		case chaos.ControllerLoss:
			c.moments = append(c.moments,
				chaosMoment{at: f.AtSec, kind: momentCtrlLoss, idx: i})
		}
		// FabricDegrade is queried at billing time and TraceBurst was applied
		// to the trace before the run; neither needs a timeline moment.
	}
	sort.SliceStable(c.moments, func(a, b int) bool {
		if c.moments[a].at != c.moments[b].at {
			return c.moments[a].at < c.moments[b].at
		}
		return c.moments[a].kind < c.moments[b].kind
	})
	return c
}

// peek returns the next unprocessed moment.
func (c *chaosRun) peek() (chaosMoment, bool) {
	if c.next >= len(c.moments) {
		return chaosMoment{}, false
	}
	return c.moments[c.next], true
}

// pop consumes the next moment.
func (c *chaosRun) pop() { c.next++ }

// takeWakeFailures consumes up to attempts failures from the budgets of the
// WakeFailure faults whose window contains now, in plan order.
func (c *chaosRun) takeWakeFailures(now int64, attempts int) int {
	failed := 0
	for i, f := range c.plan.Faults {
		if attempts <= 0 {
			break
		}
		st := &c.faults[i]
		if f.Kind != chaos.WakeFailure || st.wakeBudget <= 0 {
			continue
		}
		if f.AtSec <= now && now < f.AtSec+f.DurationSec {
			take := st.wakeBudget
			if take > attempts {
				take = attempts
			}
			st.wakeBudget -= take
			st.failed += take
			attempts -= take
			failed += take
		}
	}
	return failed
}

// chaosMoment applies one timeline event to the loop.
func (l *lane) chaosMoment(now int64, m chaosMoment) error {
	f := l.chaos.plan.Faults[m.idx]
	switch m.kind {
	case momentCrash:
		return l.chaosCrash(now, f, m.idx)
	case momentRepair:
		l.chaosRepair(now, m.idx)
	case momentStuckRepair:
		l.chaosStuckRepair(now, m.idx)
	case momentCtrlLoss:
		// The secondary controller promotes itself and rebuilds the remote
		// memory state from its mirrored log; one machine's worth of S0 idle
		// power burns for the rebuild window.
		l.res.ControllerFailovers++
		l.addPenalty(float64(f.DurationSec) * l.prices.PowerWatts(acpi.S0, 0))
		l.obs.observeChaosCtrlLoss(now, f.DurationSec)
	}
	return nil
}

// chaosCrash strikes one ServerCrash fault: victims leave the usable pool
// (wedged at S0 idle until repair), crashed serving servers re-home their
// remote-memory share onto freshly woken replacements, and lost active
// capacity is replaced through the emergency-wake path — whose S3->S0
// attempts the same plan's wake failures can strike.
func (l *lane) chaosCrash(now int64, f chaos.Fault, idx int) error {
	targetActive := l.posture.ActiveHosts
	util := consolidation.Utilization(l.usedCPU, l.posture.ActiveHosts, l.cfg.ServerSpec.Cores)
	order := dcsim.StrikeOrder(f.Role)
	struck := 0
	for ; struck < f.Count; struck++ {
		i := slices.IndexFunc(order[:], func(c consolidation.Category) bool { return *l.posture.Hosts(c) > 0 })
		if i < 0 {
			break
		}
		c := order[i]
		l.chaos.crashed++
		share := dcsim.ServingShare(l.posture)
		*l.posture.Hosts(c)--
		if c == consolidation.ZombieHost || c == consolidation.MemoryServer {
			l.reHome(now, share, c, util)
		}
	}
	l.chaos.faults[idx].crashed = struck
	l.res.ServerCrashes += struck
	l.obs.observeChaosCrash(now, struck)
	if l.posture.ActiveHosts < targetActive {
		return l.ensureActive(now, targetActive)
	}
	return nil
}

// reHome moves a crashed serving server's remote-memory share onto a
// replacement: the transfer crosses the fabric at the instant's degradation
// factor (stalling one active host at util, the utilization when the crash
// struck, which the offline epoch bill reads from its plan), and a sleeper
// wakes into the crashed server's category c. With no sleeper left the share
// is lost — an SLO violation.
func (l *lane) reHome(now int64, shareGiB float64, c consolidation.Category, util float64) {
	m := &l.prices
	if shareGiB > 0 {
		l.res.ReHomedGiB += shareGiB
		l.addPenalty(dcsim.ReHomeJoules(m, shareGiB, util, l.chaos.plan.FabricFactorAt(now)))
	}
	if l.posture.SleepHosts <= 0 {
		l.posture.RemoteMemoryGiB -= shareGiB
		if l.posture.RemoteMemoryGiB < 0 {
			l.posture.RemoteMemoryGiB = 0
		}
		l.res.SLOViolations++
		return
	}
	l.posture.SleepHosts--
	*l.posture.Hosts(c)++
	joules, transitions := dcsim.Replacement(m, c)
	l.addPenalty(joules)
	l.res.StateTransitions += transitions
}

// chaosRepair returns a crash fault's victims to the sleep pool: the wedged
// servers reboot into S3.
func (l *lane) chaosRepair(now int64, idx int) {
	n := l.chaos.faults[idx].crashed
	if n <= 0 {
		return
	}
	l.chaos.faults[idx].crashed = 0
	l.chaos.crashed -= n
	l.posture.SleepHosts += n
	l.addPenalty(float64(n) * l.prices.TransitionJoules(acpi.S0, acpi.S3))
	l.res.StateTransitions += n
	l.obs.observeChaosRepair(now, "crash", n)
}

// chaosStuckRepair releases the stuck zombies of one WakeFailure fault when
// its window closes: each wakes fully (Sz->S0) and re-suspends to S3.
func (l *lane) chaosStuckRepair(now int64, idx int) {
	n := l.chaos.faults[idx].failed
	if n <= 0 {
		return
	}
	l.chaos.faults[idx].failed = 0
	l.chaos.stuck -= n
	l.posture.SleepHosts += n
	m := &l.prices
	l.addPenalty(float64(n) * (m.TransitionJoules(acpi.Sz, acpi.S0) + m.TransitionJoules(acpi.S0, acpi.S3)))
	l.res.StateTransitions += 2 * n
	l.obs.observeChaosRepair(now, "stuck", n)
}

// ChaosRow is one online configuration replayed under one fault plan for a
// set of online policies: every policy's faulted run (trace perturbed by the
// plan's bursts, faults injected into the loop) against its own fault-free
// twin and against the offline oracle re-run under the identical schedule.
// What does not depend on the policy is done once for the row: the perturbed
// trace, the two replay indexes and the two oracle runs per planner. An empty
// plan reuses the twins outright — the faulted runs would be bit-identical by
// the empty-plan contract, so re-simulating them buys nothing.
type ChaosRow struct {
	plan        *chaos.Plan
	ff, faulted *replay // one and the same under an empty plan
}

// NewChaosRow prepares the row. Policies are cloned per run, so the caller's
// instances are never polluted. cfg.Policy is ignored; cfg.OnTick and cfg.Obs
// observe the faulted runs only (the twins run silently), so set them only
// for a single policy or when the jobs run one after the other.
func NewChaosRow(cfg Config, plan *chaos.Plan, policies []Policy) (*ChaosRow, error) {
	if len(policies) == 0 {
		return nil, fmt.Errorf("autopilot: a chaos row needs at least one policy")
	}
	ff, err := newFaultFree(cfg, policies)
	if err != nil {
		return nil, err
	}
	return newChaosRow(cfg, plan, policies, ff)
}

// newFaultFree prepares the fault-free twins of a configuration.
func newFaultFree(cfg Config, policies []Policy) (*replay, error) {
	cfg.Chaos = nil
	cfg.OnTick = nil
	cfg.Obs = nil
	return newReplay(cfg, freshPolicies(policies))
}

// newChaosRow prepares the faulted side of a row against already-prepared
// fault-free twins, which CompareChaos shares across its scenarios. Each side
// checks its own trace as it indexes it, the faulted side the perturbed one,
// whose bursts PerturbTrace keeps inside the horizon.
func newChaosRow(cfg Config, plan *chaos.Plan, policies []Policy, ff *replay) (*ChaosRow, error) {
	if plan == nil {
		plan = &chaos.Plan{Name: "off"}
	}
	if err := plan.Validate(); err != nil {
		return nil, cfg.traceFirst(err)
	}
	row := &ChaosRow{plan: plan, ff: ff, faulted: ff}
	if !plan.Empty() {
		cfg.Chaos = plan
		var err error
		if row.faulted, err = newReplay(cfg, freshPolicies(policies)); err != nil {
			return nil, err
		}
	}
	return row, nil
}

// Jobs returns the row's simulations: per side, the online walks and one
// oracle run per planner. They are independent and may run concurrently;
// Reports is valid once all of them have returned nil. Each side's first job
// comes before either side's second, so the first two workers of a pool
// prepare one side each.
func (r *ChaosRow) Jobs() []func() error {
	ff := r.ff.jobs()
	if r.faulted == r.ff {
		return ff
	}
	faulted := r.faulted.jobs()
	jobs := append([]func() error{ff[0], faulted[0]}, ff[1:]...)
	return append(jobs, faulted[1:]...)
}

// Reports assembles the resilience reports, one per policy in the order
// given to NewChaosRow.
func (r *ChaosRow) Reports() []chaos.Report {
	reports := make([]chaos.Report, len(r.ff.policies))
	for i := range reports {
		ff, faulted := r.ff.report(i), r.faulted.report(i)
		rep := chaos.Report{
			Scenario: r.plan.Name,
			Seed:     r.plan.Seed,
			Policy:   ff.Policy,
			Planner:  ff.Planner,
			Trace:    ff.Trace,
			Machine:  ff.Machine,
			TickSec:  ff.TickSec,
			Faults:   r.plan.Tally(),

			FaultFreeSavingPercent: ff.Online.SavingPercent,
			FaultFreeEnergyJoules:  ff.Online.EnergyJoules,
			OracleSavingPercent:    ff.Oracle.SavingPercent,

			SavingPercent:              faulted.Online.SavingPercent,
			EnergyJoules:               faulted.Online.EnergyJoules,
			BaselineJoules:             faulted.Online.BaselineJoules,
			OracleFaultedSavingPercent: faulted.Oracle.SavingPercent,
			ResilienceRegretPercent:    faulted.Oracle.SavingPercent - faulted.Online.SavingPercent,

			SLOViolations:       faulted.Online.SLOViolations,
			WastedTransitions:   faulted.Online.WastedTransitions,
			WastedJoules:        faulted.Online.WastedJoules,
			ReHomedGiB:          faulted.Online.ReHomedGiB,
			ServerCrashes:       faulted.Online.ServerCrashes,
			StuckZombies:        faulted.Online.StuckZombies,
			ControllerFailovers: faulted.Online.ControllerFailovers,
			EmergencyWakes:      faulted.Online.EmergencyWakes,
			Arrivals:            faulted.Online.Arrivals,
			Admitted:            faulted.Online.Admitted,
			Rejected:            faulted.Online.Rejected,
		}
		if ff.Online.SavingPercent > 0 {
			rep.SavingsRetainedPercent = 100 * rep.SavingPercent / ff.Online.SavingPercent
		}
		reports[i] = rep
	}
	return reports
}

// RunChaos replays one online configuration under a fault plan and returns
// the full resilience report: a ChaosRow of cfg.Policy alone.
func RunChaos(cfg Config, plan *chaos.Plan) (chaos.Report, error) {
	row, err := NewChaosRow(cfg, plan, []Policy{cfg.Policy})
	if err != nil {
		return chaos.Report{}, err
	}
	if err := runJobs(row.Jobs()); err != nil {
		return chaos.Report{}, err
	}
	return row.Reports()[0], nil
}

// CompareChaos runs the same online configuration under every given fault
// plan, in order — the scenario axis of the chaos comparison. The fault-free
// twin (online run + oracle) is computed once and shared across scenarios:
// it is a pure function of the configuration, so every RunChaos would
// reproduce it bit for bit anyway.
func CompareChaos(cfg Config, plans []*chaos.Plan) ([]chaos.Report, error) {
	policies := []Policy{cfg.Policy}
	ff, err := newFaultFree(cfg, policies)
	if err != nil {
		return nil, err
	}
	if err := runJobs(ff.jobs()); err != nil {
		return nil, err
	}
	reports := make([]chaos.Report, 0, len(plans))
	for _, plan := range plans {
		row, err := newChaosRow(cfg, plan, policies, ff)
		if err == nil && row.faulted != ff {
			err = runJobs(row.faulted.jobs())
		}
		if err != nil {
			name := "nil"
			if plan != nil {
				name = plan.Name
			}
			return nil, fmt.Errorf("autopilot: chaos scenario %q: %w", name, err)
		}
		reports = append(reports, row.Reports()[0])
	}
	return reports, nil
}

// freshPolicies returns a clean instance of each policy for one run: a policy
// with state implements Clone (the EWMA forecaster resets its forecast);
// anything else, the stateless reactive and hysteresis policies included, is
// used as-is.
func freshPolicies(policies []Policy) []Policy {
	fresh := make([]Policy, len(policies))
	for i, p := range policies {
		if c, ok := p.(interface{ Clone() Policy }); ok {
			p = c.Clone()
		}
		fresh[i] = p
	}
	return fresh
}

package autopilot

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"repro/internal/consolidation"
	"repro/internal/dcsim"
	"repro/internal/metrics"
)

// Report is the regret report of one online run: the online policy's costed
// result side by side with the offline dcsim oracle on the same trace,
// planner, machine, hardware spec and period. Regret is the saving the
// online policy leaves on the table for not knowing the future.
type Report struct {
	Trace   string
	Machine string
	Planner string
	Policy  string
	TickSec int64
	// Online is the control loop's result; Oracle the offline bound
	// (dcsim.Oracle: transition costs forced on).
	Online Result
	Oracle dcsim.Result
	// RegretPercent is Oracle.SavingPercent - Online.SavingPercent, in
	// percentage points (>= 0 whenever the oracle bound holds).
	RegretPercent float64
}

// replay is one trace under one fault plan, replayed for a set of online
// policies: what the runs share (the perturbed trace, its replay index, the
// defaulted configuration) is made once, and each oracle is computed once,
// because the oracle depends on the trace, planner, machine, spec, tick and
// fault plan but not on the online policy measured against it.
type replay struct {
	cfg      Config // validated, defaults applied, Trace perturbed; Policy is not read
	idx      *dcsim.ReplayIndex
	policies []Policy
	online   []Result // by policy
	// planners lists the distinct planners under the policies and oracles the
	// bound each one sets; policy i is measured against oracles[oracleOf[i]].
	planners []consolidation.Policy
	oracles  []dcsim.Result
	oracleOf []int
}

// newReplay prepares the replay of cfg for the given policies (at least one),
// which it runs as they are: each must be a fresh instance. cfg.Policy is
// ignored. A chaos plan on the config is applied to BOTH sides: the trace is
// perturbed once here, the online loops inject the faults as events, and the
// oracle replays under the same schedule through dcsim's degraded-capacity
// pricing.
func newReplay(cfg Config, policies []Policy) (*replay, error) {
	cfg.Policy = policies[0]
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for _, pol := range policies[1:] {
		if err := validatePolicy(pol); err != nil {
			return nil, err
		}
	}
	cfg.Policy = nil
	cfg.applyDefaults()
	if !cfg.Chaos.Empty() {
		cfg.Trace = cfg.Chaos.PerturbTrace(cfg.Trace)
	}
	idx, err := dcsim.NewReplayIndex(cfg.Trace)
	if err != nil {
		return nil, err
	}
	r := &replay{
		cfg: cfg, idx: idx, policies: policies,
		online: make([]Result, len(policies)), oracleOf: make([]int, len(policies)),
	}
	for i, pol := range policies {
		k := slices.IndexFunc(r.planners, func(p consolidation.Policy) bool { return samePlanner(p, pol.Planner()) })
		if k < 0 {
			k = len(r.planners)
			r.planners = append(r.planners, pol.Planner())
		}
		r.oracleOf[i] = k
	}
	r.oracles = make([]dcsim.Result, len(r.planners))
	return r, nil
}

// samePlanner reports whether two policies plan with one planner value, and
// so share an oracle. Interface equality panics on an uncomparable dynamic
// type; such planners count as different and get an oracle each.
func samePlanner(a, b consolidation.Policy) bool {
	t := reflect.TypeOf(a)
	return t == reflect.TypeOf(b) && t.Comparable() && a == b
}

// jobs returns the replay's simulations, the online run of policy i at
// position i and the oracles after them. They are independent: each writes
// its own result and only reads what the replay shares, so they may run
// concurrently.
func (r *replay) jobs() []func() error {
	jobs := make([]func() error, 0, len(r.policies)+len(r.planners))
	for i, pol := range r.policies {
		jobs = append(jobs, func() (err error) {
			cfg := r.cfg
			cfg.Policy = pol
			r.online[i], err = run(cfg, r.idx)
			return err
		})
	}
	for k, planner := range r.planners {
		jobs = append(jobs, func() (err error) {
			r.oracles[k], err = dcsim.RunIndexed(oracleConfig(&r.cfg, planner), r.idx)
			return err
		})
	}
	return jobs
}

// runJobs runs the jobs in order and stops at the first failure, returning
// its position.
func runJobs(jobs []func() error) (int, error) {
	for i, job := range jobs {
		if err := job(); err != nil {
			return i, err
		}
	}
	return 0, nil
}

// report pairs policy i's online result with its oracle.
func (r *replay) report(i int) Report {
	online, oracle := r.online[i], r.oracles[r.oracleOf[i]]
	return Report{
		Trace:         r.cfg.Trace.Name,
		Machine:       r.cfg.Machine.Name,
		Planner:       online.Planner,
		Policy:        online.Policy,
		TickSec:       r.cfg.TickSec,
		Online:        online,
		Oracle:        oracle,
		RegretPercent: oracle.SavingPercent - online.SavingPercent,
	}
}

// oracleConfig builds the dcsim configuration the oracle replays with:
// dcsim.Oracle's (transition costs forced on, so both sides pay for their
// posture changes), aligned with the online configuration field by field.
func oracleConfig(cfg *Config, planner consolidation.Policy) dcsim.Config {
	return dcsim.Config{
		Trace:                  cfg.Trace,
		Policy:                 planner,
		Machine:                cfg.Machine,
		ServerSpec:             cfg.ServerSpec,
		ConsolidationPeriodSec: cfg.TickSec,
		TransitionCosts:        true,
		Workers:                cfg.Workers,
		Chaos:                  cfg.Chaos,
	}
}

// Regret runs the online control loop and the offline oracle on the same
// configuration and returns the comparison. The oracle replays the identical
// trace with the identical planner, machine, server spec, consolidation
// period and transition-cost model — the only difference is knowledge: the
// oracle plans each epoch with the epoch's whole population (arrivals
// included), the online loop only ever sees the past. A chaos plan on the
// config is applied to both sides — the apples-to-apples resilience regret.
func Regret(cfg Config) (Report, error) {
	r, err := newReplay(cfg, []Policy{cfg.Policy})
	if err != nil {
		return Report{}, err
	}
	if _, err := runJobs(r.jobs()); err != nil {
		return Report{}, err
	}
	return r.report(0), nil
}

// CompareOnline runs the regret comparison for every given policy on the
// same configuration, in order, over one replay index and with one oracle
// run per distinct planner. Each policy must be a fresh instance (the bundled
// ones hold forecasting state) — Policies supplies a matching set.
func CompareOnline(cfg Config, policies []Policy) ([]Report, error) {
	reports := make([]Report, 0, len(policies))
	if len(policies) == 0 {
		return reports, nil
	}
	r, err := newReplay(cfg, policies)
	if err != nil {
		return nil, err
	}
	if i, err := runJobs(r.jobs()); err != nil {
		if i < len(policies) {
			err = fmt.Errorf("autopilot: policy %q: %w", policies[i].Name(), err)
		}
		return nil, err
	}
	for i := range policies {
		reports = append(reports, r.report(i))
	}
	return reports, nil
}

// Render formats the report as an aligned two-row table (online vs oracle)
// plus the regret line. The output is a pure function of the report, so a
// fixed trace seed reproduces it bit for bit.
func (r Report) Render() string {
	var b strings.Builder
	t := metrics.NewTable(
		fmt.Sprintf("Regret — %s/%s on %s (%s, tick %ds)", r.Policy, r.Planner, r.Trace, r.Machine, r.TickSec),
		"side", "saving-%", "energy-j", "transition-j", "acpi-events", "migrations", "mean-active")
	t.AddRow("online",
		metrics.FormatFloat(r.Online.SavingPercent),
		metrics.FormatFloat(r.Online.EnergyJoules),
		metrics.FormatFloat(r.Online.TransitionJoules),
		metrics.FormatFloat(float64(r.Online.StateTransitions)),
		metrics.FormatFloat(float64(r.Online.Migrations)),
		metrics.FormatFloat(r.Online.MeanActiveHosts))
	t.AddRow("oracle",
		metrics.FormatFloat(r.Oracle.SavingPercent),
		metrics.FormatFloat(r.Oracle.EnergyJoules),
		metrics.FormatFloat(r.Oracle.TransitionJoules),
		metrics.FormatFloat(float64(r.Oracle.StateTransitions)),
		metrics.FormatFloat(float64(r.Oracle.Migrations)),
		metrics.FormatFloat(r.Oracle.MeanActiveHosts))
	b.WriteString(t.String())
	fmt.Fprintf(&b, "regret: %s points of saving (ticks %d, arrivals %d, admitted %d, rejected %d, emergency wakes %d)\n",
		metrics.FormatFloat(r.RegretPercent), r.Online.Ticks, r.Online.Arrivals,
		r.Online.Admitted, r.Online.Rejected, r.Online.EmergencyWakes)
	return b.String()
}

// RenderComparison formats a set of regret reports as one table, a row per
// policy, in report order.
func RenderComparison(reports []Report) string {
	t := metrics.NewTable("Online policies vs the offline oracle",
		"policy", "planner", "online-saving-%", "oracle-saving-%", "regret-pts", "acpi-events", "oracle-events", "emergency-wakes")
	for _, r := range reports {
		t.AddRow(r.Policy, r.Planner,
			metrics.FormatFloat(r.Online.SavingPercent),
			metrics.FormatFloat(r.Oracle.SavingPercent),
			metrics.FormatFloat(r.RegretPercent),
			metrics.FormatFloat(float64(r.Online.StateTransitions)),
			metrics.FormatFloat(float64(r.Oracle.StateTransitions)),
			metrics.FormatFloat(float64(r.Online.EmergencyWakes)))
	}
	return t.String()
}

// The scenario-sweep harness: a grid of {consolidation policy, machine power
// profile, trace, consolidation period} scenarios is grouped by (trace,
// period), and each group is one epoch walk (parallel.go) that every machine,
// policy and transition branch of the group plans. A pool of sweep workers
// runs the groups concurrently (a group may itself shard its epochs). Results
// land in grid order regardless of scheduling, so a sweep is deterministic,
// and the aggregation helpers summarise the grid with internal/metrics.

package dcsim

import (
	"fmt"

	"repro/internal/consolidation"
	"repro/internal/energy"
	"repro/internal/exact"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/trace"
)

// SweepConfig describes a scenario grid: the cross product of Policies,
// Machines, Traces and PeriodsSec.
type SweepConfig struct {
	// Policies are the consolidation policies to compare. Plan must be safe
	// for concurrent use (the bundled policies are stateless).
	Policies []consolidation.Policy
	// Machines are the per-machine power profiles to sweep.
	Machines []*energy.MachineProfile
	// Traces are the workload columns, each opened once by the caller (the
	// original and memory-heavy Google-like traces at several scales, a
	// workload family, an imported cluster trace) and shared read-only by the
	// runs.
	Traces []*trace.Trace
	// PeriodsSec are the consolidation periods to sweep.
	PeriodsSec []int64
	// TransitionCosts is the transition-cost axis: each entry runs the grid
	// with the event-driven accounting on or off, so Figure 10 can be
	// reported as both the optimistic steady-state bound and the faithful
	// costed reproduction. Empty means {false} (steady state only).
	TransitionCosts []bool
	// ServerSpec is the capacity of every server in every scenario.
	ServerSpec consolidation.ServerSpec
	// SweepWorkers bounds how many (trace, period) groups run concurrently;
	// 1 by default. When the grid has fewer groups than that, each group also
	// shards its epochs so the spare workers are not left idle
	// (Config.Workers).
	SweepWorkers int
}

// validate checks the grid is non-empty in every dimension.
func (c *SweepConfig) validate() error {
	switch {
	case len(c.Policies) == 0:
		return fmt.Errorf("dcsim: sweep needs at least one policy")
	case len(c.Machines) == 0:
		return fmt.Errorf("dcsim: sweep needs at least one machine profile")
	case len(c.Traces) == 0:
		return fmt.Errorf("dcsim: sweep needs at least one trace")
	case len(c.PeriodsSec) == 0:
		return fmt.Errorf("dcsim: sweep needs at least one consolidation period")
	}
	for _, p := range c.PeriodsSec {
		if p <= 0 {
			return fmt.Errorf("dcsim: sweep period %d must be positive", p)
		}
	}
	return nil
}

// SweepResult holds every run of a sweep, in grid order (traces outermost,
// then machines, then policies, then periods, then the transition-cost axis
// innermost).
type SweepResult struct {
	Runs []Result
}

// Sweep walks each (trace, period) group of the scenario grid once,
// concurrently on SweepWorkers goroutines. The returned runs are in grid
// order and independent of scheduling; with the same config a sweep is fully
// deterministic.
func Sweep(cfg SweepConfig) (*SweepResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// One scan per trace, on every sweep worker, validates it and finds the
	// grid of all its periods' walks.
	traces := cfg.Traces
	workers := max(cfg.SweepWorkers, 1)
	grids := make([]exact.Grid, len(traces))
	for i, tr := range traces {
		if tr == nil {
			return nil, fmt.Errorf("dcsim: sweep given a nil trace")
		}
		var err error
		if grids[i], err = termGrid(tr, workers); err != nil {
			return nil, fmt.Errorf("dcsim: sweep trace %q: %w", tr.Name, err)
		}
	}

	// A zero-value spec gets the default; a partially-set spec is passed
	// through so Run's validation rejects it instead of silently simulating
	// different hardware than the caller asked for.
	spec := cfg.ServerSpec
	if spec == (consolidation.ServerSpec{}) {
		spec = consolidation.DefaultServerSpec()
	}
	transitionAxis := cfg.TransitionCosts
	if len(transitionAxis) == 0 {
		transitionAxis = []bool{false}
	}
	// The sweep pool alone saturates its workers when there are at least as
	// many groups as workers; only fewer groups shard epochs inside each walk.
	ngroups := len(traces) * len(cfg.PeriodsSec)
	engineWorkers := 0
	if ngroups < workers {
		engineWorkers = (workers + ngroups - 1) / ngroups
	}
	// A group is one walk: its configs, the grid position of each, and its
	// trace's grid.
	type group struct {
		cfgs  []Config
		cells []int
		grid  exact.Grid
	}
	groups := make([]group, 0, ngroups)
	ncells := 0
	for i, tr := range traces {
		first := len(groups)
		groups = append(groups, make([]group, len(cfg.PeriodsSec))...)
		for _, m := range cfg.Machines {
			for _, pol := range cfg.Policies {
				for p, period := range cfg.PeriodsSec {
					for _, transitions := range transitionAxis {
						g := &groups[first+p]
						g.grid = grids[i]
						g.cfgs = append(g.cfgs, Config{
							Trace:                  tr,
							Policy:                 pol,
							Machine:                m,
							ServerSpec:             spec,
							ConsolidationPeriodSec: period,
							Workers:                engineWorkers,
							TransitionCosts:        transitions,
						})
						g.cells = append(g.cells, ncells)
						ncells++
					}
				}
			}
		}
		// Validity is period-free: group one holds the first bad config.
		for _, g := range groups[first:] {
			if err := prepare(g.cfgs); err != nil {
				return nil, err
			}
		}
	}

	res := &SweepResult{Runs: make([]Result, ncells)}
	pool.Run(len(groups), workers, func(i int) {
		g := &groups[i]
		for j, run := range walk(g.cfgs, g.grid) {
			res.Runs[g.cells[j]] = run
		}
	})
	return res, nil
}

// Saving returns the energy saving of one grid cell. When the sweep ran the
// transition-cost axis both ways, the steady-state (costs off) run wins; a
// sweep that ran with transition costs only returns its costed cell.
func (r *SweepResult) Saving(traceName, machine, policy string, periodSec int64) (float64, bool) {
	if s, ok := r.savingWhere(traceName, machine, policy, periodSec, false); ok {
		return s, true
	}
	return r.savingWhere(traceName, machine, policy, periodSec, true)
}

// savingWhere looks up one grid cell on every axis.
func (r *SweepResult) savingWhere(traceName, machine, policy string, periodSec int64, transitions bool) (float64, bool) {
	for _, run := range r.Runs {
		if run.Trace == traceName && run.Machine == machine && run.Policy == policy &&
			run.PeriodSec == periodSec && run.TransitionCosts == transitions {
			return run.SavingPercent, true
		}
	}
	return 0, false
}

// SavingsByPolicy groups the grid's energy savings per policy, in run order.
// When the sweep ran the transition-cost axis both ways, the two accounting
// models are kept apart ("neat (steady)" vs "neat (costed)") so a blended
// statistic — neither the optimistic bound nor the costed reproduction — is
// never reported.
func (r *SweepResult) SavingsByPolicy() map[string][]float64 {
	by := make(map[string][]float64)
	for _, run := range r.Runs {
		by[r.policyKey(run)] = append(by[r.policyKey(run)], run.SavingPercent)
	}
	return by
}

// policyKey labels a run's aggregation group: the policy name, qualified by
// the accounting model when the sweep contains both branches.
func (r *SweepResult) policyKey(run Result) string {
	if !r.mixedTransitionAxis() {
		return run.Policy
	}
	return run.Policy + " (" + transitionLabel(run.TransitionCosts) + ")"
}

// mixedTransitionAxis reports whether the sweep holds both steady-state and
// costed runs.
func (r *SweepResult) mixedTransitionAxis() bool {
	var steady, costed bool
	for _, run := range r.Runs {
		if run.TransitionCosts {
			costed = true
		} else {
			steady = true
		}
	}
	return steady && costed
}

// SummaryByPolicy reduces each policy's savings across the whole grid to
// descriptive statistics (metrics.Summarize).
func (r *SweepResult) SummaryByPolicy() map[string]metrics.Summary {
	sums := make(map[string]metrics.Summary)
	for pol, savings := range r.SavingsByPolicy() {
		sums[pol] = metrics.Summarize(savings)
	}
	return sums
}

// Render formats the full grid as an aligned table, one row per run.
func (r *SweepResult) Render() string {
	t := metrics.NewTable("Scenario sweep — % energy saving per run",
		"trace", "machine", "policy", "period-s", "transitions", "saving-%", "active", "zombie", "sleep")
	for _, run := range r.Runs {
		t.AddRow(run.Trace, run.Machine, run.Policy,
			metrics.FormatFloat(float64(run.PeriodSec)),
			transitionLabel(run.TransitionCosts),
			metrics.FormatFloat(run.SavingPercent),
			metrics.FormatFloat(run.MeanActiveHosts),
			metrics.FormatFloat(run.MeanZombieHosts),
			metrics.FormatFloat(run.MeanSleepHosts))
	}
	return t.String()
}

// transitionLabel names one branch of the transition-cost axis.
func transitionLabel(on bool) string {
	if on {
		return "costed"
	}
	return "steady"
}

// RenderSummary formats the per-policy aggregation of the grid. Policies
// appear in first-run order so the output is deterministic.
func (r *SweepResult) RenderSummary() string {
	sums := r.SummaryByPolicy()
	var order []string
	seen := make(map[string]bool)
	for _, run := range r.Runs {
		if key := r.policyKey(run); !seen[key] {
			seen[key] = true
			order = append(order, key)
		}
	}
	t := metrics.NewTable("Scenario sweep — % energy saving per policy across the grid",
		"policy", "runs", "mean", "min", "max", "p50")
	for _, pol := range order {
		s := sums[pol]
		t.AddRow(pol,
			metrics.FormatFloat(float64(s.Count)),
			metrics.FormatFloat(s.Mean),
			metrics.FormatFloat(s.Min),
			metrics.FormatFloat(s.Max),
			metrics.FormatFloat(s.P50))
	}
	return t.String()
}

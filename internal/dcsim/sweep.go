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
	"sync"

	"repro/internal/consolidation"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// SweepConfig describes a scenario grid: the cross product of Policies,
// Machines, TraceConfigs and PeriodsSec.
type SweepConfig struct {
	// Policies are the consolidation policies to compare. Plan must be safe
	// for concurrent use (the bundled policies are stateless).
	Policies []consolidation.Policy
	// Machines are the per-machine power profiles to sweep.
	Machines []*energy.MachineProfile
	// TraceConfigs generate the workload of each scenario column (e.g. the
	// original and memory-heavy Google-like traces at several scales). Each
	// config is generated exactly once and shared read-only by the runs.
	TraceConfigs []trace.GeneratorConfig
	// Traces are pre-built workload columns appended after the generated ones
	// — scenario packs from the family engine (trace.GenerateFamily) or
	// imported cluster traces (trace.Import). Shared read-only by the runs;
	// at least one of TraceConfigs and Traces must be non-empty.
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

// DefaultSweepConfig returns the Figure 10 grid: the three contender policies
// on both testbed machines, on the original and memory-heavy traces, at the
// paper's 300 s consolidation period, reported both without and with
// transition costs.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		Policies:        consolidation.Contenders(),
		Machines:        energy.Profiles(),
		TraceConfigs:    []trace.GeneratorConfig{trace.DefaultConfig(), trace.ModifiedConfig()},
		PeriodsSec:      []int64{300},
		TransitionCosts: []bool{false, true},
		ServerSpec:      consolidation.DefaultServerSpec(),
	}
}

// validate checks the grid is non-empty in every dimension.
func (c *SweepConfig) validate() error {
	switch {
	case len(c.Policies) == 0:
		return fmt.Errorf("dcsim: sweep needs at least one policy")
	case len(c.Machines) == 0:
		return fmt.Errorf("dcsim: sweep needs at least one machine profile")
	case len(c.TraceConfigs) == 0 && len(c.Traces) == 0:
		return fmt.Errorf("dcsim: sweep needs at least one trace config or pre-built trace")
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

// Sweep generates each trace once, then walks each (trace, period) group of
// the scenario grid once, concurrently on SweepWorkers goroutines. The
// returned runs are in grid order and independent of scheduling; with the
// same config a sweep is fully deterministic.
func Sweep(cfg SweepConfig) (*SweepResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	traces := make([]*trace.Trace, len(cfg.TraceConfigs), len(cfg.TraceConfigs)+len(cfg.Traces))
	for i, tc := range cfg.TraceConfigs {
		tr, err := trace.Generate(tc)
		if err != nil {
			return nil, fmt.Errorf("dcsim: sweep trace %q: %w", tc.Name, err)
		}
		traces[i] = tr
	}
	for _, tr := range cfg.Traces {
		if tr == nil {
			return nil, fmt.Errorf("dcsim: sweep given a nil pre-built trace")
		}
		if err := tr.Validate(); err != nil {
			return nil, fmt.Errorf("dcsim: sweep trace %q: %w", tr.Name, err)
		}
		traces = append(traces, tr)
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
	workers := max(cfg.SweepWorkers, 1)
	ngroups := len(traces) * len(cfg.PeriodsSec)
	engineWorkers := 0
	if ngroups < workers {
		engineWorkers = (workers + ngroups - 1) / ngroups
	}
	// A group is one walk: its configs, and the grid position of each.
	type group struct {
		idx   *ReplayIndex
		cfgs  []Config
		cells []int
	}
	groups := make([]group, 0, ngroups)
	ncells := 0
	for _, tr := range traces {
		idx, err := NewReplayIndex(tr)
		if err != nil {
			return nil, err
		}
		first := len(groups)
		for range cfg.PeriodsSec {
			groups = append(groups, group{idx: idx})
		}
		for _, m := range cfg.Machines {
			for _, pol := range cfg.Policies {
				for p, period := range cfg.PeriodsSec {
					for _, transitions := range transitionAxis {
						c := Config{
							Trace:                  tr,
							Policy:                 pol,
							Machine:                m,
							ServerSpec:             spec,
							ConsolidationPeriodSec: period,
							Workers:                engineWorkers,
							TransitionCosts:        transitions,
						}
						if err := prepare(&c, idx); err != nil {
							return nil, err
						}
						g := &groups[first+p]
						g.cfgs = append(g.cfgs, c)
						g.cells = append(g.cells, ncells)
						ncells++
					}
				}
			}
		}
	}

	res := &SweepResult{Runs: make([]Result, ncells)}
	work := make(chan *group)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(groups)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range work {
				for j, run := range walk(g.idx, g.cfgs) {
					res.Runs[g.cells[j]] = run
				}
			}
		}()
	}
	for i := range groups {
		work <- &groups[i]
	}
	close(work)
	wg.Wait()
	return res, nil
}

// Saving returns the energy saving of one grid cell. When the sweep ran the
// transition-cost axis both ways, the steady-state (costs off) run wins — use
// SavingCosted for the other branch; a sweep that ran with transition costs
// only returns its costed cell.
func (r *SweepResult) Saving(traceName, machine, policy string, periodSec int64) (float64, bool) {
	if s, ok := r.savingWhere(traceName, machine, policy, periodSec, false); ok {
		return s, true
	}
	return r.savingWhere(traceName, machine, policy, periodSec, true)
}

// SavingCosted returns the energy saving of one grid cell simulated with
// transition costs enabled.
func (r *SweepResult) SavingCosted(traceName, machine, policy string, periodSec int64) (float64, bool) {
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

// Package scenario crosses the workload-family engine with the online
// policy roster: every scenario pack (a trace built by a family or imported
// from disk) is replayed as one autopilot.ChaosRow against every policy,
// yielding one chaos.Report per cell — oracle bound, fault-free online
// saving, regret, faulted saving, resilience — the policy×scenario matrix
// the paper's two-trace evaluation never had. A row does once what does not
// depend on the cell's policy (fault plan, perturbed trace, replay indexes,
// oracle runs) and spreads its simulations over the worker pool. Cells land
// in grid order regardless of scheduling, so the rendered artifact is
// bit-identical across runs and worker counts and can be pinned as a golden
// file.
package scenario

import (
	"fmt"

	"repro/internal/autopilot"
	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/trace"
)

// Pack is one scenario column: a named, ready-to-replay workload.
type Pack struct {
	// Name labels the matrix row group (usually the family name).
	Name string
	// Trace is the workload, already validated.
	Trace *trace.Trace
}

// FamilyPacks builds one pack per bundled workload family, all sharing the
// same envelope — the canonical scenario axis.
func FamilyPacks(p trace.FamilyParams) ([]Pack, error) {
	var packs []Pack
	for _, f := range trace.Families() {
		tr, err := f.Generate(p)
		if err != nil {
			return nil, err
		}
		packs = append(packs, Pack{Name: f.Name(), Trace: tr})
	}
	return packs, nil
}

// MatrixConfig describes a policy×scenario matrix run.
type MatrixConfig struct {
	// Packs are the scenario columns, replayed in order.
	Packs []Pack
	// Policies are online policy names ("reactive", "hysteresis", "ewma")
	// over the Neat planner, on HP servers of the default spec with a 300 s
	// tick; a fresh instance is built per cell, so no state leaks across
	// cells.
	Policies []string
	// ChaosScenario is the fault preset every cell is stressed under
	// ("off", "light", "heavy"; "light" by default) and ChaosSeed its seed.
	ChaosScenario string
	ChaosSeed     int64
	// Workers bounds how many of a row's simulations run concurrently; 1 by
	// default. Any value produces the identical matrix.
	Workers int
}

// validate rejects an empty or inconsistent grid upfront.
func (c *MatrixConfig) validate() error {
	if len(c.Packs) == 0 {
		return fmt.Errorf("scenario: matrix needs at least one pack")
	}
	seen := make(map[string]bool, len(c.Packs))
	for i, p := range c.Packs {
		if p.Name == "" {
			return fmt.Errorf("scenario: pack %d has no name", i)
		}
		if seen[p.Name] {
			return fmt.Errorf("scenario: duplicate pack name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Trace == nil {
			return fmt.Errorf("scenario: pack %q has no trace", p.Name)
		}
		if err := p.Trace.Validate(); err != nil {
			return fmt.Errorf("scenario: pack %q: %w", p.Name, err)
		}
	}
	if len(c.Policies) == 0 {
		return fmt.Errorf("scenario: matrix needs at least one policy")
	}
	return nil
}

// roster builds the online policies by name, in order, over one Neat
// planner: sharing it is what lets a row compute each oracle once.
func (c *MatrixConfig) roster() ([]autopilot.Policy, error) {
	base := consolidation.NewNeat()
	policies := make([]autopilot.Policy, 0, len(c.Policies))
	for _, name := range c.Policies {
		p, err := autopilot.PolicyByName(name, base)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		policies = append(policies, p)
	}
	return policies, nil
}

// Cell is one matrix entry: one pack replayed under one policy.
type Cell struct {
	// Scenario is the pack name, Policy the online policy name.
	Scenario string
	Policy   string
	// Report is the full chaos run: fault-free twin, oracle bounds, faulted
	// run and the resilience metrics derived from them.
	Report chaos.Report
}

// Matrix is the full grid, in grid order (packs outermost, then policies).
type Matrix struct {
	Cells []Cell
	// ChaosScenario and ChaosSeed echo the fault preset the grid ran under.
	ChaosScenario string
	ChaosSeed     int64
}

// Run executes the policy×scenario grid a row at a time, each row's
// simulations on Workers goroutines. Cells land in grid order regardless of
// scheduling, every run gets its own policy instance (the bundled ones hold
// forecasting state, and a row clones them per run), and the result is a pure
// function of the config — the same grid is bit-identical across runs and
// worker counts.
func Run(cfg MatrixConfig) (*Matrix, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	chaosName := cfg.ChaosScenario
	if chaosName == "" {
		chaosName = "light"
	}
	// An unknown policy fails here, before any simulation work.
	policies, err := cfg.roster()
	if err != nil {
		return nil, err
	}

	m := &Matrix{
		Cells:         make([]Cell, 0, len(cfg.Packs)*len(cfg.Policies)),
		ChaosScenario: chaosName,
		ChaosSeed:     cfg.ChaosSeed,
	}
	// One row is live at a time: its indexes and perturbed trace are garbage
	// before the next pack's are built.
	for _, pack := range cfg.Packs {
		plan, err := chaos.Scenario(chaosName, pack.Trace.HorizonSec, pack.Trace.Machines, cfg.ChaosSeed)
		if err != nil {
			return nil, err
		}
		row, err := autopilot.NewChaosRow(autopilot.Config{
			Trace:      pack.Trace,
			Machine:    energy.Profiles()[0],
			ServerSpec: consolidation.DefaultServerSpec(),
			TickSec:    300,
		}, plan, policies)
		if err == nil {
			err = runPool(row.Jobs(), cfg.Workers)
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: pack %s: %w", pack.Name, err)
		}
		for i, report := range row.Reports() {
			m.Cells = append(m.Cells, Cell{Scenario: pack.Name, Policy: cfg.Policies[i], Report: report})
		}
	}
	return m, nil
}

// runPool runs the jobs on at most workers goroutines and returns the first
// failure in job order.
func runPool(jobs []func() error, workers int) error {
	errs := make([]error, len(jobs))
	pool.Run(len(jobs), workers, func(i int) { errs[i] = jobs[i]() })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Cell returns one matrix entry by scenario and policy name.
func (m *Matrix) Cell(scenario, policy string) (Cell, bool) {
	for _, c := range m.Cells {
		if c.Scenario == scenario && c.Policy == policy {
			return c, true
		}
	}
	return Cell{}, false
}

// Render formats the matrix as the golden artifact: one row per cell with
// the offline oracle bound, the fault-free online saving, the regret between
// them, the faulted saving, and the resilience metrics. Pure function of the
// matrix, so a fixed config reproduces it bit for bit.
func (m *Matrix) Render() string {
	t := metrics.NewTable(
		fmt.Sprintf("Policy × scenario matrix — %q chaos, seed %d", m.ChaosScenario, m.ChaosSeed),
		"scenario", "policy", "oracle-%", "online-%", "regret-%", "faulted-%", "retained-%", "resil-regret-%", "slo", "wakes")
	for _, c := range m.Cells {
		r := c.Report
		t.AddRow(c.Scenario, c.Policy,
			metrics.FormatFloat(r.OracleSavingPercent),
			metrics.FormatFloat(r.FaultFreeSavingPercent),
			metrics.FormatFloat(r.OracleSavingPercent-r.FaultFreeSavingPercent),
			metrics.FormatFloat(r.SavingPercent),
			metrics.FormatFloat(r.SavingsRetainedPercent),
			metrics.FormatFloat(r.ResilienceRegretPercent),
			fmt.Sprintf("%d", r.SLOViolations),
			fmt.Sprintf("%d", r.EmergencyWakes))
	}
	return t.String()
}

package dcsim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/consolidation"
	"repro/internal/energy"
	"repro/internal/trace"
)

// smallSweepConfig returns a fast grid covering every policy × machine
// combination on two traces and two consolidation periods.
func smallSweepConfig() SweepConfig {
	orig := trace.DefaultConfig()
	orig.Machines, orig.Tasks, orig.HorizonSec = 40, 300, 4*3600
	mod := trace.ModifiedConfig()
	mod.Machines, mod.Tasks, mod.HorizonSec = 40, 300, 4*3600
	return SweepConfig{
		Policies:     consolidation.AllPolicies(),
		Machines:     energy.Profiles(),
		TraceConfigs: []trace.GeneratorConfig{orig, mod},
		PeriodsSec:   []int64{300, 900},
		ServerSpec:   consolidation.DefaultServerSpec(),
		SweepWorkers: 4,
	}
}

// TestSweepCoversFullGrid runs the grid and checks every policy × machine ×
// trace × period combination is present exactly once, in grid order.
func TestSweepCoversFullGrid(t *testing.T) {
	cfg := smallSweepConfig()
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := len(cfg.Policies) * len(cfg.Machines) * len(cfg.TraceConfigs) * len(cfg.PeriodsSec)
	if len(res.Runs) != want {
		t.Fatalf("sweep produced %d runs, want %d", len(res.Runs), want)
	}
	i := 0
	for _, tc := range cfg.TraceConfigs {
		for _, m := range cfg.Machines {
			for _, pol := range cfg.Policies {
				for _, period := range cfg.PeriodsSec {
					run := res.Runs[i]
					if run.Trace != tc.Name || run.Machine != m.Name || run.Policy != pol.Name() || run.PeriodSec != period {
						t.Fatalf("run %d out of grid order: got {%s %s %s %d}, want {%s %s %s %d}",
							i, run.Trace, run.Machine, run.Policy, run.PeriodSec,
							tc.Name, m.Name, pol.Name(), period)
					}
					if s, ok := res.Saving(tc.Name, m.Name, pol.Name(), period); !ok || s != run.SavingPercent {
						t.Fatalf("Saving lookup failed for run %d", i)
					}
					i++
				}
			}
		}
	}
}

// TestSweepDeterministic runs a grid narrower than its worker pool, so Sweep
// also shards each run's epochs, and requires every run to equal a direct
// sequential Run of the same cell, transition costs on and off.
func TestSweepDeterministic(t *testing.T) {
	tc := trace.DefaultConfig()
	tc.Machines, tc.Tasks, tc.HorizonSec = 40, 300, 4*3600
	cfg := SweepConfig{
		Policies:        consolidation.Contenders(),
		Machines:        []*energy.MachineProfile{energy.HPProfile()},
		TraceConfigs:    []trace.GeneratorConfig{tc},
		PeriodsSec:      []int64{300},
		TransitionCosts: []bool{false, true},
		ServerSpec:      consolidation.DefaultServerSpec(),
		SweepWorkers:    16, // 1 (trace, period) group: its walk shards epochs over 16 workers
	}
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	var want []Result
	for _, pol := range cfg.Policies {
		for _, costed := range cfg.TransitionCosts {
			r, err := Run(Config{
				Trace: tr, Policy: pol, Machine: cfg.Machines[0], ServerSpec: cfg.ServerSpec,
				ConsolidationPeriodSec: 300, TransitionCosts: costed,
			})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
	}
	if !reflect.DeepEqual(res.Runs, want) {
		t.Fatalf("sharded sweep diverges from sequential runs:\nsweep: %+v\nruns:  %+v", res.Runs, want)
	}
}

// TestSweepGroupsMatchSeparateRuns runs a grid of two periods and both
// transition branches — two walks of twelve configs, each sharding its epochs
// over the spare workers — and requires every run to equal its cell run alone.
func TestSweepGroupsMatchSeparateRuns(t *testing.T) {
	tc := trace.ModifiedConfig()
	tc.Machines, tc.Tasks, tc.HorizonSec = 40, 300, 4*3600
	cfg := SweepConfig{
		Policies:        consolidation.Contenders(),
		Machines:        energy.Profiles(),
		TraceConfigs:    []trace.GeneratorConfig{tc},
		PeriodsSec:      []int64{300, 900},
		TransitionCosts: []bool{false, true},
		ServerSpec:      consolidation.DefaultServerSpec(),
		SweepWorkers:    3,
	}
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	var want []Result
	for _, m := range cfg.Machines {
		for _, pol := range cfg.Policies {
			for _, period := range cfg.PeriodsSec {
				for _, costed := range cfg.TransitionCosts {
					r, err := Run(Config{
						Trace: tr, Policy: pol, Machine: m, ServerSpec: cfg.ServerSpec,
						ConsolidationPeriodSec: period, TransitionCosts: costed,
					})
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, r)
				}
			}
		}
	}
	if !reflect.DeepEqual(res.Runs, want) {
		t.Fatalf("grouped sweep diverges from separate runs:\nsweep: %+v\nruns:  %+v", res.Runs, want)
	}
}

// TestSweepMatchesDirectRuns cross-checks a few grid cells against direct
// dcsim.Run invocations.
func TestSweepMatchesDirectRuns(t *testing.T) {
	cfg := smallSweepConfig()
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(cfg.TraceConfigs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range cfg.Policies {
		direct, err := Run(Config{
			Trace: tr, Policy: pol, Machine: cfg.Machines[0],
			ServerSpec: cfg.ServerSpec, ConsolidationPeriodSec: cfg.PeriodsSec[0],
		})
		if err != nil {
			t.Fatal(err)
		}
		got, ok := res.Saving(tr.Name, cfg.Machines[0].Name, pol.Name(), cfg.PeriodsSec[0])
		if !ok {
			t.Fatalf("missing sweep cell for %s", pol.Name())
		}
		if got != direct.SavingPercent {
			t.Fatalf("%s: sweep cell %v != direct run %v", pol.Name(), got, direct.SavingPercent)
		}
	}
}

// TestSweepAggregation checks the metrics aggregation and rendering.
func TestSweepAggregation(t *testing.T) {
	cfg := smallSweepConfig()
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sums := res.SummaryByPolicy()
	perPolicy := len(cfg.Machines) * len(cfg.TraceConfigs) * len(cfg.PeriodsSec)
	for _, pol := range cfg.Policies {
		s, ok := sums[pol.Name()]
		if !ok {
			t.Fatalf("no summary for policy %s", pol.Name())
		}
		if s.Count != perPolicy {
			t.Fatalf("policy %s summarises %d runs, want %d", pol.Name(), s.Count, perPolicy)
		}
		if s.Min > s.Mean || s.Mean > s.Max {
			t.Fatalf("policy %s: inconsistent summary %+v", pol.Name(), s)
		}
	}
	grid := res.Render()
	if strings.Count(grid, "\n") < len(res.Runs) {
		t.Fatalf("grid render too short:\n%s", grid)
	}
	summary := res.RenderSummary()
	for _, pol := range cfg.Policies {
		if !strings.Contains(summary, pol.Name()) {
			t.Fatalf("summary render misses policy %s:\n%s", pol.Name(), summary)
		}
	}
}

// TestSweepValidation checks empty grid dimensions are rejected.
func TestSweepValidation(t *testing.T) {
	base := smallSweepConfig()
	mutations := []func(*SweepConfig){
		func(c *SweepConfig) { c.Policies = nil },
		func(c *SweepConfig) { c.Machines = nil },
		func(c *SweepConfig) { c.TraceConfigs = nil },
		func(c *SweepConfig) { c.PeriodsSec = nil },
		func(c *SweepConfig) { c.PeriodsSec = []int64{0} },
		// A partially-set server spec must be rejected, not silently replaced
		// with the default.
		func(c *SweepConfig) { c.ServerSpec = consolidation.ServerSpec{Cores: 128} },
	}
	for i, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if _, err := Sweep(cfg); err == nil {
			t.Fatalf("mutation %d: expected a validation error", i)
		}
	}
}

// TestSweepPreBuiltTraces runs the grid over scenario packs from the family
// engine: pre-built traces join the grid after the generated columns, in the
// order given, and a nil or invalid pack is rejected upfront.
func TestSweepPreBuiltTraces(t *testing.T) {
	packParams := trace.FamilyParams{Machines: 40, HorizonSec: 4 * 3600, Tasks: 300, Seed: 42}
	var packs []*trace.Trace
	for _, name := range []string{"diurnal", "serverless"} {
		tr, err := trace.GenerateFamily(name, packParams)
		if err != nil {
			t.Fatal(err)
		}
		packs = append(packs, tr)
	}
	cfg := smallSweepConfig()
	cfg.TraceConfigs = cfg.TraceConfigs[:1]
	cfg.Traces = packs
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perTrace := len(cfg.Policies) * len(cfg.Machines) * len(cfg.PeriodsSec)
	if want := 3 * perTrace; len(res.Runs) != want {
		t.Fatalf("sweep produced %d runs, want %d", len(res.Runs), want)
	}
	// Generated columns first, then the packs in the order given.
	for i, name := range []string{cfg.TraceConfigs[0].Name, "diurnal", "serverless"} {
		for j := 0; j < perTrace; j++ {
			if run := res.Runs[i*perTrace+j]; run.Trace != name {
				t.Fatalf("run %d on trace %q, want %q", i*perTrace+j, run.Trace, name)
			}
		}
	}
	// Pack-only grids are valid; nil and invalid packs are not.
	cfg.TraceConfigs = nil
	if _, err := Sweep(cfg); err != nil {
		t.Fatalf("pack-only sweep: %v", err)
	}
	cfg.Traces = []*trace.Trace{nil}
	if _, err := Sweep(cfg); err == nil {
		t.Fatal("nil pack accepted")
	}
	cfg.Traces = []*trace.Trace{{Name: "broken", Machines: 0, HorizonSec: 100}}
	if _, err := Sweep(cfg); err == nil {
		t.Fatal("invalid pack accepted")
	}
}

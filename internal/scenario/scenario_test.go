package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/autopilot"
	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/energy"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// smallConfig returns a fast two-pack, two-policy grid.
func smallConfig(t *testing.T) MatrixConfig {
	t.Helper()
	params := trace.FamilyParams{Machines: 30, HorizonSec: 2 * 3600, Tasks: 150, Seed: 42}
	var packs []Pack
	for _, name := range []string{"diurnal", "flashcrowd"} {
		tr, err := trace.GenerateFamily(name, params)
		if err != nil {
			t.Fatal(err)
		}
		packs = append(packs, Pack{Name: name, Trace: tr})
	}
	return MatrixConfig{
		Packs:         packs,
		Policies:      []string{"reactive", "ewma"},
		ChaosScenario: "light",
		ChaosSeed:     7,
		Workers:       2,
	}
}

func TestMatrixGridOrderAndLookup(t *testing.T) {
	cfg := smallConfig(t)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 4 {
		t.Fatalf("%d cells, want 4", len(m.Cells))
	}
	i := 0
	for _, pack := range cfg.Packs {
		for _, pol := range cfg.Policies {
			c := m.Cells[i]
			if c.Scenario != pack.Name || c.Policy != pol {
				t.Fatalf("cell %d = %s/%s, want %s/%s", i, c.Scenario, c.Policy, pack.Name, pol)
			}
			if c.Report.Trace != pack.Trace.Name {
				t.Errorf("cell %d ran trace %q, want %q", i, c.Report.Trace, pack.Trace.Name)
			}
			if c.Report.Scenario != "light" {
				t.Errorf("cell %d chaos %q, want light", i, c.Report.Scenario)
			}
			got, ok := m.Cell(pack.Name, pol)
			if !ok || got.Report != c.Report {
				t.Errorf("Cell(%s, %s) lookup failed", pack.Name, pol)
			}
			i++
		}
	}
	if _, ok := m.Cell("nope", "reactive"); ok {
		t.Error("lookup of a missing cell succeeded")
	}
}

// TestMatrixDeterministicAcrossWorkers pins the acceptance criterion: the
// rendered artifact is bit-identical across runs and across worker counts.
func TestMatrixDeterministicAcrossWorkers(t *testing.T) {
	var first string
	for _, workers := range []int{1, 3, 16} {
		cfg := smallConfig(t)
		cfg.Workers = workers
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := m.Render()
		if first == "" {
			first = got
			continue
		}
		if got != first {
			t.Fatalf("matrix with %d workers differs from 1 worker:\n%s\n--- vs ---\n%s", workers, got, first)
		}
	}
	// And across repeated runs with the same config.
	m, err := Run(smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if m.Render() != first {
		t.Fatal("matrix differs across runs with the identical config")
	}
}

// TestMatrixEqualsOneRunChaosPerCell: working a row at a time — one fault
// plan, one perturbed trace, two indexes and two oracle runs per pack, shared
// by the pack's cells — changes no number. Every cell's report equals the one
// autopilot.RunChaos computes for that cell alone, with its own policy,
// planner and plan, whatever the worker count.
func TestMatrixEqualsOneRunChaosPerCell(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Policies = []string{"reactive", "hysteresis", "ewma"}
	var want []chaos.Report
	for _, pack := range cfg.Packs {
		for i := range cfg.Policies {
			plan, err := chaos.Scenario(cfg.ChaosScenario, pack.Trace.HorizonSec, pack.Trace.Machines, cfg.ChaosSeed)
			if err != nil {
				t.Fatal(err)
			}
			report, err := autopilot.RunChaos(autopilot.Config{
				Trace:      pack.Trace,
				Policy:     autopilot.Policies(consolidation.NewNeat())[i],
				Machine:    energy.Profiles()[0],
				ServerSpec: consolidation.DefaultServerSpec(),
				TickSec:    300,
			}, plan)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, report)
		}
	}
	for _, workers := range []int{1, 2, 5} {
		cfg.Workers = workers
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Cells) != len(want) {
			t.Fatalf("%d workers: %d cells, want %d", workers, len(m.Cells), len(want))
		}
		for i, c := range m.Cells {
			if !reflect.DeepEqual(c.Report, want[i]) {
				t.Errorf("%d workers: cell %s/%s reports\n%+v\nRunChaos alone reports\n%+v", workers, c.Scenario, c.Policy, c.Report, want[i])
			}
		}
	}
}

// TestGoldenMatrix pins the default policy×scenario artifact byte for byte.
func TestGoldenMatrix(t *testing.T) {
	cfg, err := DefaultMatrixConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(m.Render())
	golden := filepath.Join("testdata", "matrix.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (bless the golden file with: go test ./internal/scenario -run Golden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("matrix drifted from %s (re-bless with -update after checking the diff):\n--- got ---\n%s", golden, got)
	}
}

func TestMatrixValidation(t *testing.T) {
	for i, mutate := range []func(*MatrixConfig){
		func(c *MatrixConfig) { c.Packs = nil },
		func(c *MatrixConfig) { c.Packs[0].Name = "" },
		func(c *MatrixConfig) { c.Packs[1].Name = c.Packs[0].Name },
		func(c *MatrixConfig) { c.Packs[0].Trace = nil },
		func(c *MatrixConfig) { c.Packs[0].Trace = &trace.Trace{Name: "broken"} },
		func(c *MatrixConfig) { c.Policies = nil },
		func(c *MatrixConfig) { c.Policies = []string{"nope"} },
		func(c *MatrixConfig) { c.Planner = "nope" },
		func(c *MatrixConfig) { c.ChaosScenario = "nope" },
	} {
		cfg := smallConfig(t)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("mutation %d: expected an error", i)
		}
	}
	// The unknown-policy error names the valid roster.
	cfg := smallConfig(t)
	cfg.Policies = []string{"nope"}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "valid:") {
		t.Errorf("unknown-policy error %v should list the roster", err)
	}
}

func TestFamilyPacks(t *testing.T) {
	params := trace.FamilyParams{Machines: 10, HorizonSec: 3600, Tasks: 50, Seed: 1}
	packs, err := FamilyPacks(params)
	if err != nil {
		t.Fatal(err)
	}
	if len(packs) != len(trace.Families()) {
		t.Fatalf("%d packs, want %d", len(packs), len(trace.Families()))
	}
	for _, p := range packs {
		if err := p.Trace.Validate(); err != nil {
			t.Errorf("pack %s: %v", p.Name, err)
		}
	}
	params.Tasks = 0
	if _, err := FamilyPacks(params); err == nil {
		t.Error("invalid params accepted")
	}
}

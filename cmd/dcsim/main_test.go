package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/golden"
	"repro/internal/trace"
)

// small is the fleet most tests run on: 30 machines, 150 tasks, two hours,
// two workers, steady state only.
func small() simConfig {
	return simConfig{
		Spec:    trace.Spec{Machines: 30, Tasks: 150, HorizonSec: 2 * 3600, Seed: 42},
		workers: 2, scales: "1", periods: "300", transitions: "off", matrixChaos: "light",
	}
}

// TestGoldenFigure10 pins the Figure 10 report (transition costs off and on)
// on a small fixed-seed fleet, with the parallel engine on two workers —
// which the engine guarantees is bit-identical to sequential.
func TestGoldenFigure10(t *testing.T) {
	cfg := small()
	cfg.Machines, cfg.Tasks, cfg.HorizonSec, cfg.transitions = 40, 300, 4*3600, "both"
	var buf bytes.Buffer
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "dcsim", buf.Bytes())
}

// TestGoldenSweep pins the scenario-sweep tables on a small grid.
func TestGoldenSweep(t *testing.T) {
	cfg := small()
	cfg.Tasks, cfg.sweep, cfg.periods = 200, true, "300,600"
	var buf bytes.Buffer
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "dcsim_sweep", buf.Bytes())
}

// TestGoldenFamilySweep pins the sweep over a workload-family scenario pack:
// -family replaces the generated google-like mixes with one family trace.
// "-scales 1.0" is the default scale spelled differently, so it is accepted.
func TestGoldenFamilySweep(t *testing.T) {
	for _, scales := range []string{"1", "1.0"} {
		cfg := small()
		cfg.Tasks, cfg.Family, cfg.scales = 200, "mlbatch", scales
		var buf bytes.Buffer
		if err := run(&buf, cfg); err != nil {
			t.Fatalf("-scales %s: %v", scales, err)
		}
		golden.Check(t, "dcsim_family", buf.Bytes())
	}
}

// TestGoldenMatrix pins the dcsim -matrix artifact on a small grid, run with
// two worker counts to hold the bit-identical-across-workers guarantee at the
// CLI layer too.
func TestGoldenMatrix(t *testing.T) {
	var first []byte
	for _, workers := range []int{1, 4} {
		cfg := small()
		cfg.workers, cfg.matrix = workers, true
		var buf bytes.Buffer
		if err := run(&buf, cfg); err != nil {
			t.Fatal(err)
		}
		// The trailer names the worker count; the matrix itself must not.
		got := buf.Bytes()
		if i := bytes.LastIndexByte(bytes.TrimRight(got, "\n"), '\n'); i >= 0 {
			got = got[:i+1]
		}
		if first == nil {
			first = got
			continue
		}
		if !bytes.Equal(got, first) {
			t.Fatalf("matrix with %d workers differs:\n%s\n--- vs ---\n%s", workers, got, first)
		}
	}
	golden.Check(t, "dcsim_matrix", first)
}

// TestTraceFlagSweep routes an on-disk .csv.gz trace through the sweep.
func TestTraceFlagSweep(t *testing.T) {
	tr, err := trace.GenerateFamily("serverless", trace.FamilyParams{
		Machines: 20, HorizonSec: 2 * 3600, Tasks: 120, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pack.csv.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.EncodeCSV(f, true); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := small()
	cfg.Machines, cfg.Tasks, cfg.File = 20, 120, path
	var buf bytes.Buffer
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("imported")) {
		t.Fatalf("sweep output does not mention the imported trace:\n%s", buf.Bytes())
	}
}

// TestScenarioFlagErrors pins the validation of the new trace-source flags.
func TestScenarioFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		edit func(*simConfig)
	}{
		{"-family with -trace", func(c *simConfig) { c.Family, c.File = "diurnal", "x.csv" }},
		{"unknown family", func(c *simConfig) { c.Family = "nope" }},
		{"-scales with -family", func(c *simConfig) { c.Family, c.scales = "diurnal", "0.5,1" }},
		{"-matrix with -sweep", func(c *simConfig) { c.matrix, c.sweep = true, true }},
		{"unknown -matrix-chaos preset", func(c *simConfig) { c.matrix, c.matrixChaos = true, "nope" }},
	}
	for _, c := range cases {
		cfg := small()
		c.edit(&cfg)
		if err := run(io.Discard, cfg); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// TestFleetFlagErrors pins the upfront validation of the fleet-size and
// worker flags: each is rejected with the shared cliflag message before any
// trace is generated, in every mode.
func TestFleetFlagErrors(t *testing.T) {
	cases := []struct {
		edit func(*simConfig)
		want string
	}{
		{func(c *simConfig) { c.Machines = 0 }, "machines 0 out of range (need >= 1)"},
		{func(c *simConfig) { c.Machines, c.sweep = -5, true }, "machines -5 out of range (need >= 1)"},
		{func(c *simConfig) { c.Tasks = 0 }, "tasks 0 out of range (need >= 1)"},
		{func(c *simConfig) { c.HorizonSec, c.matrix = 0, true }, "horizon_sec 0 out of range (need >= 1)"},
		{func(c *simConfig) { c.workers = -1 }, "-workers -1 out of range (need >= 0)"},
		{func(c *simConfig) { c.Family, c.File = "diurnal", "x.csv" }, "family and file are mutually exclusive"},
		{func(c *simConfig) { c.sweep, c.scales = true, "0.01" }, "-scales: scale 0.01: machines 0 out of range (need >= 1)"},
		{func(c *simConfig) { c.sweep, c.scales = true, "1,-1" }, "-scales: scale -1: machines -30 out of range (need >= 1)"},
	}
	for _, c := range cases {
		cfg := small()
		c.edit(&cfg)
		var buf bytes.Buffer
		err := run(&buf, cfg)
		if err == nil || err.Error() != c.want {
			t.Errorf("run(%+v) = %v, want %q", cfg, err, c.want)
		}
		if buf.Len() != 0 {
			t.Errorf("run(%+v) printed a report before failing:\n%s", cfg, buf.Bytes())
		}
	}
}

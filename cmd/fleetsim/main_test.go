package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/trace"
)

// TestGoldenFleetScenario pins the full fleetsim report — placement table,
// borrow ledger, workload and fabric tables, energy — on a small fleet with
// the scripted -chaos fault sequence on, so the fault log format is pinned
// too.
func TestGoldenFleetScenario(t *testing.T) { runGolden(t, "fleetsim_chaos") }

// goldens are the pinned invocations by golden-file name, shared by the
// golden tests and the heap-flatness test.
var goldens = map[string]func(w io.Writer) error{
	"fleetsim_chaos": func(w io.Writer) error {
		return runArgs(w, small("-vms", "3", "-chaos")...)
	},
	"fleetsim_chaos_obs": func(w io.Writer) error {
		return runArgs(w, small("-vms", "3", "-chaos", "-obs")...)
	},
	"fleetsim_family": func(w io.Writer) error {
		return runArgs(w, small("-vms", "4", "-family", "heavytail")...)
	},
}

// runArgs runs the tool on a command line, writing the report to out.
func runArgs(out io.Writer, args ...string) error {
	fs := flag.NewFlagSet("fleetsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sp, cfg, err := parseFlags(fs, args)
	if err != nil {
		return err
	}
	return run(out, sp, cfg)
}

// small is the command line of the pinned scenarios — two racks of three
// 16 GiB servers, one zombie per lender, 20 GiB VMs, two workers, one hour,
// one paging pass — followed by extra.
func small(extra ...string) []string {
	return append([]string{"-racks", "2", "-servers", "3", "-zombies", "1", "-mem-gib", "16",
		"-vm-gib", "20", "-workers", "2", "-hours", "1", "-iterations", "1"}, extra...)
}

func runGolden(t *testing.T, name string) {
	t.Helper()
	var buf bytes.Buffer
	if err := goldens[name](&buf); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, name, buf.Bytes())
}

// TestGoldensKeepHeapFlat runs every golden scenario ten times in one
// process and demands the live heap stays flat: each run simulates 96 GiB of
// server DRAM and lends two zombies' worth of it, and none of that may turn
// into host memory that outlives the run (ROADMAP item 1; the dense stores
// OOM-killed this binary on the third fleet).
func TestGoldensKeepHeapFlat(t *testing.T) {
	var inuse []uint64
	for i := 0; i < 10; i++ {
		for name := range goldens {
			runGolden(t, name)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		inuse = append(inuse, ms.HeapInuse)
	}
	t.Logf("HeapInuse per round: %v", inuse)
	if second, last := inuse[1], inuse[9]; float64(last) > 1.25*float64(second) {
		t.Fatalf("HeapInuse grew across runs: second %d B, last %d B (all: %v)", second, last, inuse)
	}
	if last := inuse[9]; last > 256<<20 {
		t.Fatalf("HeapInuse = %d MiB after the goldens, want far below the 96 GiB they simulate", last>>20)
	}
}

// TestGoldenFleetScenarioObs pins the -obs dump of the same scenario: the
// metrics snapshot and the step-clock NDJSON trace are deterministic for a
// fixed invocation, so the whole report is golden-testable.
func TestGoldenFleetScenarioObs(t *testing.T) { runGolden(t, "fleetsim_chaos_obs") }

// TestObsDumpByteStable runs the observed scenario twice across worker-pool
// sizes and demands identical dump bytes — the CLI-level determinism
// acceptance check. The comparison starts at the obs header because the
// report's own banner prints the pool size.
func TestObsDumpByteStable(t *testing.T) {
	render := func(workers int) []byte {
		var buf bytes.Buffer
		if err := runArgs(&buf, small("-vms", "3", "-chaos", "-obs", "-workers", strconv.Itoa(workers))...); err != nil {
			t.Fatal(err)
		}
		i := bytes.Index(buf.Bytes(), []byte("--- obs metrics ---"))
		if i < 0 {
			t.Fatal("no obs dump in -obs output")
		}
		return buf.Bytes()[i:]
	}
	a, b := render(2), render(2)
	if !bytes.Equal(a, b) {
		t.Error("same-config -obs runs diverged")
	}
	if seq := render(1); !bytes.Equal(a, seq) {
		t.Error("-obs dump diverged across -workers values")
	}
}

// TestGoldenFamilyBatch pins the fleet report when the VM batch comes from a
// workload family: per-task bookings replace the uniform -vm-gib batch.
func TestGoldenFamilyBatch(t *testing.T) { runGolden(t, "fleetsim_family") }

// TestTraceFlagBatch derives the batch from an on-disk .csv.gz trace and
// checks the trace's task IDs reach the placement table.
func TestTraceFlagBatch(t *testing.T) {
	tr, err := trace.GenerateFamily("serverless", trace.FamilyParams{
		Machines: 6, HorizonSec: 3600, Tasks: 8, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "batch.csv.gz")
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
	var buf bytes.Buffer
	if err := runArgs(&buf, small("-vms", "4", "-trace", path)...); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(tr.Tasks[0].VMID())) {
		t.Fatalf("placement table does not show the trace's task IDs:\n%s", buf.Bytes())
	}
}

// TestVMSpecsErrors pins the trace-source validation of the batch builder.
func TestVMSpecsErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-family", "diurnal", "-trace", "x.csv"}, "family and file are mutually exclusive"},
		{[]string{"-family", "nope"}, `family: trace: unknown family "nope"`},
		{[]string{"-trace", filepath.Join(t.TempDir(), "missing.csv")}, "no such file"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := runArgs(&buf, small(append([]string{"-vms", "4"}, c.args...)...)...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("fleetsim %v = %v, want %q", c.args, err, c.want)
		}
	}
}

// TestFleetFlagErrors pins the upfront validation of the fleet-shape and
// horizon flags: each bad value gets its canonical out-of-range message
// before any fleet is built, so nothing is printed.
func TestFleetFlagErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-hours", "-1"}, "horizon_sec -3600 out of range (need >= 1)"},
		{[]string{"-hours", "0"}, "horizon_sec 0 out of range (need >= 1)"},
		{[]string{"-vm-gib", "0"}, "-vm-gib 0 out of range (need > 0)"},
		{[]string{"-vm-gib", "-2"}, "-vm-gib -2 out of range (need > 0)"},
		{[]string{"-iterations", "0"}, "-iterations 0 out of range (need >= 1)"},
		{[]string{"-iterations", "-3"}, "-iterations -3 out of range (need >= 1)"},
		{[]string{"-mem-gib", "0"}, "-mem-gib 0 out of range (need >= 1)"},
		{[]string{"-mem-gib", "-1"}, "-mem-gib -1 out of range (need >= 1)"},
		{[]string{"-racks", "0"}, "-racks 0 out of range (need >= 1)"},
		{[]string{"-vms", "0"}, "-vms 0 out of range (need >= 1)"},
		{[]string{"-workers", "-1"}, "-workers -1 out of range (need >= 0)"},
		{[]string{"-zombies", "3"}, "-zombies 3 must leave at least one active server per rack (-servers 3)"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		err := runArgs(&buf, small(c.args...)...)
		if err == nil || err.Error() != c.want {
			t.Errorf("fleetsim %v = %v, want %q", c.args, err, c.want)
		}
		if buf.Len() != 0 {
			t.Errorf("fleetsim %v printed a report before failing:\n%s", c.args, buf.Bytes())
		}
	}
}

package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name+".golden")
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
		t.Fatalf("%v (bless the golden file with: go test ./cmd/... -run Golden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s (re-bless with -update after checking the diff):\n--- got ---\n%s", golden, got)
	}
}

// TestGoldenFleetScenario pins the full fleetsim report — placement table,
// borrow ledger, workload and fabric tables, energy — on a small fleet with
// the scripted -chaos fault sequence on, so the fault log format is pinned
// too.
func TestGoldenFleetScenario(t *testing.T) { runGolden(t, "fleetsim_chaos") }

// goldens are the pinned invocations by golden-file name, shared by the
// golden tests and the heap-flatness test.
var goldens = map[string]func(w io.Writer) error{
	"fleetsim_chaos": func(w io.Writer) error {
		return run(w, 2, 3, 1, 16, 3, 20, "spark-sql,elasticsearch", "", "", 2, 1, 1, true, false)
	},
	"fleetsim_chaos_obs": func(w io.Writer) error {
		return run(w, 2, 3, 1, 16, 3, 20, "spark-sql,elasticsearch", "", "", 2, 1, 1, true, true)
	},
	"fleetsim_family": func(w io.Writer) error {
		return run(w, 2, 3, 1, 16, 4, 20, "spark-sql,elasticsearch", "heavytail", "", 2, 1, 1, false, false)
	},
}

func runGolden(t *testing.T, name string) {
	t.Helper()
	var buf bytes.Buffer
	if err := goldens[name](&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, name, buf.Bytes())
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
		if err := run(&buf, 2, 3, 1, 16, 3, 20, "spark-sql,elasticsearch", "", "", workers, 1, 1, true, true); err != nil {
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
	if err := run(&buf, 2, 3, 1, 16, 4, 20, "spark-sql,elasticsearch", "", path, 2, 1, 1, false, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(tr.Tasks[0].VMID())) {
		t.Fatalf("placement table does not show the trace's task IDs:\n%s", buf.Bytes())
	}
}

// TestVMSpecsErrors pins the trace-source validation of the batch builder.
func TestVMSpecsErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 2, 3, 1, 16, 4, 20, "spark-sql,elasticsearch", "diurnal", "x.csv", 2, 1, 1, false, false); err == nil {
		t.Error("-family with -trace accepted")
	}
	if err := run(&buf, 2, 3, 1, 16, 4, 20, "spark-sql,elasticsearch", "nope", "", 2, 1, 1, false, false); err == nil {
		t.Error("unknown family accepted")
	}
	if err := run(&buf, 2, 3, 1, 16, 4, 20, "spark-sql,elasticsearch", "", filepath.Join(t.TempDir(), "missing.csv"), 2, 1, 1, false, false); err == nil {
		t.Error("missing trace file accepted")
	}
}

package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func figCfg() figConfig {
	return figConfig{exp: "all", seed: 1, machine: "HP", points: 11}
}

// TestGoldenPaperfigs pins the default report: every figure and table is a
// closed-form model or a seeded simulation, so the bytes are stable across
// machines.
func TestGoldenPaperfigs(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, figCfg()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "paperfigs", buf.Bytes())
}

// TestSingleExperimentIsItsSliceOfAll runs two experiments alone, one from
// each end of the list, and demands each print exactly its section of the
// full report (the golden TestGoldenPaperfigs holds the command to).
func TestSingleExperimentIsItsSliceOfAll(t *testing.T) {
	all, err := os.ReadFile(filepath.Join("testdata", "paperfigs.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, exp := range []string{"fig2", "fig9"} {
		cfg := figCfg()
		cfg.exp = exp
		var one bytes.Buffer
		if err := run(&one, cfg); err != nil {
			t.Fatal(err)
		}
		if one.Len() == 0 || !bytes.Contains(all, one.Bytes()) {
			t.Errorf("-exp %s is not a section of -exp all:\n%s", exp, one.Bytes())
		}
	}
}

// TestUnknownExperimentRejectedBeforeAnythingRuns demands a mistyped -exp
// fail with the list of valid names and without a byte of output.
func TestUnknownExperimentRejectedBeforeAnythingRuns(t *testing.T) {
	cfg := figCfg()
	cfg.exp = "typo"
	var buf bytes.Buffer
	err := run(&buf, cfg)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "typo"`) || !strings.Contains(err.Error(), "fig8") {
		t.Errorf("err = %v, want the unknown-experiment error listing the valid names", err)
	}
	if buf.Len() != 0 {
		t.Errorf("a rejected -exp printed %d bytes", buf.Len())
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
)

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
	golden.Check(t, "paperfigs", buf.Bytes())
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

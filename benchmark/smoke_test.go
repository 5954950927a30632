package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
)

// contractFile is the part of BENCHMARK.json the tests read.
type contractFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) ([]byte, contractFile) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("the benchmark's contract file: %v", err)
	}
	var c contractFile
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return data, c
}

// TestContractMatchesTables pins BENCHMARK.json to the tables in defs.go:
// regenerate it with `-contract` after changing them.
func TestContractMatchesTables(t *testing.T) {
	data, _ := readContract(t)
	var want bytes.Buffer
	if err := writeContract(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want.Bytes()) {
		t.Errorf("BENCHMARK.json differs from the tables in defs.go; regenerate it with `bash benchmark/run.sh -contract > BENCHMARK.json`")
	}
}

// TestSmoke runs every workload untraced and traced at a hundredth of the
// sizes and checks that each run is correct and emits exactly the metrics
// BENCHMARK.json lists, each finite and well named.
func TestSmoke(t *testing.T) {
	if err := preflight(); err != nil {
		t.Skip(err)
	}
	_, contract := readContract(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	outDir := t.TempDir()
	for _, w := range contract.Workloads {
		for _, traced := range []bool{false, true} {
			res, _, err := runOne(runConfig{
				workload: w.Name, seed: 42, seconds: 0.2, scale: 0.01, traced: traced, outDir: outDir, log: io.Discard,
			})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d failed of %d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := contract.EndToEnd
			if traced {
				want = contract.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics emitted, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): %s not emitted", w.Name, traced, m.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s (traced %v): %s = %v is not finite", w.Name, traced, m.Name, v.Value)
				case v.Unit != m.Unit:
					t.Errorf("%s (traced %v): %s has unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, v.Unit, m.Unit)
				case !nameRE.MatchString(m.Name):
					t.Errorf("metric name %q is not made of letters, digits, '_', '.' and '-'", m.Name)
				}
			}
		}
	}
}

// TestCompareVerdicts pins the -compare rule on hand-made series.
func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	cases := []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"unchanged", lower, []float64{10, 10.2, 9.9}, []float64{10.1, 10, 10.3}, verdictOK},
		{"slower beyond the bound", lower, []float64{10, 10.2, 9.9}, []float64{11.5, 11.6, 11.4}, verdictRegressed},
		{"throughput down beyond the bound", higher, []float64{100, 101, 99}, []float64{85, 86, 84}, verdictRegressed},
		{"throughput up", higher, []float64{100, 101, 99}, []float64{150, 151, 149}, verdictOK},
		{"noisy baseline", lower, []float64{10, 13, 8}, []float64{10.5, 10.4, 10.6}, verdictUnresolved},
		{"noisy but every run better", lower, []float64{10, 13, 9}, []float64{5, 6, 7}, verdictOK},
	}
	for _, c := range cases {
		if got, _, _, _ := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

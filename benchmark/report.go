package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// printEndToEnd prints an untraced run: every end-to-end metric by name and
// unit, then the diagnostics that are not gated.
func printEndToEnd(w io.Writer, det detail, res result) {
	fmt.Fprintf(w, "== %s  seed %d  scale %g  window %.2f s  %d ops  (untraced)\n", det.Workload, det.Seed, det.Scale, det.WindowS, det.Ops)
	for _, d := range endToEndDefs {
		v := res.Metrics[d.Name]
		fmt.Fprintf(w, "  %-18s %14.4f %-6s (%s is better, bound %.0f%%)\n", d.Name, v.Value, v.Unit, d.Better, 100*d.Bound)
	}
	if det.OpP90Ms != nil {
		fmt.Fprintf(w, "  %-18s %14.4f %-6s (diagnostic)\n", "op_p90_ms", *det.OpP90Ms, "ms")
	} else {
		fmt.Fprintf(w, "  %-18s %14s        (fewer than 10 samples beyond it)\n", "op_p90_ms", "not reported")
	}
	fmt.Fprintf(w, "  %-18s %14.6f        (%d failed of %d attempted)\n", "failed_ratio", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	fmt.Fprintf(w, "  set-up runs %.3f s, verify %.3f s\n", det.SetupS, det.VerifyS)
	for _, c := range det.Classes {
		fmt.Fprintf(w, "  class %-10s n=%-8d p50 %.4f ms  p99 %.4f ms  max %.4f ms\n", c.Class, c.Count, c.P50Ms, c.P99Ms, c.MaxMs)
	}
	printNotes(w, det)
}

// printPerLayer prints a traced run: every per-layer metric by name and unit,
// and where the traced window's wall time went.
func printPerLayer(w io.Writer, det detail, res result) {
	fmt.Fprintf(w, "== %s  seed %d  scale %g  window %.2f s  %d ops  (traced)\n", det.Workload, det.Seed, det.Scale, det.WindowS, det.Ops)
	var shares []string
	for _, d := range perLayerDefs {
		v := res.Metrics[d.Name]
		if layer, ok := strings.CutPrefix(d.Name, "share."); ok {
			if v.Value >= 0.0005 {
				shares = append(shares, fmt.Sprintf("%s %.1f%%", layer, 100*v.Value))
			}
			continue
		}
		mark := ""
		if d.Exact {
			mark = " *"
		}
		fmt.Fprintf(w, "  %-36s %16.4f %s%s\n", d.Name, v.Value, v.Unit, mark)
	}
	fmt.Fprintf(w, "  wall time of the traced window by layer: %s\n", strings.Join(shares, ", "))
	printNotes(w, det)
}

func printNotes(w io.Writer, det detail) {
	if det.SimDigest != "" {
		fmt.Fprintf(w, "  sim_digest %s\n", det.SimDigest)
	}
	keys := make([]string, 0, len(det.Notes))
	for k := range det.Notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  note %s: %v\n", k, det.Notes[k])
	}
	for _, e := range det.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

// environment is the block every result file carries, so a number is never
// read without the machine it was taken on.
type environment struct {
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NProc       int     `json:"nproc"`
	CPUModel    string  `json:"cpu_model"`
	MemTotalMiB int64   `json:"mem_total_mib"`
	GitCommit   string  `json:"git_commit"`
	Seed        int64   `json:"seed"`
	Scale       float64 `json:"scale"`
	Seconds     float64 `json:"seconds"`
}

func readEnvironment(cfg runConfig) environment {
	env := environment{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: "unknown", GitCommit: "unknown", Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/meminfo"); err == nil {
		if kib, err := kibField(data, []byte("MemTotal:")); err == nil {
			env.MemTotalMiB = kib >> 10
		}
	}
	// A driver's checkout is not a git repository; the commit is then unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	return env
}

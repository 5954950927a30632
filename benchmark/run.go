package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/metrics"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64
	traced   bool
	detail   string    // where to write the detail JSON ("" = nowhere)
	outDir   string    // where the trace file goes
	log      io.Writer // human-readable report
}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// detail is everything else a run learned: diagnostics that are too noisy to
// gate (p90/p99/max), the exact counts and digests two commits must agree on,
// and the notes of the verification pass.
type detail struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Scale     float64        `json:"scale"`
	Traced    bool           `json:"traced"`
	Ops       int            `json:"ops"`
	WindowS   float64        `json:"window_s"`
	SetupS    []float64      `json:"setup_s"`
	VerifyS   float64        `json:"verify_s"`
	OpP90Ms   *float64       `json:"op_p90_ms,omitempty"` // only with >= 10 samples beyond it
	Classes   []classStats   `json:"classes,omitempty"`
	SimDigest string         `json:"sim_digest,omitempty"`
	Notes     map[string]any `json:"notes,omitempty"`
	Errors    []string       `json:"errors,omitempty"`
	Trace     map[string]any `json:"trace,omitempty"` // spans recorded and dropped, trace file
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads() {
		if w.def.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (valid: %v)", name, workloadNames())
}

// setupReps is how often the untraced run sets the workload up; setup_s is
// the median, so one slow page-fault storm does not decide it.
const setupReps = 3

// runOne runs one workload once, untraced (end-to-end metrics) or traced
// (per-layer metrics), and returns the contract result plus the detail.
func runOne(cfg runConfig) (result, detail, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return result{}, detail{}, err
	}
	if err := preflight(); err != nil {
		return result{}, detail{}, err
	}
	stopGuard := startRSSGuard(cfg.workload)
	defer stopGuard()
	baseGoroutines := runtime.NumGoroutine()

	det := detail{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Traced: cfg.traced}
	if cfg.traced {
		return runTraced(cfg, w, det, baseGoroutines)
	}

	e := &env{seed: cfg.seed, scale: cfg.scale, clients: runtime.GOMAXPROCS(0)}
	var inst instance
	for rep := 0; rep < setupReps; rep++ {
		if inst != nil {
			inst.close()
			inst = nil
			releaseMemory(baseGoroutines)
		}
		t0 := time.Now()
		inst, err = w.setup(e)
		if err != nil {
			return result{}, det, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		det.SetupS = append(det.SetupS, time.Since(t0).Seconds())
	}
	defer inst.close()

	base := inst.start()
	res := runWindow(inst, cfg.seconds, w.slices, base, expectedOps(inst, cfg.seconds), nil, 1, e.scaled(w.allocOps, 0))
	hwmKiB, _ := procStatusKiB("VmHWM")

	gen := genLoop(inst, base, res.perCli)
	loadgen := gen.Seconds() / res.elapsed.Seconds()

	t0 := time.Now()
	failedChecks, notes, err := inst.verify()
	det.VerifyS = time.Since(t0).Seconds()
	if err != nil {
		return result{}, det, fmt.Errorf("%s: verify: %w", cfg.workload, err)
	}
	if notes == nil {
		notes = map[string]any{}
	}
	notes["loadgen_overhead_ratio"] = loadgen
	if loadgen > maxLoadgenRatio {
		failedChecks++
		notes["loadgen_overhead"] = fmt.Sprintf("generator-only loop is %.1f%% of the window, over the %.0f%% budget", 100*loadgen, 100*maxLoadgenRatio)
	}
	if d, ok := notes["sim_digest"].(string); ok {
		det.SimDigest = d
		delete(notes, "sim_digest")
	}
	det.Notes, det.Errors = notes, res.errs

	sorted := slices.Clone(res.lat)
	slices.Sort(sorted)
	// The rates are medians over the window's parts; the latency median is
	// over every op of the window.
	perOp := func(f func(sliceResult) float64) float64 {
		return res.overParts(func(p sliceResult) float64 { return f(p) / float64(p.ops) })
	}
	perAllocOp := func(f func(sliceResult) float64) float64 {
		return res.overParts(func(p sliceResult) float64 { return f(p) / float64(p.allocOps) })
	}
	out := result{
		Attempted: res.ops,
		Failed:    res.failed + failedChecks,
		Metrics: map[string]value{
			"setup_s":          {medianF(det.SetupS), "s"},
			"throughput_ops_s": {res.overParts(func(p sliceResult) float64 { return float64(p.ops) / p.elapsed.Seconds() }), "1/s"},
			"op_p50_ms":        {float64(metrics.NearestRank(sorted, 50)) / 1e6, "ms"},
			"cpu_ms_per_op":    {perOp(func(p sliceResult) float64 { return float64(p.cpu) / 1e6 }), "ms"},
			"allocs_per_op":    {perAllocOp(func(p sliceResult) float64 { return float64(p.mallocs) }), "count"},
			"alloc_kib_per_op": {perAllocOp(func(p sliceResult) float64 { return float64(p.bytes) / 1024 }), "KiB"},
			"peak_rss_mib":     {float64(hwmKiB) / 1024, "MiB"},
		},
	}
	out.Correct = out.Failed == 0
	det.Ops, det.WindowS = res.ops, res.elapsed.Seconds()
	det.Classes = perClass(res, inst.classes())
	// p90 is a diagnostic here: the contract wants every end-to-end metric from
	// every workload, and the three batch workloads run too few passes for it.
	if len(sorted)-int(math.Ceil(0.9*float64(len(sorted)))) >= 10 {
		p90 := float64(metrics.NearestRank(sorted, 90)) / 1e6
		det.OpP90Ms = &p90
	}
	printEndToEnd(cfg.log, det, out)
	return out, det, nil
}

// maxLoadgenRatio fails a run whose load generator costs more than a
// twentieth of the window: the numbers would measure the benchmark.
const maxLoadgenRatio = 0.05

// expectedOps sizes the latency buffers so they do not grow inside the
// window: 1<<16 entries per client covers the request and pass workloads, and
// an instance whose ops take microseconds says so through opRateHint (the op
// rate it saw during warm-up).
func expectedOps(inst instance, seconds float64) int {
	if h, ok := inst.(interface{ opRateHint() float64 }); ok {
		return int(h.opRateHint() * seconds * 1.3)
	}
	return inst.clients() << 16
}

// outPath returns a path under the benchmark's out directory, creating it.
func outPath(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, name), nil
}

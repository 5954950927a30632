package main

import (
	"fmt"
	"math"
	"runtime"
)

// spanCapacity bounds the spans one traced window can record; the sampler of
// the fast workloads keeps them far below it, and a drop is counted.
const spanCapacity = 1 << 20

// runTraced produces the per-layer metrics: the workload at a quarter of the
// window length, once plain and once with spans (their ratio is the tracing
// overhead), then the serving ladder and the simulator probes, which are the
// same for every workload, and finally the share of the traced window's wall
// time each layer accounts for.
func runTraced(cfg runConfig, w workloadSpec, det detail, baseGoroutines int) (result, detail, error) {
	clients := runtime.GOMAXPROCS(0)
	window := cfg.seconds / 4

	plain, err := w.setup(&env{seed: cfg.seed, scale: cfg.scale, clients: clients})
	if err != nil {
		return result{}, det, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
	}
	res0 := runWindow(plain, window, 1, plain.start(), expectedOps(plain, window), nil, 1, 0)
	gen := genLoop(plain, plain.start(), res0.perCli)
	plain.close()
	releaseMemory(baseGoroutines)

	tr := newTracer(spanCapacity)
	inst, err := w.setup(&env{seed: cfg.seed, scale: cfg.scale, clients: clients, tr: tr})
	if err != nil {
		return result{}, det, fmt.Errorf("%s: traced set-up: %w", cfg.workload, err)
	}
	res1 := runWindow(inst, window, 1, inst.start(), expectedOps(inst, window), tr, w.sampleEvery, 0)
	failedChecks, notes, err := inst.verify()
	inst.close()
	releaseMemory(baseGoroutines)
	if err != nil {
		return result{}, det, fmt.Errorf("%s: verify: %w", cfg.workload, err)
	}
	if d, ok := notes["sim_digest"].(string); ok {
		det.SimDigest = d
		delete(notes, "sim_digest")
	}

	m := metricSet{
		"tracing.overhead_ratio": ratio(res1.elapsed.Seconds()/float64(res1.ops), res0.elapsed.Seconds()/float64(res0.ops)),
		"loadgen.overhead_ratio": ratio(gen.Seconds(), res0.elapsed.Seconds()),
	}
	e := &env{seed: cfg.seed, scale: cfg.scale, clients: clients}
	lt := newTracer(1 << 16)
	lad, err := runServingLadder(e, lt, m)
	if err != nil {
		return result{}, det, err
	}
	sim, err := runSimProbes(e, lt, m)
	if err != nil {
		return result{}, det, err
	}

	att := attribute(tr.recorded())
	shares := layerShares(cfg.workload, att, lad, sim, m)
	// The harness layer (index 0) is the benchmark's own time inside an op; it
	// is not a layer of the system and lands in the unattributed rest.
	var attributed float64
	for layer := 1; layer < len(shares); layer++ {
		m["share."+layerNames[layer]] = shares[layer]
		attributed += shares[layer]
	}
	m["share.unattributed"] = max(0, 1-attributed)

	path, err := outPath(cfg.outDir, "trace-"+cfg.workload+".json")
	if err != nil {
		return result{}, det, err
	}
	if err := tr.write(path, lt); err != nil {
		return result{}, det, err
	}

	out := result{Attempted: res1.ops, Failed: res1.failed + res0.failed + failedChecks, Metrics: make(map[string]value, len(perLayerDefs))}
	for _, d := range perLayerDefs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, det, fmt.Errorf("%s: per-layer metric %s was not measured (%v)", cfg.workload, d.Name, v)
		}
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	out.Correct = out.Failed == 0
	det.Ops, det.WindowS = res1.ops, res1.elapsed.Seconds()
	det.Notes, det.Errors = notes, append(res0.errs, res1.errs...)
	det.Trace = map[string]any{"spans": len(tr.recorded()), "dropped": tr.dropped.Load(), "trace_file": path}
	printPerLayer(cfg.log, det, out)
	return out, det, nil
}

// layerShares turns the traced window's spans into the share of its wall time
// (the summed duration of the op spans) each layer accounts for. Spans give
// the split wherever the code has a seam; below the gateway handler, inside
// the memplane transport and inside RunChaos there is none, and the ladder's
// directly measured levels split those spans further.
func layerShares(workload string, att attribution, lad *ladder, sim simShares, m metricSet) []float64 {
	ns := append([]float64(nil), att.layerNs...)
	switch workload {
	case "serve_steady", "session_churn":
		ns[layerGateway] = 0
		for r, name := range gatewayRoutes {
			if agg := att.find(layerGateway, name); agg != nil {
				lad.split(r, agg.durNs, ns)
			}
		}
	case "mem_transfer":
		// A transport span is the memctl handle with the rdma verb under it.
		if unit := m["rdma.write_4k_ns"] + m["rdma.read_4k_ns"]; unit > 0 {
			if agg := att.find(layerMemctl, "memplane.transport"); agg != nil {
				verb := math.Min(ns[layerMemctl], float64(len(agg.durs))*unit/2)
				ns[layerMemctl] -= verb
				ns[layerRDMA] += verb
			}
		}
		// The op span is the harness calling Plane.Read/Write: its self time is
		// the plane's.
		ns[layerMemplane] += ns[layerHarness]
		ns[layerHarness] = 0
	case "scenario_matrix":
		oracle := ns[layerAutopilot] * sim.oracleShareOfAutopilot
		ns[layerAutopilot] -= oracle
		ns[layerDCSim] += oracle
	}
	shares := make([]float64, len(ns))
	for i, v := range ns {
		shares[i] = ratio(v, att.rootNs)
	}
	return shares
}

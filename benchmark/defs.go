package main

import (
	"encoding/json"
	"io"
)

// The tables in this file are the benchmark's contract: BENCHMARK.json at the
// repository root lists exactly these workloads and metrics (the smoke test
// compares the two), -compare reads its bounds from here, and every run must
// emit every name exactly once.

// metricDef names one metric. Bound is the share of the baseline median by
// which an end-to-end metric may worsen before -compare calls it a
// regression; per-layer metrics carry no bound. Exact marks a simulated
// statistic or a count that must repeat bit for bit on the same seed.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Exact  bool
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"serve_steady", "closed-loop report/paging/data request mix on warm fleetd sessions: the gateway-to-memplane serving path with session construction bypassed"},
	{"session_churn", "create-place-run-report-delete lifecycles: fleet.New, core.NewRack, memctl delegation and rdma registration, which serve_steady never touches"},
	{"online_replay", "gzip trace import plus autopilot under three online policies: trace I/O, the online loop and the planner do the work and dcsim none"},
	{"offline_compare", "Figure 10 contenders on a balanced and a gang-skewed trace with the parallel epoch engine: dcsim and consolidation only, autopilot none"},
	{"scenario_matrix", "five families x three policies under light chaos on the cell pool: the only user of chaos and RunChaos, with a sequential oracle inside a parallel grid"},
	{"mem_transfer", "seeded unaligned 4 KiB/64 KiB reads and writes on one memplane: memplane, memctl handle and rdma verb with no HTTP and no paging simulation"},
}

// endToEndDefs are the host costs a user of the simulator and of fleetd pays.
// Every workload reports every one of them from its untraced run. One bound
// covers all six workloads, so the noisiest pair sets it: on the shared
// 2-vCPU sizing host whole-run timings drift by 10-15 % between quiet and
// busy minutes (README, "Steadiness"), which puts every time-derived metric
// at the contract's ceiling of a quarter; the allocation metrics repeat to
// well under 1 % everywhere (mem_transfer counts them over a fixed number of
// ops, see workloadSpec.allocOps) except serve_steady's bytes per op (2 %).
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.15},
	{Name: "alloc_kib_per_op", Unit: "KiB", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// The serving routes the gateway metrics are broken down by.
var gatewayRoutes = []string{"report", "wl_paging", "wl_data", "create", "place", "delete"}

// Layers a span or a share can be attributed to, in ladder order.
var layerNames = []string{
	"harness", "net", "gateway", "fleet", "core", "hypervisor", "memplane", "memctl", "rdma",
	"trace", "autopilot", "consolidation", "dcsim", "chaos", "scenario",
}

// perLayerDefs is built once from the fixed rows plus the per-route and
// per-layer families.
var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	exact := func(name, unit string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "lower", Exact: true}
	}
	var d []metricDef
	for _, r := range gatewayRoutes {
		d = append(d, lo("gateway."+r+".p50_us", "us"), lo("gateway."+r+".p99_us", "us"), lo("gateway."+r+".handler_us", "us"))
	}
	d = append(d,
		lo("gateway.net_share.report", "ratio"),
		exact("gateway.requests", "count"),

		lo("fleet.new_ms", "ms"),
		lo("fleet.push_zombie_ms", "ms"),
		lo("fleet.place_us", "us"),
		lo("fleet.run_paging_us", "us"),
		lo("fleet.run_data_us", "us"),
		lo("fleet.report_us", "us"),
		lo("fleet.destroy_vm_us", "us"),
		hi("fleet.batch_speedup", "ratio"),

		lo("core.new_rack_ms", "ms"),
		lo("core.push_zombie_ms", "ms"),
		lo("core.create_vm_us", "us"),
		lo("core.destroy_vm_us", "us"),
		lo("core.run_workload_us", "us"),
		lo("core.memplane_of_us", "us"),

		lo("hypervisor.access_ns", "ns"),
		exact("hypervisor.fault_ratio", "ratio"),
		lo("workload.stream_next_ns", "ns"),

		lo("memctl.delegate_ms_per_gib", "ms/GiB"),
		lo("memctl.request_ext_us", "us"),
		lo("memctl.release_us", "us"),
		lo("memctl.wake_reclaim_ms", "ms"),
		exact("memctl.buffers_granted", "count"),

		lo("rdma.register_fresh_ms_per_gib", "ms/GiB"),
		lo("rdma.register_reused_ms_per_gib", "ms/GiB"),
		lo("rdma.write_4k_ns", "ns"),
		lo("rdma.read_4k_ns", "ns"),
		exact("rdma.bytes_registered", "B"),

		lo("memplane.local_op_ns", "ns"),
		lo("memplane.remote_op_ns.inproc", "ns"),
		lo("memplane.remote_op_ns.tcp", "ns"),
		lo("memplane.remote_op_ns.ledger", "ns"),
		lo("memplane.self_ns_per_op", "ns"),
		exact("memplane.remote_ratio", "ratio"),
		exact("memplane.charged_ns_per_op", "ns"),
		lo("memplane.new_ms", "ms"),

		hi("trace.import_tasks_per_s", "1/s"),
		lo("trace.import_alloc_b_per_task", "B"),
		hi("trace.encode_tasks_per_s", "1/s"),
		hi("trace.stream_events_per_s", "1/s"),
		lo("trace.generate_ms", "ms"),

		lo("consolidation.plan_us.neat", "us"),
		lo("consolidation.plan_us.oasis", "us"),
		lo("consolidation.plan_us.zombiestack", "us"),
		exact("consolidation.plan_calls", "count"),

		lo("autopilot.run_ms.reactive", "ms"),
		lo("autopilot.run_ms.hysteresis", "ms"),
		lo("autopilot.run_ms.ewma", "ms"),
		hi("autopilot.tasks_per_s", "1/s"),
		exact("autopilot.ticks", "count"),
		hi("autopilot.self_share", "ratio"),
		lo("autopilot.allocs_per_task", "count"),

		lo("dcsim.run_seq_ms.google", "ms"),
		lo("dcsim.run_par_ms.google", "ms"),
		hi("dcsim.par_speedup.google", "ratio"),
		lo("dcsim.run_seq_ms.mlbatch", "ms"),
		lo("dcsim.run_par_ms.mlbatch", "ms"),
		hi("dcsim.par_speedup.mlbatch", "ratio"),
		exact("dcsim.epochs", "count"),
		hi("dcsim.epochs_per_s", "1/s"),
		lo("dcsim.allocs_per_epoch", "count"),
		lo("dcsim.oracle_share_of_regret", "ratio"),

		lo("chaos.scenario_build_us", "us"),
		lo("chaos.run_overhead_ratio", "ratio"),
		lo("scenario.cell_p50_ms", "ms"),
		lo("scenario.cell_max_ms", "ms"),
		hi("scenario.pool_speedup", "ratio"),
		lo("scenario.pool_imbalance", "ratio"),

		lo("ident.intern_ns", "ns"),
		lo("ident.lookup_ns", "ns"),
		lo("obs.disabled_emit_ns", "ns"),
		lo("obs.enabled_emit_ns", "ns"),
		lo("obs.overhead_ratio.online_replay", "ratio"),
		lo("obs.overhead_ratio.mem_transfer", "ratio"),

		lo("tracing.overhead_ratio", "ratio"),
		lo("loadgen.overhead_ratio", "ratio"),
		lo("share.unattributed", "ratio"),
	)
	for _, l := range layerNames[1:] {
		d = append(d, hi("share."+l, "ratio"))
	}
	return d
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}

// contractRunSeconds is the window length BENCHMARK.json asks the driver for.
const contractRunSeconds = 10

// writeContract renders BENCHMARK.json from the tables above, so the file at
// the repository root and the code cannot drift apart unnoticed (the smoke
// test compares them).
func writeContract(w io.Writer) error {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type boundedJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	contract := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []boundedJSON  `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: contractRunSeconds,
	}
	for _, d := range workloadDefs {
		contract.Workloads = append(contract.Workloads, workloadJSON{d.Name, d.Why})
	}
	for _, d := range endToEndDefs {
		contract.EndToEnd = append(contract.EndToEnd, boundedJSON{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayerDefs {
		contract.PerLayer = append(contract.PerLayer, layerJSON{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(contract)
}

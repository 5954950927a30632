// Package zombieland is a library-level reproduction of "Welcome to
// Zombieland: Practical and Energy-efficient Memory Disaggregation in a
// Datacenter" (Nitu et al., EuroSys 2018).
//
// The paper disaggregates the CPU/memory couple at the power-supply-domain
// level: a new ACPI sleep state, Sz ("zombie"), suspends a server like S3
// while keeping its DRAM and RDMA NIC path in active idle, so the memory of a
// suspended server stays remotely accessible. On top of Sz the paper builds a
// rack-level remote memory system (a global memory controller, per-server
// remote memory manager agents, hypervisor-managed RAM extension and explicit
// remote swap devices) and ZombieStack, an OpenStack-based cloud layer
// (zombie-aware placement, consolidation and migration).
//
// This package is the public facade. It re-exports the building blocks from
// the internal packages and provides the experiment runners that regenerate
// every table and figure of the paper's evaluation:
//
//   - Rack: a simulated rack wired exactly like the paper's Figure 7
//     (ACPI platforms with Sz, an RDMA fabric, controllers, agents, paging);
//   - Fleet: many racks federated behind one control plane — sharded
//     placement and workload execution, cross-rack remote memory borrowing
//     over an inter-rack fabric premium, per-rack controller fail-over;
//   - VM, Workloads, replacement policies: the pieces of the rack-level
//     experiments (Figure 8, Tables 1 and 2, Figure 9);
//   - EnergyModel: the per-state power model, the Sz estimation of Equation 1
//     and the rack-architecture comparison (Figures 1-4, Table 3);
//   - Datacenter simulation: trace generation plus the Neat / Oasis /
//     ZombieStack comparison of Figure 10.
//
// See README.md for the architecture map of the internal packages and the
// quickstart of the command-line tools.
package zombieland

import (
	"cmp"
	"io"

	"repro/internal/acpi"
	"repro/internal/autopilot"
	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/pagepolicy"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Rack is a simulated rack of general-purpose servers with the zombie
// technology (Figure 7). Create one with NewRack.
type Rack = core.Rack

// RackConfig parameterises NewRack.
type RackConfig = core.Config

// Server is one server of a Rack.
type Server = core.Server

// CreateVMOptions tunes Rack.CreateVM.
type CreateVMOptions = core.CreateVMOptions

// VM describes a virtual machine (reserved memory, working set, vCPUs).
type VM = vm.VM

// The ACPI sleep states, including the paper's zombie state Sz.
const (
	S0 = acpi.S0
	S3 = acpi.S3
	S4 = acpi.S4
	S5 = acpi.S5
	Sz = acpi.Sz
)

// BoardSpec describes a server board (sockets, memory, split power domains).
type BoardSpec = acpi.BoardSpec

// MachineProfile is a per-machine power model (Table 3).
type MachineProfile = energy.MachineProfile

// Workload identifies one of the paper's evaluated workloads.
type Workload = workload.Kind

// The evaluated workloads.
const (
	MicroBench    = workload.MicroBench
	DataCaching   = workload.DataCaching
	Elasticsearch = workload.Elasticsearch
	SparkSQL      = workload.SparkSQL
)

// Trace is a datacenter task trace (Google-cluster-like).
type Trace = trace.Trace

// ConsolidationPolicy plans fleet-level consolidation (Neat, Oasis,
// ZombieStack).
type ConsolidationPolicy = consolidation.Policy

// Fleet federates many racks behind one control plane: sharded placement
// and workload execution on a worker pool, cross-rack remote memory
// borrowing priced with the inter-rack RDMA premium, and per-rack
// controller fail-over. Create one with NewFleet.
type Fleet = fleet.Fleet

// FleetConfig parameterises NewFleet (racks × per-rack template × workers).
type FleetConfig = fleet.Config

// FleetWorkloadRequest asks the fleet to replay a workload against one VM.
type FleetWorkloadRequest = fleet.WorkloadRequest

// NewFleet builds a multi-rack fleet from a per-rack template configuration.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// NewRack builds a rack of servers wired with the zombie technology.
func NewRack(cfg RackConfig) (*Rack, error) { return core.NewRack(cfg) }

// NewVM returns a VM descriptor with the paper's defaults (8 vCPUs, 4 KiB
// pages).
func NewVM(id string, reservedBytes, wssBytes int64) VM {
	return vm.New(id, reservedBytes, wssBytes)
}

// DefaultBoardSpec returns a board comparable to the paper's testbed machines
// with split CPU/memory power domains (Sz capable).
func DefaultBoardSpec() BoardSpec { return acpi.DefaultBoardSpec() }

// HPProfile returns the HP machine power profile of Table 3.
func HPProfile() *MachineProfile { return energy.HPProfile() }

// DellProfile returns the Dell machine power profile of Table 3.
func DellProfile() *MachineProfile { return energy.DellProfile() }

// MachineProfiles returns both testbed profiles with their Sz estimates.
func MachineProfiles() []*MachineProfile { return energy.Profiles() }

// PolicyNames lists the page replacement policies of Figure 8.
func PolicyNames() []string { return pagepolicy.Names() }

// Workloads lists the evaluated workloads in the paper's order.
func Workloads() []Workload { return workload.AllKinds() }

// LocalFractions lists the local-memory fractions of Tables 1 and 2.
func LocalFractions() []float64 { return workload.LocalFractions() }

// PaperVM returns the VM used by the paper's rack-level experiments
// (7 GiB reserved, 6 GiB working set, 8 vCPUs).
func PaperVM() VM { return workload.PaperVM() }

// GenerateTrace builds a synthetic Google-like trace. Set modified to true
// for the paper's memory-heavy variant (memory demand doubled). A zero
// argument takes the default (200 machines, 3000 tasks, one day, seed 42); a
// negative one is rejected.
func GenerateTrace(modified bool, machines, tasks int, horizonSec int64, seed int64) (*Trace, error) {
	d := trace.DefaultConfig()
	return trace.Spec{Modified: modified, Machines: cmp.Or(machines, d.Machines), Tasks: cmp.Or(tasks, d.Tasks),
		HorizonSec: cmp.Or(horizonSec, d.HorizonSec), Seed: cmp.Or(seed, d.Seed)}.Open()
}

// WorkloadFamily is a seeded, deterministic workload generator: a named
// scenario shape (diurnal, flashcrowd, serverless, mlbatch, heavytail) that
// builds a full Trace from one envelope of parameters.
type WorkloadFamily = trace.Family

// FamilyParams is the envelope shared by every workload family: fleet size,
// horizon, task budget and seed.
type FamilyParams = trace.FamilyParams

// GenerateFamily builds a trace from the named workload family ("mix"
// composes all of them into one trace).
func GenerateFamily(name string, p FamilyParams) (*Trace, error) {
	p.Family = name
	return p.Open()
}

// WorkloadFamilies returns the bundled families in canonical order.
func WorkloadFamilies() []WorkloadFamily { return trace.Families() }

// ComposeFamilies merges several families into one: the task budget is split
// across the parts and the resulting traces are overlaid with disjoint task
// and job ID namespaces.
func ComposeFamilies(name string, parts ...WorkloadFamily) WorkloadFamily {
	return trace.Compose(name, parts...)
}

// TraceImportOptions tunes ImportTrace (name, fleet-size and horizon
// overrides).
type TraceImportOptions = trace.ImportOptions

// ImportTrace streams a .csv or .csv.gz task trace from r record at a time
// (gzip is sniffed from the magic bytes, rows validate as they decode) and
// returns the assembled trace with the fleet size and horizon derived from
// the workload unless overridden.
func ImportTrace(r io.Reader, opts TraceImportOptions) (*Trace, error) {
	return trace.Import(r, opts)
}

// ScenarioPack is one column of the policy×scenario matrix: a named,
// ready-to-replay workload.
type ScenarioPack = scenario.Pack

// ScenarioMatrixConfig parameterises RunScenarioMatrix.
type ScenarioMatrixConfig = scenario.MatrixConfig

// ScenarioMatrix is the policy×scenario grid of chaos reports; Render
// formats it as the golden artifact.
type ScenarioMatrix = scenario.Matrix

// ScenarioFamilyPacks builds one matrix column per bundled workload family.
func ScenarioFamilyPacks(p FamilyParams) ([]ScenarioPack, error) {
	return scenario.FamilyPacks(p)
}

// RunScenarioMatrix replays every scenario pack under every online policy
// with chaos injected and returns the matrix of resilience reports; the
// result is bit-identical across runs and worker counts.
func RunScenarioMatrix(cfg ScenarioMatrixConfig) (*ScenarioMatrix, error) {
	return scenario.Run(cfg)
}

// ConsolidationPolicies returns the Figure 10 contenders: Neat, Oasis and
// ZombieStack.
func ConsolidationPolicies() []ConsolidationPolicy {
	return []ConsolidationPolicy{
		consolidation.NewNeat(),
		consolidation.NewOasis(),
		consolidation.NewZombieStack(),
	}
}

// ZombieStackPolicy returns the paper's zombie-aware consolidation planner.
func ZombieStackPolicy() ConsolidationPolicy { return consolidation.NewZombieStack() }

// ServerSpec is the per-server capacity the consolidation planners and the
// online control plane size postures against.
type ServerSpec = consolidation.ServerSpec

// DefaultServerSpec returns the paper's server shape (8 cores, 16 GiB).
func DefaultServerSpec() ServerSpec { return consolidation.DefaultServerSpec() }

// LocalMemoryRule is the minimum fraction of a VM's memory that ZombieStack
// keeps local (the 50% rule of Section 5.1).
const LocalMemoryRule = placement.LocalMemoryRule

// AutopilotConfig parameterises one online control-plane run: the trace
// whose arrival feed to consume, the online policy, the hardware, and the
// re-planning tick.
type AutopilotConfig = autopilot.Config

// OnlinePolicy decides fleet postures online, seeing only the present and
// the past (reactive threshold, hysteresis watermarks, predictive EWMA).
type OnlinePolicy = autopilot.Policy

// RegretReport compares an online policy's costed saving against the
// offline dcsim oracle on the same trace.
type RegretReport = autopilot.Report

// CompareOnlinePolicies runs the regret comparison for every given policy on
// the same configuration.
func CompareOnlinePolicies(cfg AutopilotConfig, policies []OnlinePolicy) ([]RegretReport, error) {
	return autopilot.CompareOnline(cfg, policies)
}

// OnlinePolicies returns a fresh instance of every bundled online policy
// over the given base planner (reactive, hysteresis, ewma).
func OnlinePolicies(base ConsolidationPolicy) []OnlinePolicy { return autopilot.Policies(base) }

// RenderRegretComparison formats a set of regret reports as one table, a row
// per policy.
func RenderRegretComparison(reports []RegretReport) string {
	return autopilot.RenderComparison(reports)
}

// ChaosPlan is a seeded, reproducible fault schedule: server crashes, failed
// S3->S0 wakes (stuck zombies), controller losses, RDMA-fabric degradation
// windows and trace perturbations, injected deterministically through the
// fleet, autopilot and dcsim layers. Build one with ChaosScenario.
type ChaosPlan = chaos.Plan

// ChaosReport is the resilience report of one faulted online run: savings
// retained vs the fault-free run, SLO violations, wasted transitions,
// re-homed remote memory, and the oracle re-run under the same schedule.
type ChaosReport = chaos.Report

// ChaosScenario builds one of the bundled severity presets ("off", "light",
// "heavy") for a given fleet size and horizon.
func ChaosScenario(name string, horizonSec int64, machines int, seed int64) (*ChaosPlan, error) {
	return chaos.Scenario(name, horizonSec, machines, seed)
}

// ChaosScenarioNames lists the bundled chaos scenarios in severity order.
func ChaosScenarioNames() []string { return chaos.ScenarioNames() }

// CompareChaosScenarios runs the same online configuration under every given
// fault plan, in order — how much of the paper's saving survives each
// severity level.
func CompareChaosScenarios(cfg AutopilotConfig, plans []*ChaosPlan) ([]ChaosReport, error) {
	return autopilot.CompareChaos(cfg, plans)
}

// RenderChaosComparison formats a set of chaos reports as one table, a row
// per scenario.
func RenderChaosComparison(reports []ChaosReport) string {
	return chaos.RenderComparison(reports)
}

// GatewayConfig parameterises the HTTP control-plane gateway: bearer token,
// per-tenant quota, session idle TTL and registry/fleet-size caps.
type GatewayConfig = gateway.Config

// Gateway is the long-running HTTP control plane ("zombieland as a
// service"): concurrent isolated fleet sessions behind a logging / panic
// recovery / auth / rate-limit middleware stack, exposing fleet creation,
// placement, workload replay, streaming autopilot runs, chaos scenarios and
// savings/regret reports. Create one with NewGateway (cmd/fleetd is the
// thin server wrapper).
type Gateway = gateway.Server

// NewGateway assembles the gateway; Handler() serves it on any mux,
// httptest server or http.Server.
func NewGateway(cfg GatewayConfig) *Gateway { return gateway.New(cfg) }

// Obs bundles the observability layer: an atomic metrics registry and a
// deterministic ring-buffered trace. Attach one to a Fleet (SetObs) or to an
// AutopilotConfig via its Obs field; a nil bundle keeps every hot path
// allocation-free. The gateway builds its own registry
// and serves it at GET /metrics.
type Obs = obs.Obs

// ObsOptions configures NewObs: trace ring capacity and the clock stamping
// emitted events (use ObsStepClock for byte-stable exports).
type ObsOptions = obs.Options

// NewObs builds an enabled observability bundle.
func NewObs(opts ObsOptions) *Obs { return obs.New(opts) }

// ObsStepClock returns a deterministic clock yielding 1, 2, 3, ... — the
// fake time source that makes trace exports byte-stable across runs.
func ObsStepClock() obs.Clock { return obs.StepClock() }

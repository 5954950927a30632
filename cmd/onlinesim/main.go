// Command onlinesim runs the online autonomic control plane over a synthetic
// datacenter trace and reports the regret against the offline dcsim oracle:
// how much of the paper's consolidation savings survive causal, online
// decision-making.
//
// The loop consumes the trace's streaming arrival feed (admission + placement
// at each arrival, periodic re-planning on a tick) under one of the bundled
// online policies — reactive threshold, hysteresis watermarks, or predictive
// EWMA forecasting — and every run prints the costed online saving side by
// side with the oracle's on the same trace, planner, machine and period.
//
// Usage:
//
//	onlinesim                                  # all three policies, zombiestack planner
//	onlinesim -policy hysteresis               # one policy, full regret report
//	onlinesim -planner oasis -machine dell     # different planner / power profile
//	onlinesim -tick 600 -hours 12 -seed 7      # control loop and trace knobs
//	onlinesim -family flashcrowd               # a workload-family scenario
//	onlinesim -trace cluster.csv.gz            # replay an imported trace file
//	onlinesim -execute -racks 25 -servers 8    # mirror decisions onto a live fleet
//	onlinesim -chaos light                     # resilience under a fault schedule
//	onlinesim -chaos all -chaos-seed 7         # off/light/heavy severity sweep
//	onlinesim -obs                             # append the obs dump: metrics
//	                                           #   snapshot + NDJSON event trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/acpi"
	"repro/internal/autopilot"
	"repro/internal/chaos"
	"repro/internal/cliflag"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/trace"
)

// options are the flags outside the run spec: the live fleet of -execute,
// the chaos axis and the obs dump.
type options struct {
	execute                bool
	racks, servers, memGiB int
	chaos                  string
	chaosSeed              int64
	obs                    bool
}

func main() {
	sp, opt, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err == nil {
		err = run(os.Stdout, sp, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "onlinesim:", err)
		os.Exit(1)
	}
}

// parseFlags binds the command line into the run spec and the options.
func parseFlags(fs *flag.FlagSet, args []string) (autopilot.Spec, options, error) {
	var sp autopilot.Spec
	var opt options
	fs.IntVar(&sp.Machines, "machines", 200, "servers in the simulated fleet")
	fs.IntVar(&sp.Tasks, "tasks", 3000, "tasks in the generated trace")
	hours := fs.Float64("hours", 24, "trace horizon in hours")
	fs.Int64Var(&sp.Seed, "seed", 42, "trace generator seed (the report is bit-reproducible per seed)")
	fs.BoolVar(&sp.Modified, "modified", false, "use the paper's memory-heavy modified traces")
	fs.StringVar(&sp.Family, "family", "", "generate the trace from a workload family instead: "+strings.Join(trace.FamilyNames(), ", "))
	fs.StringVar(&sp.File, "trace", "", "replay a .csv/.csv.gz trace file instead of generating one (fleet size and horizon are derived; streamed record-at-a-time)")
	fs.Int64Var(&sp.TickSec, "tick", 300, "re-planning tick of the online loop in seconds")
	fs.StringVar(&sp.Policy, "policy", "all", "online policy: reactive, hysteresis, ewma or all")
	fs.StringVar(&sp.Planner, "planner", "zombiestack", "base consolidation planner: neat, oasis or zombiestack")
	fs.StringVar(&sp.Machine, "machine", "hp", "machine power profile: hp or dell")
	fs.BoolVar(&opt.execute, "execute", false, "mirror every decision onto a live multi-rack fleet (real ACPI transitions)")
	fs.IntVar(&opt.racks, "racks", 25, "racks of the live fleet (with -execute; racks*servers must equal -machines)")
	fs.IntVar(&opt.servers, "servers", 8, "servers per rack of the live fleet (with -execute)")
	fs.IntVar(&opt.memGiB, "mem-gib", 1, "memory per live-fleet server in GiB (with -execute; every Sz entry delegates this much real buffer memory, so keep it small)")
	fs.StringVar(&opt.chaos, "chaos", "", "fault-injection scenario: off, light, heavy or all (empty disables the chaos axis)")
	fs.Int64Var(&opt.chaosSeed, "chaos-seed", 42, "fault-schedule seed (with -chaos; the report is bit-reproducible per seed)")
	fs.BoolVar(&opt.obs, "obs", false, "attach the observability layer and append its dump: metrics snapshot + deterministic NDJSON event trace")
	err := fs.Parse(args)
	sp.HorizonSec = int64(*hours * 3600)
	return sp, opt, err
}

func run(out io.Writer, sp autopilot.Spec, opt options) error {
	// Upfront validation, so a bad invocation fails before any simulation
	// state is built: the options here, then the spec's own check (the
	// gateway's messages) in Config before it opens the trace.
	if opt.execute {
		if err := cliflag.FirstError(
			cliflag.PositiveInt("-racks", opt.racks),
			cliflag.PositiveInt("-servers", opt.servers),
			cliflag.PositiveInt("-mem-gib", opt.memGiB),
		); err != nil {
			return err
		}
	}
	var chaosScenarios []string
	switch opt.chaos {
	case "":
		// Chaos axis disabled.
	case "all":
		chaosScenarios = chaos.ScenarioNames()
	case "off", "light", "heavy":
		chaosScenarios = []string{opt.chaos}
	default:
		return fmt.Errorf("unknown -chaos %q (valid: off, light, heavy, all)", opt.chaos)
	}
	if len(chaosScenarios) > 0 && opt.execute {
		return fmt.Errorf("-chaos runs on the abstract ledger; drop -execute (live-fleet faults go through the fleet fault surface)")
	}

	// "all" is onlinesim's policy axis, not a policy: the spec is checked
	// with the first bundled policy and the runs walk the whole roster.
	all := sp.Policy == "all"
	if all {
		sp.Policy = "reactive"
	}
	cfg, err := sp.Config()
	if err != nil {
		return err
	}
	tr, base := cfg.Trace, cfg.Policy.Planner()
	policies := []autopilot.Policy{cfg.Policy}
	if all {
		policies = autopilot.Policies(base)
	}
	if opt.execute && opt.racks*opt.servers != tr.Machines {
		return fmt.Errorf("-racks %d x -servers %d = %d servers, but the trace fleet has %d machines",
			opt.racks, opt.servers, opt.racks*opt.servers, tr.Machines)
	}
	fmt.Fprintf(out, "Trace %s: %d machines, %d tasks over %.1f h (seed %d). Online tick %d s, planner %s, %s profile.\n\n",
		tr.Name, tr.Machines, len(tr.Tasks), float64(tr.HorizonSec)/3600, sp.Seed, sp.TickSec, base.Name(), cfg.Machine.Name)

	// The loop stamps every event with its own simulated clock, so the -obs
	// dump is byte-identical run to run for a fixed invocation. With several
	// policies the runs share the bundle in policy order.
	var o *obs.Obs
	if opt.obs {
		o = obs.New(obs.Options{TraceCapacity: 8192})
		cfg.Obs = o
	}
	if len(chaosScenarios) > 0 {
		if err := runChaos(out, cfg, policies, chaosScenarios, opt.chaosSeed); err != nil {
			return err
		}
		return dumpObs(out, o)
	}
	if opt.execute {
		// Each policy run needs its own live fleet: the executor replays real
		// ACPI transitions and the ledger is cumulative.
		fmt.Fprintf(out, "Executing against a live %dx%d fleet per policy.\n\n", opt.racks, opt.servers)
	}

	var reports []autopilot.Report
	for _, pol := range policies {
		c := cfg
		c.Policy = pol
		if opt.execute {
			// The live fleet only mirrors postures and integrates energy — no
			// VMs are placed on it — but every Sz entry delegates the
			// server's free memory as real RDMA buffer allocations, so the
			// boards stay small (-mem-gib) to keep posture churn cheap.
			board := acpi.DefaultBoardSpec()
			board.MemoryBytes = uint64(opt.memGiB) << 30
			f, err := fleet.New(fleet.Config{Racks: opt.racks, Rack: core.Config{Servers: opt.servers, Board: board}, Workers: 1})
			if err != nil {
				return err
			}
			exec := autopilot.NewFleetExecutor(f)
			c.Executor = exec
			rep, err := autopilot.Regret(c)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s: live fleet ledger %.0f J after the run.\n", pol.Name(), exec.EnergyJoules())
			reports = append(reports, rep)
			continue
		}
		rep, err := autopilot.Regret(c)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
	}
	if opt.execute {
		fmt.Fprintln(out)
	}

	if len(reports) == 1 {
		fmt.Fprintln(out, reports[0].Render())
		return dumpObs(out, o)
	}
	fmt.Fprintln(out, autopilot.RenderComparison(reports))
	best := reports[0]
	for _, r := range reports[1:] {
		if r.Online.SavingPercent > best.Online.SavingPercent {
			best = r
		}
	}
	fmt.Fprintf(out, "Best online policy: %s at %.2f%% saving, %.2f points of regret behind the offline oracle (%.2f%%).\n",
		best.Policy, best.Online.SavingPercent, best.RegretPercent, best.Oracle.SavingPercent)
	return dumpObs(out, o)
}

// dumpObs appends the -obs report; a nil bundle (obs off) writes nothing.
func dumpObs(out io.Writer, o *obs.Obs) error {
	if o == nil {
		return nil
	}
	fmt.Fprintln(out)
	return o.Dump(out)
}

// runChaos is the -chaos axis: every selected policy replays under every
// selected fault scenario, and the severity comparison is printed per
// policy (plus the full report when a single scenario was asked for).
func runChaos(out io.Writer, cfg autopilot.Config, policies []autopilot.Policy, scenarios []string, chaosSeed int64) error {
	plans := make([]*chaos.Plan, 0, len(scenarios))
	for _, name := range scenarios {
		plan, err := chaos.Scenario(name, cfg.Trace.HorizonSec, cfg.Trace.Machines, chaosSeed)
		if err != nil {
			return err
		}
		plans = append(plans, plan)
	}
	// With -obs, the fault schedules go into the trace up front so the export
	// shows the plan next to the runtime fault events the loop emits.
	for _, plan := range plans {
		plan.EmitSchedule(cfg.Obs.Tracer())
	}
	fmt.Fprintf(out, "Chaos axis: %s (fault seed %d).\n\n", strings.Join(scenarios, ", "), chaosSeed)
	for _, pol := range policies {
		c := cfg
		c.Policy = pol
		reports, err := autopilot.CompareChaos(c, plans)
		if err != nil {
			return err
		}
		if len(reports) == 1 {
			fmt.Fprintln(out, reports[0].Render())
			continue
		}
		fmt.Fprintln(out, chaos.RenderComparison(reports))
	}
	return nil
}

// Command dcsim runs the datacenter-scale energy comparison of Figure 10:
// Neat, Oasis and ZombieStack on Google-like traces (original and
// memory-heavy variants) with the HP and Dell machine power profiles.
//
// Usage:
//
//	dcsim                         # default fleet (120 machines, 1500 tasks)
//	dcsim -machines 500 -tasks 6000 -horizon 86400
//	dcsim -workers 8              # shard epoch accounting over 8 goroutines
//	dcsim -transitions on         # charge ACPI/migration/remote-memory costs
//	dcsim -transitions both       # print Figure 10 with and without them
//	dcsim -sweep                  # scenario sweep: policies × machines ×
//	                              #   trace scales × consolidation periods ×
//	                              #   transition-cost axis
//	dcsim -sweep -scales 0.5,1,2 -periods 300,900 -workers 8
//	dcsim -family flashcrowd      # sweep a workload-family scenario pack
//	dcsim -trace cluster.csv.gz   # sweep an imported trace (streamed from disk)
//	dcsim -matrix                 # policy × scenario matrix: every workload
//	                              #   family × every online policy under chaos
//	dcsim -matrix -matrix-chaos heavy -workers 8
//	dcsim -cpuprofile cpu.pprof   # profile the run (pprof CPU profile)
//	dcsim -memprofile mem.pprof   # write an allocation profile on exit
//
// The parallel engine is bit-identical to the sequential one; -workers only
// changes how the work is scheduled (0, the default, means GOMAXPROCS).
// -transitions selects the accounting model: "off" integrates steady-state
// epoch power only (the optimistic Figure 10 bound), "on" additionally
// charges every suspend/wake transition, migration drain and remote-memory
// fault, and "both" reports the two side by side. -sweep replaces the single
// Figure 10 comparison with a concurrent grid of scenarios aggregated per
// policy.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	zombieland "repro"
	"repro/internal/cliflag"
	"repro/internal/consolidation"
	"repro/internal/dcsim"
	"repro/internal/energy"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// simConfig holds the flag values one invocation runs with: the trace spec
// (-machines, -tasks, -horizon, -seed, -family, -trace) and the run's shape.
type simConfig struct {
	trace.Spec
	workers         int
	sweep, matrix   bool
	scales, periods string
	transitions     string
	matrixChaos     string
}

func main() {
	var cfg simConfig
	flag.IntVar(&cfg.Machines, "machines", 120, "number of servers in the simulated fleet")
	flag.IntVar(&cfg.Tasks, "tasks", 1500, "number of tasks in the generated trace")
	flag.Int64Var(&cfg.HorizonSec, "horizon", 12*3600, "trace horizon in seconds")
	flag.Int64Var(&cfg.Seed, "seed", 42, "trace generation seed")
	flag.BoolVar(&cfg.sweep, "sweep", false, "run a scenario sweep grid instead of the single Figure 10 comparison")
	flag.StringVar(&cfg.Family, "family", "", "sweep over one workload-family scenario pack instead of the google-like mixes: "+strings.Join(trace.FamilyNames(), ", "))
	flag.StringVar(&cfg.File, "trace", "", "sweep over a .csv/.csv.gz trace file instead of generating traces (streamed record-at-a-time)")
	flag.BoolVar(&cfg.matrix, "matrix", false, "run the policy x scenario matrix: every workload family (or the -family/-trace pack) x every online policy under chaos")
	flag.StringVar(&cfg.matrixChaos, "matrix-chaos", "light", "fault preset of every -matrix cell: off, light or heavy")
	flag.IntVar(&cfg.workers, "workers", 0, "worker goroutines that shard epochs and sweep cells (0 = every core, runtime.GOMAXPROCS); results are identical for any value")
	flag.StringVar(&cfg.scales, "scales", "1", "comma-separated trace scale factors for -sweep (scale the fleet and task count)")
	flag.StringVar(&cfg.periods, "periods", "300", "comma-separated consolidation periods in seconds for -sweep")
	flag.StringVar(&cfg.transitions, "transitions", "off", "transition-cost accounting: off (steady state), on, or both")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dcsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "dcsim:", err)
		os.Exit(1)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "dcsim:", err)
			os.Exit(1)
		}
	}
}

// run executes the tool with the given flag values, writing every report to
// out — the entry point the golden-output test drives in-process.
func run(out io.Writer, cfg simConfig) error {
	// Upfront flag validation (the trace spec's own check, then -workers),
	// so a bad invocation fails before any trace is generated.
	if err := cliflag.FirstError(cfg.Validate(), cliflag.NonNegativeInt("-workers", cfg.workers)); err != nil {
		return err
	}
	transitionAxis, err := parseTransitionAxis(cfg.transitions)
	if err != nil {
		return err
	}
	if cfg.workers == 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}

	if cfg.matrix && cfg.sweep {
		return fmt.Errorf("-matrix and -sweep are mutually exclusive")
	}
	// -family or -trace selects a pre-built workload, opened through the spec.
	var pack *trace.Trace
	if cfg.Family != "" || cfg.File != "" {
		if pack, err = cfg.Open(); err != nil {
			return err
		}
	}
	if cfg.matrix {
		return runMatrix(out, cfg, pack)
	}
	if cfg.sweep || pack != nil {
		// -family/-trace replace the generated google-like mixes, so they
		// always take the sweep path: the Figure 10 facade generates its own
		// two trace variants and has no injection point.
		return runSweep(out, cfg, transitionAxis, pack)
	}

	fig := zombieland.Fig10Config{
		Machines:   cfg.Machines,
		Tasks:      cfg.Tasks,
		HorizonSec: cfg.HorizonSec,
		Seed:       cfg.Seed,
		Workers:    cfg.workers,
	}
	for _, costed := range transitionAxis {
		fig.TransitionCosts = costed
		res, err := zombieland.Figure10(fig)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Render())
	}
	fmt.Fprintln(out, "Energy saving is relative to a fleet that keeps every server in S0 (no consolidation).")
	return nil
}

// runMatrix crosses the scenario packs (all workload families, or the single
// -family/-trace pack) with the online policy roster under the chaos preset
// and prints the policy×scenario matrix artifact.
func runMatrix(out io.Writer, cfg simConfig, pack *trace.Trace) error {
	var packs []scenario.Pack
	var err error
	if pack != nil {
		name := cfg.Family
		if name == "" {
			name = pack.Name
		}
		packs = []scenario.Pack{{Name: name, Trace: pack}}
	} else {
		packs, err = scenario.FamilyPacks(cfg.Spec)
		if err != nil {
			return err
		}
	}
	policies := []string{"reactive", "hysteresis", "ewma"}
	m, err := scenario.Run(scenario.MatrixConfig{
		Packs:         packs,
		Policies:      policies,
		ChaosScenario: cfg.matrixChaos,
		ChaosSeed:     cfg.Seed,
		Workers:       cfg.workers,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, m.Render())
	fmt.Fprintf(out, "%d cells (%d scenarios x %d policies), %q chaos, %d workers. regret-%% = oracle - fault-free online; resil-regret-%% = fault-free - faulted saving.\n",
		len(m.Cells), len(packs), len(policies), cfg.matrixChaos, cfg.workers)
	return nil
}

// parseTransitionAxis maps the -transitions flag onto the runs to perform.
func parseTransitionAxis(mode string) ([]bool, error) {
	switch mode {
	case "off":
		return []bool{false}, nil
	case "on":
		return []bool{true}, nil
	case "both":
		return []bool{false, true}, nil
	default:
		return nil, fmt.Errorf("-transitions must be off, on or both (got %q)", mode)
	}
}

// runSweep builds the scenario grid {policy} × {machine} × {trace variant ×
// scale} × {period} × {transition axis} and prints the per-run table plus the
// per-policy summary.
func runSweep(out io.Writer, cfg simConfig, transitionAxis []bool, pack *trace.Trace) error {
	scales, err := parseFloats(cfg.scales)
	if err != nil {
		return fmt.Errorf("-scales: %w", err)
	}
	periodList, err := parseInts(cfg.periods)
	if err != nil {
		return fmt.Errorf("-periods: %w", err)
	}
	var packs []*trace.Trace
	if pack != nil {
		if !slices.Equal(scales, []float64{1}) {
			return fmt.Errorf("-scales only applies to generated traces, not -family/-trace packs")
		}
		packs, scales = []*trace.Trace{pack}, nil
	}
	// Each scale opens the original and the memory-heavy modified trace.
	for _, scale := range scales {
		sp := cfg.Spec
		sp.Machines, sp.Tasks = int(float64(sp.Machines)*scale), int(float64(sp.Tasks)*scale)
		for _, modified := range []bool{false, true} {
			sp.Modified = modified
			tr, err := sp.Open()
			if err != nil {
				return fmt.Errorf("-scales: scale %v: %w", scale, err)
			}
			if scale != 1 {
				tr.Name = fmt.Sprintf("%s-x%g", tr.Name, scale)
			}
			packs = append(packs, tr)
		}
	}

	res, err := dcsim.Sweep(dcsim.SweepConfig{
		Policies:        consolidation.Contenders(),
		Machines:        energy.Profiles(),
		Traces:          packs,
		PeriodsSec:      periodList,
		TransitionCosts: transitionAxis,
		ServerSpec:      consolidation.DefaultServerSpec(),
		SweepWorkers:    cfg.workers,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, res.Render())
	fmt.Fprintln(out, res.RenderSummary())
	fmt.Fprintf(out, "%d scenarios, %d sweep workers, steady state priced by the abstract power tables. Energy saving is relative to a no-consolidation fleet.\n",
		len(res.Runs), cfg.workers)
	return nil
}

// parseList parses a comma-separated list, skipping empty fields.
func parseList[T any](csv string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, field := range strings.Split(csv, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		v, err := parse(field)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// parseFloats parses a comma-separated float list.
func parseFloats(csv string) ([]float64, error) {
	return parseList(csv, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
}

// parseInts parses a comma-separated int64 list.
func parseInts(csv string) ([]int64, error) {
	return parseList(csv, func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) })
}

package zombieland

import (
	"fmt"

	"repro/internal/consolidation"
	"repro/internal/dcsim"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/migration"
	"repro/internal/pagepolicy"
	"repro/internal/swapdev"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file contains the experiment runners: one function per table or figure
// of the paper's evaluation (plus the motivation figures). Each returns a
// structured result and can render itself as an aligned text table, which is
// what the cmd tools print and the benchmarks execute.

// ---------------------------------------------------------------- Figure 1 --

// Fig1Result is the energy-vs-utilization curve of Figure 1.
type Fig1Result struct {
	Machine string
	Points  []energy.UtilizationPoint
	Ladder  map[string]float64
}

// Figure1 samples the actual and ideal energy-proportionality curves for the
// named machine profile ("HP" or "Dell").
func Figure1(machine string, points int) (Fig1Result, error) {
	m, err := energy.ProfileByName(machine)
	if err != nil {
		return Fig1Result{}, err
	}
	return Fig1Result{
		Machine: machine,
		Points:  energy.UtilizationCurve(m, points),
		Ladder:  energy.SleepStateLadder(m),
	}, nil
}

// Render formats the result as the figure's two series.
func (r Fig1Result) Render() string {
	actual := &metrics.Series{Name: "actual(%Emax)"}
	ideal := &metrics.Series{Name: "ideal(%Emax)"}
	for _, p := range r.Points {
		actual.Add(p.Utilization*100, p.Actual*100)
		ideal.Add(p.Utilization*100, p.Ideal*100)
	}
	out := metrics.RenderSeries("Figure 1 — energy vs utilization ("+r.Machine+")", "%util", actual, ideal)
	t := metrics.NewTable("Sleep-state floors (%Emax)", "state", "power")
	for _, s := range []string{"S0idle", "Sz", "S3", "S4", "S5"} {
		t.AddRowf(s, r.Ladder[s]*100)
	}
	return out + "\n" + t.String()
}

// ------------------------------------------------------------- Figures 2-3 --

// TrendResult carries one of the motivation trends (Figure 2 or 3).
type TrendResult struct {
	Title  string
	Points []energy.TrendPoint
}

// Figure2 returns the AWS memory:CPU demand trend.
func Figure2() TrendResult {
	return TrendResult{Title: "Figure 2 — AWS m<n>.<size> memory:CPU demand ratio", Points: energy.AWSDemandTrend()}
}

// Figure3 returns the server memory:CPU supply trend.
func Figure3() TrendResult {
	return TrendResult{Title: "Figure 3 — normalized server memory:CPU supply ratio", Points: energy.ServerSupplyTrend()}
}

// Render formats the trend as a table.
func (r TrendResult) Render() string {
	t := metrics.NewTable(r.Title, "year", "ratio")
	for _, p := range r.Points {
		t.AddRowf(p.Year, p.Ratio)
	}
	return t.String()
}

// ---------------------------------------------------------------- Figure 4 --

// Fig4Result is the rack-architecture energy comparison of Figure 4.
type Fig4Result struct {
	Energies map[energy.RackArchitecture]float64
}

// Figure4 evaluates the paper's three-server scenario under the four rack
// architectures.
func Figure4() Fig4Result {
	return Fig4Result{Energies: energy.DefaultRackScenario().Figure4()}
}

// Render formats the result.
func (r Fig4Result) Render() string {
	t := metrics.NewTable("Figure 4 — rack energy by architecture (x Emax)", "architecture", "energy")
	for _, a := range energy.AllArchitectures() {
		t.AddRowf(a.String(), r.Energies[a])
	}
	return t.String()
}

// ---------------------------------------------------------------- Figure 8 --

// Fig8Row is one (policy, local fraction) cell of Figure 8.
type Fig8Row struct {
	Policy               string
	LocalPercent         float64
	ExecTimeMs           float64
	MajorFaults          uint64
	PolicyCyclesPerFault float64
}

// Fig8Result is the replacement-policy comparison of Figure 8.
type Fig8Result struct {
	Rows []Fig8Row
}

// Figure8 runs the micro-benchmark under FIFO, Clock and Mixed for every
// local-memory percentage of the paper's sweep (20..100%).
func Figure8(seed int64) (Fig8Result, error) {
	runner := workload.NewRunner()
	runner.Seed = seed
	machine := PaperVM()
	var res Fig8Result
	fractions := []float64{0.2, 0.4, 0.5, 0.6, 0.8, 1.0}
	for _, name := range pagepolicy.Names() {
		for _, frac := range fractions {
			pol, err := pagepolicy.New(name, pagepolicy.DefaultCost())
			if err != nil {
				return Fig8Result{}, err
			}
			r, err := runner.RunRAMExt(workload.MicroBench, machine, frac, pol, nil)
			if err != nil {
				return Fig8Result{}, err
			}
			res.Rows = append(res.Rows, Fig8Row{
				Policy:               name,
				LocalPercent:         frac * 100,
				ExecTimeMs:           r.ExecTimeNs / 1e6,
				MajorFaults:          r.MajorFaults,
				PolicyCyclesPerFault: r.PolicyCyclesPerFault,
			})
		}
	}
	return res, nil
}

// Render formats the three panels of Figure 8.
func (r Fig8Result) Render() string {
	t := metrics.NewTable("Figure 8 — replacement policies (micro-benchmark)",
		"policy", "%local", "exec(ms)", "#faults", "cycles/fault")
	for _, row := range r.Rows {
		t.AddRowf(row.Policy, row.LocalPercent, row.ExecTimeMs, row.MajorFaults, row.PolicyCyclesPerFault)
	}
	return t.String()
}

// BestPolicy returns the policy with the lowest total execution time across
// the sweep (the paper finds Mixed).
func (r Fig8Result) BestPolicy() string {
	totals := map[string]float64{}
	for _, row := range r.Rows {
		totals[row.Policy] += row.ExecTimeMs
	}
	best, bestV := "", 0.0
	for _, name := range pagepolicy.Names() {
		v, ok := totals[name]
		if !ok {
			continue
		}
		if best == "" || v < bestV {
			best, bestV = name, v
		}
	}
	return best
}

// ----------------------------------------------------------------- Table 1 --

// Table1Cell is one workload x local-fraction penalty.
type Table1Cell struct {
	Workload       Workload
	LocalPercent   float64
	PenaltyPercent float64
}

// Table1Result is the RAM Ext penalty study of Table 1.
type Table1Result struct {
	Cells []Table1Cell
}

// Table1 measures the RAM Ext penalty of every workload at every local-memory
// fraction of the paper's sweep.
func Table1(seed int64) (Table1Result, error) {
	runner := workload.NewRunner()
	runner.Seed = seed
	machine := PaperVM()
	var res Table1Result
	for _, frac := range workload.LocalFractions() {
		for _, k := range workload.AllKinds() {
			r, err := runner.RunRAMExt(k, machine, frac, nil, nil)
			if err != nil {
				return Table1Result{}, err
			}
			res.Cells = append(res.Cells, Table1Cell{Workload: k, LocalPercent: frac * 100, PenaltyPercent: r.PenaltyPercent})
		}
	}
	return res, nil
}

// Penalty returns the penalty of a workload at a local percentage.
func (r Table1Result) Penalty(k Workload, localPercent float64) (float64, bool) {
	for _, c := range r.Cells {
		if c.Workload == k && c.LocalPercent == localPercent {
			return c.PenaltyPercent, true
		}
	}
	return 0, false
}

// Render formats the table with one row per local fraction, matching the
// paper's layout.
func (r Table1Result) Render() string {
	headers := []string{"%local"}
	for _, k := range workload.AllKinds() {
		headers = append(headers, k.String())
	}
	t := metrics.NewTable("Table 1 — RAM Ext performance penalty (%)", headers...)
	for _, frac := range workload.LocalFractions() {
		row := []string{metrics.FormatFloat(frac * 100)}
		for _, k := range workload.AllKinds() {
			p, _ := r.Penalty(k, frac*100)
			row = append(row, metrics.FormatPercent(p))
		}
		t.AddRow(row...)
	}
	return t.String()
}

// ----------------------------------------------------------------- Table 2 --

// Table2Cell is one (workload, local fraction, configuration) penalty.
type Table2Cell struct {
	Workload       Workload
	LocalPercent   float64
	Configuration  string // "v1-RE", "v2-ESD", "v2-LFSD", "v2-LSSD"
	PenaltyPercent float64
}

// Table2Result is the RAM Ext versus swap-technology comparison of Table 2.
type Table2Result struct {
	Cells []Table2Cell
}

// Table2Configurations lists the compared configurations in the paper's
// column order.
func Table2Configurations() []string { return []string{"v1-RE", "v2-ESD", "v2-LFSD", "v2-LSSD"} }

// Table2 compares RAM Ext against explicit swap devices backed by remote RAM,
// a local SSD and a local HDD, for every workload and local fraction.
func Table2(seed int64) (Table2Result, error) {
	runner := workload.NewRunner()
	runner.Seed = seed
	machine := PaperVM()
	var res Table2Result
	devices := map[string]swapdev.Kind{
		"v2-ESD":  swapdev.RemoteRAM,
		"v2-LFSD": swapdev.LocalSSD,
		"v2-LSSD": swapdev.LocalHDD,
	}
	for _, k := range workload.AllKinds() {
		for _, frac := range workload.LocalFractions() {
			re, err := runner.RunRAMExt(k, machine, frac, nil, nil)
			if err != nil {
				return Table2Result{}, err
			}
			res.Cells = append(res.Cells, Table2Cell{Workload: k, LocalPercent: frac * 100, Configuration: "v1-RE", PenaltyPercent: re.PenaltyPercent})
			for _, cfgName := range []string{"v2-ESD", "v2-LFSD", "v2-LSSD"} {
				esd, err := runner.RunExplicitSD(k, machine, frac, devices[cfgName])
				if err != nil {
					return Table2Result{}, err
				}
				res.Cells = append(res.Cells, Table2Cell{Workload: k, LocalPercent: frac * 100, Configuration: cfgName, PenaltyPercent: esd.PenaltyPercent})
			}
		}
	}
	return res, nil
}

// Penalty returns one cell of the table.
func (r Table2Result) Penalty(k Workload, localPercent float64, configuration string) (float64, bool) {
	for _, c := range r.Cells {
		if c.Workload == k && c.LocalPercent == localPercent && c.Configuration == configuration {
			return c.PenaltyPercent, true
		}
	}
	return 0, false
}

// Render formats one sub-table per workload, matching the paper's layout.
func (r Table2Result) Render() string {
	out := ""
	for _, k := range workload.AllKinds() {
		headers := append([]string{"%local"}, Table2Configurations()...)
		t := metrics.NewTable(fmt.Sprintf("Table 2 — %s penalty (%%) by swap technology", k), headers...)
		for _, frac := range workload.LocalFractions() {
			row := []string{metrics.FormatFloat(frac * 100)}
			for _, cfgName := range Table2Configurations() {
				p, _ := r.Penalty(k, frac*100, cfgName)
				row = append(row, metrics.FormatPercent(p))
			}
			t.AddRow(row...)
		}
		out += t.String() + "\n"
	}
	return out
}

// ---------------------------------------------------------------- Figure 9 --

// Fig9Result is the migration-time comparison of Figure 9.
type Fig9Result struct {
	Points []migration.Figure9Point
}

// Figure9 sweeps the WSS ratio and compares vanilla pre-copy migration with
// the ZombieStack protocol (50% of the VM memory local).
func Figure9() (Fig9Result, error) {
	pts, err := migration.Figure9(PaperVM(), []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}, LocalMemoryRule)
	if err != nil {
		return Fig9Result{}, err
	}
	return Fig9Result{Points: pts}, nil
}

// Render formats the two series.
func (r Fig9Result) Render() string {
	native := &metrics.Series{Name: "native(s)"}
	zombie := &metrics.Series{Name: "zombiestack(s)"}
	for _, p := range r.Points {
		native.Add(p.WSSRatio*100, p.VanillaSec)
		zombie.Add(p.WSSRatio*100, p.ZombieSec)
	}
	return metrics.RenderSeries("Figure 9 — VM migration time vs WSS", "%wss", native, zombie)
}

// ----------------------------------------------------------------- Table 3 --

// Table3Result is the per-state energy measurement table (plus Sz estimate).
type Table3Result struct {
	Configs  []energy.Config
	Machines []string
	Rows     map[string][]float64
}

// Table3 returns the measured per-configuration power fractions of both
// testbed machines and the Sz estimate of Equation 1.
func Table3() Table3Result {
	res := Table3Result{Configs: energy.AllConfigs(), Rows: make(map[string][]float64)}
	for _, m := range energy.Profiles() {
		res.Machines = append(res.Machines, m.Name)
		res.Rows[m.Name] = m.Table3Row()
	}
	return res
}

// Render formats the table in the paper's layout.
func (r Table3Result) Render() string {
	headers := []string{"machine"}
	for _, c := range r.Configs {
		headers = append(headers, string(c))
	}
	t := metrics.NewTable("Table 3 — energy by configuration (% of max)", headers...)
	for _, m := range r.Machines {
		row := []string{m}
		for _, v := range r.Rows[m] {
			row = append(row, metrics.FormatFloat(v))
		}
		t.AddRow(row...)
	}
	return t.String()
}

// --------------------------------------------------------------- Figure 10 --

// Fig10Cell is one (trace, machine, policy) energy saving.
type Fig10Cell struct {
	Trace         string
	Machine       string
	Policy        string
	SavingPercent float64
}

// Fig10Result is the datacenter-scale energy comparison of Figure 10.
type Fig10Result struct {
	Cells []Fig10Cell
	// TransitionCosts reports whether the runs charged transition events.
	TransitionCosts bool
}

// Fig10Config bounds the size of the Figure 10 simulation.
type Fig10Config struct {
	Machines   int
	Tasks      int
	HorizonSec int64
	Seed       int64
	// Workers shards each simulation's per-epoch accounting across that many
	// goroutines (see dcsim.Config.Workers); results are identical to a
	// sequential run.
	Workers int
	// TransitionCosts charges the ACPI suspend/wake, migration-drain and
	// remote-memory churn events of every consolidation epoch (see
	// dcsim.Config.TransitionCosts). Off reproduces the paper's optimistic
	// steady-state bound; on reports the faithful costed savings.
	TransitionCosts bool
}

// DefaultFig10Config returns a configuration sized to run in seconds while
// preserving the comparison's shape (the paper's full traces cover 12,583
// machines over 29 days).
func DefaultFig10Config() Fig10Config {
	return Fig10Config{Machines: 120, Tasks: 1500, HorizonSec: 12 * 3600, Seed: 42}
}

// Figure10 runs the Neat / Oasis / ZombieStack comparison on the original and
// modified Google-like traces for both machine profiles. Zero Machines runs
// DefaultFig10Config's fleet; a negative size is rejected.
func Figure10(cfg Fig10Config) (Fig10Result, error) {
	if cfg.Machines == 0 {
		workers, transitions := cfg.Workers, cfg.TransitionCosts
		cfg = DefaultFig10Config()
		cfg.Workers = workers
		cfg.TransitionCosts = transitions
	}
	res := Fig10Result{TransitionCosts: cfg.TransitionCosts}
	for _, modified := range []bool{false, true} {
		tr, err := trace.Spec{Modified: modified, Machines: cfg.Machines, Tasks: cfg.Tasks,
			HorizonSec: cfg.HorizonSec, Seed: cfg.Seed}.Open()
		if err != nil {
			return Fig10Result{}, err
		}
		cmp, err := dcsim.CompareOpts(tr, energy.Profiles(), consolidation.DefaultServerSpec(),
			dcsim.CompareOptions{Workers: cfg.Workers, TransitionCosts: cfg.TransitionCosts})
		if err != nil {
			return Fig10Result{}, err
		}
		for _, r := range cmp.Results {
			res.Cells = append(res.Cells, Fig10Cell{
				Trace:         tr.Name,
				Machine:       r.Machine,
				Policy:        r.Policy,
				SavingPercent: r.SavingPercent,
			})
		}
	}
	return res, nil
}

// Saving returns one cell of the figure.
func (r Fig10Result) Saving(traceName, machine, policy string) (float64, bool) {
	for _, c := range r.Cells {
		if c.Trace == traceName && c.Machine == machine && c.Policy == policy {
			return c.SavingPercent, true
		}
	}
	return 0, false
}

// Render formats the two panels of Figure 10.
func (r Fig10Result) Render() string {
	model := "steady state"
	if r.TransitionCosts {
		model = "with transition costs"
	}
	out := ""
	for _, traceName := range []string{"google-like", "google-like-modified"} {
		t := metrics.NewTable("Figure 10 — % energy saving ("+traceName+", "+model+")", "machine", "neat", "oasis", "zombiestack")
		for _, m := range []string{"HP", "Dell"} {
			row := []string{m}
			for _, p := range []string{"neat", "oasis", "zombiestack"} {
				v, _ := r.Saving(traceName, m, p)
				row = append(row, metrics.FormatFloat(v))
			}
			t.AddRow(row...)
		}
		out += t.String() + "\n"
	}
	return out
}

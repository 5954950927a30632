// Command paperfigs prints the paper's model and rack-level results: the
// power-model motivation figures (1-4), the per-state energy table (Table 3)
// including the Sz estimate of Equation 1, the replacement-policy comparison
// (Figure 8), the RAM Ext penalty study (Table 1), the swap-technology
// comparison (Table 2) and the migration-time comparison (Figure 9).
//
// Usage:
//
//	paperfigs                  # print everything
//	paperfigs -exp table1      # one experiment (see -h for the names)
//	paperfigs -seed 7          # change the workload seed of fig8, table1, table2
//	paperfigs -machine Dell    # machine profile for fig1 (HP or Dell)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	zombieland "repro"
)

type figConfig struct {
	exp     string
	seed    int64
	machine string
	points  int
}

// renderer is what every experiment result offers.
type renderer interface{ Render() string }

// experiments lists the accepted -exp values in presentation order, each
// with the call that computes it.
var experiments = []struct {
	name string
	run  func(cfg figConfig) (renderer, error)
}{
	{"fig1", func(cfg figConfig) (renderer, error) { return zombieland.Figure1(cfg.machine, cfg.points) }},
	{"fig2", func(figConfig) (renderer, error) { return zombieland.Figure2(), nil }},
	{"fig3", func(figConfig) (renderer, error) { return zombieland.Figure3(), nil }},
	{"fig4", func(figConfig) (renderer, error) { return zombieland.Figure4(), nil }},
	{"table3", func(figConfig) (renderer, error) { return zombieland.Table3(), nil }},
	{"fig8", func(cfg figConfig) (renderer, error) { return zombieland.Figure8(cfg.seed) }},
	{"table1", func(cfg figConfig) (renderer, error) { return zombieland.Table1(cfg.seed) }},
	{"table2", func(cfg figConfig) (renderer, error) { return zombieland.Table2(cfg.seed) }},
	{"fig9", func(figConfig) (renderer, error) { return zombieland.Figure9() }},
}

func experimentNames() string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), ", ")
}

func main() {
	var cfg figConfig
	flag.StringVar(&cfg.exp, "exp", "all", "experiment to print: "+experimentNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed for fig8, table1 and table2")
	flag.StringVar(&cfg.machine, "machine", "HP", "machine profile for fig1 (HP or Dell)")
	flag.IntVar(&cfg.points, "points", 11, "number of utilization samples for fig1")
	flag.Parse()

	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, cfg figConfig) error {
	// Reject typos before running anything, so a mistyped experiment name
	// cannot silently print nothing.
	known := cfg.exp == "all"
	for _, e := range experiments {
		known = known || e.name == cfg.exp
	}
	if !known {
		return fmt.Errorf("unknown experiment %q (valid: %s)", cfg.exp, experimentNames())
	}
	for _, e := range experiments {
		if cfg.exp != "all" && cfg.exp != e.name {
			continue
		}
		res, err := e.run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
		if fig8, ok := res.(zombieland.Fig8Result); ok {
			fmt.Fprintf(w, "Best policy over the sweep: %s (the paper reports mixed)\n\n", fig8.BestPolicy())
		}
	}
	return nil
}

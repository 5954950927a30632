// Command benchmark is the repository's one measuring instrument: six
// workloads, seven gated end-to-end metrics and a gateway-to-rdma layer
// ladder. See README.md for how to run it and how to read its output.
//
//	bash benchmark/run.sh --workload serve_steady --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh                       # every workload, then every traced run
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		cfg     runConfig
		trace   int
		runs    int
		out     string
		compare bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run once in this process; empty runs every workload, each in a fresh child process")
	flag.Int64Var(&cfg.seed, "seed", 42, "seed every generator derives its inputs from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: untraced run, prints the end-to-end metrics; 1: traced run, prints the per-layer metrics")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiplier on generated input sizes and probe op counts")
	flag.StringVar(&cfg.detail, "detail", "", "also write this run's diagnostics to the given JSON file")
	flag.IntVar(&runs, "runs", 1, "with no -workload: how many times to run each workload (seeds seed, seed+1, ...)")
	flag.StringVar(&out, "out", "", "with no -workload: result file to write (default <benchmark>/out/result.json)")
	flag.BoolVar(&compare, "compare", false, "compare two result files given as arguments and exit 1 on a regression")
	contract := flag.Bool("contract", false, "print BENCHMARK.json as the tables in defs.go define it, and exit")
	flag.Parse()

	if *contract {
		if err := writeContract(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	cfg.traced = trace != 0
	cfg.outDir = benchOutDir()
	cfg.log = os.Stdout

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files, got %d arguments", flag.NArg()))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case cfg.workload == "":
		if out == "" {
			p, err := outPath(cfg.outDir, "result.json")
			if err != nil {
				fatal(err)
			}
			out = p
		}
		ok, err := runAll(cfg, runs, out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		if cfg.seconds <= 0 || cfg.scale <= 0 {
			fatal(fmt.Errorf("-seconds and -scale must be positive"))
		}
		res, det, err := runOne(cfg)
		if err != nil {
			fatal(err)
		}
		if cfg.detail != "" {
			if err := writeJSON(cfg.detail, det); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// benchOutDir is <benchmark>/out: the driver runs the binary from the
// checkout root, a developer may run it from inside benchmark/.
func benchOutDir() string {
	if st, err := os.Stat("benchmark/go.mod"); err == nil && !st.IsDir() {
		return "benchmark/out"
	}
	return "out"
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

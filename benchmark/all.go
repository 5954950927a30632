package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// resultSchema versions the result file -compare reads.
const resultSchema = "zombieland-benchmark/v1"

// runRecord is one child run in a result file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	result
	Detail detail `json:"detail"`
	// Error is set when the child did not produce a result: it crashed, was
	// refused by the pre-flight, or was killed by the RSS guard.
	Error string `json:"error,omitempty"`
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Schema string      `json:"schema"`
	Env    environment `json:"env"`
	Runs   []runRecord `json:"runs"`
}

// runAll runs every workload in a fresh child process, untraced then traced,
// `runs` times with consecutive seeds, prints each report and writes the
// result file. It reports whether every run was correct.
func runAll(cfg runConfig, runs int, out string) (bool, error) {
	if err := preflight(); err != nil {
		return false, err
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	file := resultFile{Schema: resultSchema, Env: readEnvironment(cfg)}
	fmt.Fprintf(cfg.log, "benchmark: %s, GOMAXPROCS %d of %d CPUs (%s), %d MiB, commit %s, seed %d, scale %g, %g s windows\n",
		file.Env.GoVersion, file.Env.GOMAXPROCS, file.Env.NProc, file.Env.CPUModel, file.Env.MemTotalMiB,
		file.Env.GitCommit, cfg.seed, cfg.scale, cfg.seconds)
	ok := true
	for r := 0; r < runs; r++ {
		for _, traced := range []bool{false, true} {
			for _, name := range workloadNames() {
				rec := runChild(self, cfg, name, cfg.seed+int64(r), traced)
				if rec.Error != "" {
					fmt.Fprintf(cfg.log, "== %s FAILED: %s\n", name, rec.Error)
				}
				ok = ok && rec.Error == "" && rec.Correct
				file.Runs = append(file.Runs, rec)
			}
		}
	}
	if err := writeJSON(out, file); err != nil {
		return false, err
	}
	fmt.Fprintf(cfg.log, "benchmark: wrote %s (%d runs, all correct: %v)\n", out, len(file.Runs), ok)
	return ok, nil
}

// runChild runs one workload once in a child process and collects its
// contract line and its detail file. A child that dies is recorded as a
// failed run, not as a failed benchmark.
func runChild(self string, cfg runConfig, name string, seed int64, traced bool) runRecord {
	rec := runRecord{Workload: name, Seed: seed, Traced: traced}
	detailPath, err := outPath(cfg.outDir, fmt.Sprintf("detail-%s-%d-%v.json", name, seed, traced))
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	defer os.Remove(detailPath)
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self,
		"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-trace", trace,
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
		"-detail", detailPath)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		rec.Error = fmt.Sprintf("%v: %s", err, strings.TrimSpace(stderr.String()))
		var exit *exec.ExitError
		if errors.As(err, &exit) && exit.ExitCode() == 3 {
			rec.Error = "killed by the RSS guard: " + strings.TrimSpace(stderr.String())
		}
		return rec
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	fmt.Fprintln(cfg.log, strings.Join(lines[:len(lines)-1], "\n"))
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.result); err != nil {
		rec.Error = fmt.Sprintf("bad result line %q: %v", lines[len(lines)-1], err)
		return rec
	}
	data, err := os.ReadFile(detailPath)
	if err == nil {
		err = json.Unmarshal(data, &rec.Detail)
	}
	if err != nil {
		rec.Error = fmt.Sprintf("detail file %s: %v", filepath.Base(detailPath), err)
	}
	return rec
}

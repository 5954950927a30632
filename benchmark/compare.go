package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// verdict of one (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictDiffers    = "differs"
)

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return f, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return f, nil
}

// series collects one metric's values over the runs of one workload.
func series(f resultFile, workload string, traced bool, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Traced == traced && r.Error == "" {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// spread is the run-to-run width of a set as a share of its median: the
// interquartile range with four or more runs, the full range below that.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = s[len(s)/4], s[len(s)-1-len(s)/4]
	}
	return ratio(hi-lo, medianF(s))
}

// judge applies the benchmark's rule to one end-to-end metric: b may be worse
// than a by at most the bound; where either side's own runs spread wider than
// the bound the pair is unresolved, unless every run of b beats every run of a.
func judge(d metricDef, a, b []float64) (verdict string, worse, spreadA, spreadB float64) {
	ma, mb := medianF(a), medianF(b)
	worse = ratio(mb-ma, ma)
	better := func(x, y float64) bool { return x < y }
	if d.Better == "higher" {
		worse = -worse
		better = func(x, y float64) bool { return x > y }
	}
	spreadA, spreadB = spread(a), spread(b)
	if spreadA > d.Bound || spreadB > d.Bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				allBetter = allBetter && better(x, y)
			}
		}
		if allBetter {
			return verdictOK, worse, spreadA, spreadB
		}
		return verdictUnresolved, worse, spreadA, spreadB
	}
	if worse > d.Bound {
		return verdictRegressed, worse, spreadA, spreadB
	}
	return verdictOK, worse, spreadA, spreadB
}

// compareFiles prints every (workload, metric) delta of b against baseline a
// with its verdict, diffs the exact counts and digests, and reports whether
// anything regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "baseline %s: commit %s, %s, GOMAXPROCS %d\n", pathA, a.Env.GitCommit, a.Env.CPUModel, a.Env.GOMAXPROCS)
	fmt.Fprintf(w, "change   %s: commit %s, %s, GOMAXPROCS %d\n", pathB, b.Env.GitCommit, b.Env.CPUModel, b.Env.GOMAXPROCS)
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %8s %7s %8s %8s  %s\n", "workload", "metric", "baseline", "change", "worse", "bound", "spread-a", "spread-b", "verdict")
	for _, wl := range workloadNames() {
		for _, d := range endToEndDefs {
			va, vb := series(a, wl, false, d.Name), series(b, wl, false, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-18s missing on one side (%d vs %d runs): %s\n", wl, d.Name, len(va), len(vb), verdictRegressed)
				regressed = true
				continue
			}
			v, worse, sa, sb := judge(d, va, vb)
			regressed = regressed || v == verdictRegressed
			fmt.Fprintf(w, "%-16s %-18s %14.4f %14.4f %+7.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
				wl, d.Name, medianF(va), medianF(vb), 100*worse, 100*d.Bound, 100*sa, 100*sb, v)
		}
		fa, fb := failedRatio(a, wl), failedRatio(b, wl)
		v := verdictOK
		if fb > fa {
			v, regressed = verdictRegressed, true
		}
		fmt.Fprintf(w, "%-16s %-18s %14.6f %14.6f %39s  %s\n", wl, "failed_ratio", fa, fb, "any rise", v)
	}
	// Simulated statistics and counts: equal seeds must give equal values.
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Workload != rb.Workload || ra.Seed != rb.Seed || ra.Traced != rb.Traced || ra.Error != "" || rb.Error != "" {
				continue
			}
			if ra.Detail.Scale != rb.Detail.Scale {
				continue
			}
			if ra.Detail.SimDigest != rb.Detail.SimDigest {
				regressed = true
				fmt.Fprintf(w, "%-16s sim_digest (seed %d): %s vs %s  %s\n", ra.Workload, ra.Seed, ra.Detail.SimDigest, rb.Detail.SimDigest, verdictDiffers)
			}
			for _, d := range perLayerDefs {
				if !d.Exact {
					continue
				}
				xa, oka := ra.Metrics[d.Name]
				xb, okb := rb.Metrics[d.Name]
				if oka && okb && xa.Value != xb.Value {
					regressed = true
					fmt.Fprintf(w, "%-16s %s (seed %d): %v vs %v  %s\n", ra.Workload, d.Name, ra.Seed, xa.Value, xb.Value, verdictDiffers)
				}
			}
		}
	}
	if regressed {
		fmt.Fprintln(w, "result: REGRESSED (a differing digest or exact count means the model changed: say so in the change, or fix it)")
	} else {
		fmt.Fprintln(w, "result: ok")
	}
	return regressed, nil
}

// failedRatio is failed over attempted across a workload's untraced runs; a
// run that produced no result counts as one attempt that failed.
func failedRatio(f resultFile, workload string) float64 {
	var failed, attempted float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if r.Error != "" {
			failed, attempted = failed+1, attempted+1
			continue
		}
		failed += float64(r.Failed)
		attempted += float64(r.Attempted)
	}
	return ratio(failed, attempted)
}

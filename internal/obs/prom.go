package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// typeString renders the Prometheus TYPE keyword for a family.
func (k metricKind) typeString() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// promSeries is one exposition sample collected under the registry lock.
type promSeries struct {
	fam  string
	line string
}

// histLe renders the inclusive upper bound of log-2 bucket i: bucket 0
// holds zeros (le="0"), bucket i holds values below 1<<i (le="2^i - 1").
// The top slot has no finite bound; it is folded into +Inf by the caller.
func histLe(i int) string {
	if i == 0 {
		return "0"
	}
	if i >= 64 {
		return "+Inf"
	}
	bound := (uint64(1) << uint(i)) - 1
	return strconv.FormatUint(bound, 10)
}

// withLabel merges an extra label pair into a series name that may already
// carry labels: name{a="b"} + le=7 -> name{a="b",le="7"}, and a bare
// name + le=7 -> name{le="7"}. The suffix is appended to the family part
// of the name (before the brace).
func withLabel(series, suffix, key, val string) string {
	fam := familyName(series)
	if fam == series {
		return fam + suffix + "{" + key + "=\"" + val + "\"}"
	}
	labels := series[len(fam):]        // "{...}"
	inner := labels[1 : len(labels)-1] // "..."
	return fam + suffix + "{" + inner + "," + key + "=\"" + val + "\"}"
}

// suffixed appends a suffix to the family part of a series name:
// name{a="b"} + _count -> name_count{a="b"}.
func suffixed(series, suffix string) string {
	fam := familyName(series)
	if fam == series {
		return fam + suffix
	}
	return fam + suffix + series[len(fam):]
}

// WritePrometheus writes the registry in Prometheus text exposition format
// (version 0.0.4). Families and series are sorted, so the output for a
// deterministic workload is deterministic. Histograms expose cumulative
// _bucket series for every non-empty log-2 bucket plus the mandatory +Inf
// bucket, then _sum and _count. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	series := make([]promSeries, 0, len(r.counters)+len(r.gaugeFns)+len(r.hists))
	fams := make(map[string]*family, len(r.families))
	for name, f := range r.families {
		fams[name] = f
	}
	for _, name := range sortedKeys(r.counters) {
		series = append(series, promSeries{familyName(name),
			name + " " + strconv.FormatUint(r.counters[name].Value(), 10)})
	}
	gaugeFns := make(map[string]func() float64, len(r.gaugeFns))
	for name, fn := range r.gaugeFns {
		gaugeFns[name] = fn
	}
	type histSample struct {
		name    string
		buckets [histSlots]uint64
		sum     int64
	}
	histSamples := make([]histSample, 0, len(r.hists))
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		histSamples = append(histSamples, histSample{name, h.buckets(), h.Sum()})
	}
	r.mu.Unlock()

	// Gauge callbacks run outside the registry lock: they reach into other
	// subsystems (the session manager, the fleet) that may themselves take
	// locks and register metrics.
	for _, name := range sortedKeys(gaugeFns) {
		series = append(series, promSeries{familyName(name),
			name + " " + formatPromFloat(gaugeFns[name]())})
	}
	for _, hs := range histSamples {
		var cum uint64
		for i, n := range hs.buckets {
			if n == 0 {
				continue
			}
			cum += n
			if i >= 64 {
				continue // folded into +Inf below
			}
			series = append(series, promSeries{familyName(hs.name) + "_bucket",
				withLabel(hs.name, "_bucket", "le", histLe(i)) + " " + strconv.FormatUint(cum, 10)})
		}
		series = append(series, promSeries{familyName(hs.name) + "_bucket",
			withLabel(hs.name, "_bucket", "le", "+Inf") + " " + strconv.FormatUint(cum, 10)})
		series = append(series, promSeries{familyName(hs.name) + "_sum",
			suffixed(hs.name, "_sum") + " " + strconv.FormatInt(hs.sum, 10)})
		series = append(series, promSeries{familyName(hs.name) + "_count",
			suffixed(hs.name, "_count") + " " + strconv.FormatUint(cum, 10)})
	}

	// Group by the declared family (histogram sub-series map back to their
	// base family for HELP/TYPE) and emit. Series keep their collection
	// order — sorted names, then ascending histogram buckets — which is
	// already deterministic.
	byFam := make(map[string][]string)
	for _, s := range series {
		fam := s.fam
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(fam, suffix); ok {
				if f, ok := fams[base]; ok && f.kind == kindHistogram {
					fam = base
				}
				break
			}
		}
		byFam[fam] = append(byFam[fam], s.line)
	}
	bw := bufio.NewWriter(w)
	for _, fam := range sortedKeys(byFam) {
		if f, ok := fams[fam]; ok {
			if f.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", fam, f.help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", fam, f.kind.typeString())
		}
		for _, line := range byFam[fam] {
			bw.WriteString(line)
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// formatPromFloat renders a gauge value compactly: integral values without
// a decimal point, others with full precision.
func formatPromFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText writes a plain sorted "name value" dump of the registry — the
// human-readable snapshot printed by the CLIs' -obs flag. Histograms appear
// as their <name>_count and <name>_sum entries. A nil registry writes
// nothing.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	bw := bufio.NewWriter(w)
	for _, name := range sortedKeys(snap.Counters) {
		fmt.Fprintf(bw, "%s %d\n", name, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Gauges) {
		fmt.Fprintf(bw, "%s %s\n", name, formatPromFloat(snap.Gauges[name]))
	}
	return bw.Flush()
}

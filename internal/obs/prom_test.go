package obs

import (
	"strings"
	"testing"
)

// TestPrometheusExposition pins the text format end to end: HELP/TYPE
// lines, sorted families, labelled series, cumulative sparse histogram
// buckets with a mandatory +Inf, and _sum/_count.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "second family").Add(2)
	v := r.CounterVec2("a_requests_total", "requests by route and status", "route", "status")
	v.With("GET /healthz", "200").Add(7)
	v.With("POST /v1/fleets", "201").Add(3)
	h := r.Histogram("a_latency_ns", "request latency")
	h.Observe(0)
	h.Observe(3) // bucket 2, le="3"
	h.Observe(900)
	r.GaugeFunc("c_depth", "a gauge", func() float64 { return -4 })
	r.GaugeFunc("c_fn", "a callback gauge", func() float64 { return 2.5 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP a_latency_ns request latency
# TYPE a_latency_ns histogram
a_latency_ns_bucket{le="0"} 1
a_latency_ns_bucket{le="3"} 2
a_latency_ns_bucket{le="1023"} 3
a_latency_ns_bucket{le="+Inf"} 3
a_latency_ns_sum 903
a_latency_ns_count 3
# HELP a_requests_total requests by route and status
# TYPE a_requests_total counter
a_requests_total{route="GET /healthz",status="200"} 7
a_requests_total{route="POST /v1/fleets",status="201"} 3
# HELP b_total second family
# TYPE b_total counter
b_total 2
# HELP c_depth a gauge
# TYPE c_depth gauge
c_depth -4
# HELP c_fn a callback gauge
# TYPE c_fn gauge
c_fn 2.5
`
	if got != want {
		t.Errorf("exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLabelledHistogramExposition checks the label-merge path: a
// HistogramVec series folds le into the existing label set and suffixes
// the family part of the name.
func TestLabelledHistogramExposition(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("lat_ns", "latency by route", "route")
	hv.With("GET /x").Observe(5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, wantLine := range []string{
		`lat_ns_bucket{route="GET /x",le="7"} 1`,
		`lat_ns_bucket{route="GET /x",le="+Inf"} 1`,
		`lat_ns_sum{route="GET /x"} 5`,
		`lat_ns_count{route="GET /x"} 1`,
		"# TYPE lat_ns histogram",
	} {
		if !strings.Contains(got, wantLine+"\n") {
			t.Errorf("missing line %q in:\n%s", wantLine, got)
		}
	}
}

// TestLabelEscaping checks backslash/quote/newline escaping in label
// values.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("c_total", "", "k").With("a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `c_total{k="a\"b\\c\nd"} 1`; !strings.Contains(sb.String(), want) {
		t.Errorf("escaped series missing; got:\n%s", sb.String())
	}
}

// TestWriteText pins the -obs snapshot dump format.
func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops", "").Add(9)
	r.GaugeFunc("depth", "", func() float64 { return 3 })
	h := r.Histogram("lat", "")
	h.Observe(4)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := "lat_count 1\nops 9\ndepth 3\nlat_sum 4\n"
	if sb.String() != want {
		t.Errorf("text dump = %q, want %q", sb.String(), want)
	}
}

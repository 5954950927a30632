package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestCounterGaugeBasics pins the elementary semantics.
func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("ops_total", "ops"); again != c {
		t.Fatal("re-registering a counter must return the same instance")
	}
	depth := 7.0
	r.GaugeFunc("depth", "queue depth", func() float64 { return depth })
	depth -= 2 // read at scrape time, not at registration
	if got := r.Snapshot().Gauges["depth"]; got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
	r.GaugeFunc("depth", "queue depth", func() float64 { return -1 })
	if got := r.Snapshot().Gauges["depth"]; got != -1 {
		t.Fatalf("re-registered gauge = %v, want -1 (the new callback)", got)
	}
}

// TestHistogramBuckets pins the log-2 bucketing: zeros in bucket 0, powers
// of two on their boundary, sums exact.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "latency")
	for _, v := range []int64{0, 1, 2, 3, 4, 1024, -5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("count = %d, want 7", got)
	}
	if got := h.Sum(); got != 0+1+2+3+4+1024-5 {
		t.Fatalf("sum = %d", got)
	}
	b := h.buckets()
	// 0 and -5 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2; 4 -> bucket 3;
	// 1024 -> bucket 11.
	want := map[int]uint64{0: 2, 1: 1, 2: 2, 3: 1, 11: 1}
	for i, n := range b {
		if n != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
}

// TestNilRegistryIsDisabled checks the whole nil chain: a nil registry
// hands out nil metrics and every operation on them is a no-op.
func TestNilRegistryIsDisabled(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	h := r.Histogram("z", "")
	v := r.CounterVec("v", "", "k")
	v2 := r.CounterVec2("w", "", "a", "b")
	hv := r.HistogramVec("hv", "", "k")
	r.GaugeFunc("f", "", func() float64 { return 1 })
	c.Inc()
	c.Add(3)
	h.Observe(5)
	v.With("a").Inc()
	v2.With("a", "b").Inc()
	hv.With("a").Observe(1)
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil metrics must stay zero")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestDisabledPathAllocs pins the zero-allocation contract of the disabled
// path: operating on nil metrics (what every subsystem does when obs is
// off) must not allocate, preserving the repo's existing alloc budgets.
func TestDisabledPathAllocs(t *testing.T) {
	var c *Counter
	var h *Histogram
	var tr *Trace
	var cv *CounterVec
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		h.Observe(42)
		cv.With("x").Inc()
		tr.Emit("layer", "event") // no fields: no variadic slice
	}); n != 0 {
		t.Fatalf("disabled path allocates %v allocs/op, want 0", n)
	}
}

// TestEnabledHotPathAllocs pins the enabled hot path: counter increments
// and histogram observations are allocation-free, and so are a vec hit on an
// existing label value and an increment through a resolved one-label handle.
func TestEnabledHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	h := r.Histogram("h", "")
	cv := r.CounterVec2("v", "", "route", "status")
	cv.With("GET /x", "200") // pre-create the series
	cv1 := r.CounterVec("v1", "", "route")
	hv := r.HistogramVec("hv", "", "route")
	hv.With("GET /x")
	// A one-label series resolved once and incremented through its handle,
	// the way the runtime layers hold their per-route counters.
	route := cv1.With("GET /x")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(123456)
		// Every vector kind's With on an existing key.
		cv.With("GET /x", "200").Inc()
		cv1.With("GET /x").Inc()
		hv.With("GET /x").Observe(7)
		route.Inc()
	}); n != 0 {
		t.Fatalf("enabled hot path allocates %v allocs/op, want 0", n)
	}
}

// TestConcurrentIncrements hammers one counter, one histogram and one vec
// from many goroutines while snapshots are taken mid-write; run under
// -race this doubles as the data-race proof, and the final totals prove no
// increment was lost.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	h := r.Histogram("h", "")
	cv := r.CounterVec("v", "", "worker")
	const workers = 8
	const perWorker = 2000
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() { // snapshot-during-write
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Snapshot()
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var writeWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			label := string(rune('a' + w))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i))
				cv.With(label).Inc()
			}
		}(w)
	}
	writeWG.Wait()
	close(stop)
	snapWG.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	var sum uint64
	for w := 0; w < workers; w++ {
		sum += cv.With(string(rune('a' + w))).Value()
	}
	if sum != workers*perWorker {
		t.Fatalf("vec sum = %d, want %d", sum, workers*perWorker)
	}
}

// TestVecOverflowCap proves a label-cardinality attack cannot grow the
// registry without bound: past maxVecSeries distinct values everything
// lands in the shared overflow series.
func TestVecOverflowCap(t *testing.T) {
	kinds := []struct {
		name string
		// bump builds the vec on r and returns "bump label i's series".
		bump func(r *Registry) func(i int)
		// overflow is the snapshot key of the overflow series.
		overflow string
	}{
		{"CounterVec", func(r *Registry) func(int) {
			v := r.CounterVec("denials", "", "tenant")
			return func(i int) { v.With(tenantLabel(i)).Inc() }
		}, `denials{tenant="overflow"}`},
		{"CounterVec2", func(r *Registry) func(int) {
			v := r.CounterVec2("denials", "", "tenant", "route")
			return func(i int) { v.With(tenantLabel(i), "GET /x").Inc() }
		}, `denials{tenant="overflow",route="overflow"}`},
		{"HistogramVec", func(r *Registry) func(int) {
			v := r.HistogramVec("lat", "", "tenant")
			return func(i int) { v.With(tenantLabel(i)).Observe(1) }
		}, `lat{tenant="overflow"}_count`},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			r := NewRegistry()
			bump := k.bump(r)
			for i := 0; i < maxVecSeries*3; i++ {
				bump(i)
			}
			snap := r.Snapshot()
			if len(snap.Counters) > maxVecSeries+1 {
				t.Fatalf("vec grew to %d series, cap is %d + overflow", len(snap.Counters), maxVecSeries)
			}
			if got := snap.Counters[k.overflow]; got != maxVecSeries*2 {
				t.Fatalf("overflow series %s counted %d, want the %d values past the cap", k.overflow, got, maxVecSeries*2)
			}
		})
	}
}

func tenantLabel(i int) string { return "tenant-" + string(rune('0'+i%10)) + string(rune('a'+i/10)) }

// TestSnapshotContents checks the report-embedding shape: counters by
// value, histograms as _count/_sum entries, gauge callbacks as floats.
func TestSnapshotContents(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs", "").Add(3)
	r.GaugeFunc("depth", "", func() float64 { return -2 })
	r.GaugeFunc("sessions", "", func() float64 { return 4.5 })
	h := r.Histogram("lat", "")
	h.Observe(10)
	h.Observe(20)
	snap := r.Snapshot()
	if snap.Counters["reqs"] != 3 {
		t.Fatalf("reqs = %d", snap.Counters["reqs"])
	}
	if snap.Counters["lat_count"] != 2 {
		t.Fatalf("lat_count = %d", snap.Counters["lat_count"])
	}
	if snap.Gauges["lat_sum"] != 30 {
		t.Fatalf("lat_sum = %v", snap.Gauges["lat_sum"])
	}
	if snap.Gauges["depth"] != -2 || snap.Gauges["sessions"] != 4.5 {
		t.Fatalf("gauges = %v", snap.Gauges)
	}
}

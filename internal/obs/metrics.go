package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe no-ops so call sites never branch on whether metrics are enabled.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n to the counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histSlots is the number of log-2 buckets: bits.Len64 maps a non-negative
// value v to [0, 64], so 65 slots cover the full int64 range with no bound
// checks on the hot path.
const histSlots = 65

// Histogram is a fixed log-2-bucket histogram for latency-style int64
// values (nanoseconds). Bucket i counts values v with bits.Len64(v) == i,
// i.e. (1<<(i-1)) <= v < (1<<i); bucket 0 counts zeros. Observing costs two
// atomic adds and never allocates.
type Histogram struct {
	counts [histSlots]atomic.Uint64
	sum    atomic.Int64
}

// bucketIndex maps a value to its log-2 bucket. Negative values clamp to
// bucket 0 so a broken clock cannot index out of range.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// Count returns the number of observed values.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// buckets returns a snapshot of the per-bucket counts.
func (h *Histogram) buckets() [histSlots]uint64 {
	var out [histSlots]uint64
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// metricKind tags a registered family for the Prometheus TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// family is the exposition metadata shared by every series of one metric
// name (help text and type).
type family struct {
	help string
	kind metricKind
}

// Registry holds named metrics. Registration takes a lock; the returned
// metric objects are lock-free afterwards. A nil *Registry hands out nil
// metrics from every constructor, so a disabled stack needs no branches.
//
// Series names may carry Prometheus-style labels inline —
// `requests_total{route="GET /healthz"}` — in which case the family is the
// portion before the brace. Registration is idempotent: asking for an
// existing name returns the existing metric.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	counters map[string]*Counter
	gaugeFns map[string]func() float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		counters: make(map[string]*Counter),
		gaugeFns: make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
	}
}

// familyName strips an inline label set from a series name.
func familyName(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i]
		}
	}
	return name
}

// register records family metadata for a series (first registration of a
// family wins). Callers hold r.mu.
func (r *Registry) register(name, help string, kind metricKind) {
	fam := familyName(name)
	if _, ok := r.families[fam]; !ok {
		r.families[fam] = &family{help: help, kind: kind}
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.register(name, help, kindCounter)
	c := &Counter{}
	r.counters[name] = c
	return c
}

// GaugeFunc registers a gauge whose value is computed at scrape time by fn
// (used for values owned by another subsystem, like the gateway's live
// session count). Re-registering a name replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help, kindGauge)
	r.gaugeFns[name] = fn
}

// Histogram returns the named log-bucket histogram, creating it on first
// use.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.register(name, help, kindHistogram)
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// maxVecSeries bounds the number of distinct label values one vec will
// create. Unauthenticated tenants are keyed by remote address, which an
// adversary (or just a NAT) can make unbounded; past the cap all new values
// collapse into the "overflow" series instead of growing the registry
// without limit.
const maxVecSeries = 64

// overflowLabel is the series label used once a vec hits maxVecSeries.
const overflowLabel = "overflow"

// escapeLabel writes a label value with Prometheus escaping (backslash,
// quote and newline).
func escapeLabel(v string) string {
	clean := true
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' || v[i] == '"' || v[i] == '\n' {
			clean = false
			break
		}
	}
	if clean {
		return v
	}
	out := make([]byte, 0, len(v)+8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// seriesName renders name{k1="v1",k2="v2"} for up to two label pairs.
func seriesName(name, k1, v1, k2, v2 string) string {
	s := name + "{" + k1 + "=\"" + escapeLabel(v1) + "\""
	if k2 != "" {
		s += "," + k2 + "=\"" + escapeLabel(v2) + "\""
	}
	return s + "}"
}

// keyedVec is the one routine behind every labelled family: a series per
// key, created through create on first use. The fast path (an existing key)
// is one RLock'd map hit with no allocations; past maxVecSeries distinct
// keys every new key resolves to the shared overflow series.
type keyedVec[K comparable, M any] struct {
	mu       sync.RWMutex
	m        map[K]*M
	overflow K
	create   func(K) *M
}

func newKeyedVec[K comparable, M any](overflow K, create func(K) *M) keyedVec[K, M] {
	return keyedVec[K, M]{m: make(map[K]*M), overflow: overflow, create: create}
}

func (v *keyedVec[K, M]) with(k K) *M {
	v.mu.RLock()
	s := v.m[k]
	v.mu.RUnlock()
	if s != nil {
		return s
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if s := v.m[k]; s != nil {
		return s
	}
	if len(v.m) >= maxVecSeries {
		k = v.overflow
		if s := v.m[k]; s != nil {
			return s
		}
	}
	s = v.create(k)
	v.m[k] = s
	return s
}

// CounterVec is a family of counters keyed by one label value.
type CounterVec struct{ keyedVec[string, Counter] }

// CounterVec returns a one-label counter family.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{newKeyedVec(overflowLabel, func(val string) *Counter {
		return r.Counter(seriesName(name, labelKey, val, "", ""), help)
	})}
}

// With returns the counter for one label value, creating (and registering)
// it on first use. Past maxVecSeries distinct values it returns the shared
// overflow counter.
func (v *CounterVec) With(val string) *Counter {
	if v == nil {
		return nil
	}
	return v.with(val)
}

// vecKey2 is the comparable composite key of a two-label vec; using an
// array key keeps the enabled fast path allocation-free.
type vecKey2 [2]string

// CounterVec2 is a family of counters keyed by two label values.
type CounterVec2 struct{ keyedVec[vecKey2, Counter] }

// CounterVec2 returns a two-label counter family.
func (r *Registry) CounterVec2(name, help, key1, key2 string) *CounterVec2 {
	if r == nil {
		return nil
	}
	return &CounterVec2{newKeyedVec(vecKey2{overflowLabel, overflowLabel}, func(k vecKey2) *Counter {
		return r.Counter(seriesName(name, key1, k[0], key2, k[1]), help)
	})}
}

// With returns the counter for one (v1, v2) label pair.
func (v *CounterVec2) With(v1, v2 string) *Counter {
	if v == nil {
		return nil
	}
	return v.with(vecKey2{v1, v2})
}

// HistogramVec is a family of histograms keyed by one label value.
type HistogramVec struct{ keyedVec[string, Histogram] }

// HistogramVec returns a one-label histogram family.
func (r *Registry) HistogramVec(name, help, labelKey string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{newKeyedVec(overflowLabel, func(val string) *Histogram {
		return r.Histogram(seriesName(name, labelKey, val, "", ""), help)
	})}
}

// With returns the histogram for one label value.
func (v *HistogramVec) With(val string) *Histogram {
	if v == nil {
		return nil
	}
	return v.with(val)
}

// Snapshot is a point-in-time copy of every registered value, embedded into
// session reports and dumped by the CLIs' -obs flag. Histograms contribute
// a <name>_count counter and a <name>_sum gauge entry. JSON encoding of the
// maps is key-sorted, so a marshalled snapshot of deterministic values is
// byte-stable.
type Snapshot struct {
	Counters map[string]uint64  `json:"counters"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

// Snapshot captures the current value of every metric. A nil registry
// yields a zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{Counters: make(map[string]uint64)}
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, h := range r.hists {
		snap.Counters[name+"_count"] = h.Count()
		if snap.Gauges == nil {
			snap.Gauges = make(map[string]float64)
		}
		snap.Gauges[name+"_sum"] = float64(h.Sum())
	}
	if len(r.gaugeFns) > 0 && snap.Gauges == nil {
		snap.Gauges = make(map[string]float64)
	}
	for name, fn := range r.gaugeFns {
		snap.Gauges[name] = fn()
	}
	return snap
}

// sortedKeys returns map keys in sorted order (the exposition and dump
// order, so output is deterministic).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
)

// loadReport is the outcome of one load run — the BENCH_gateway.json
// payload (schema v1).
type loadReport struct {
	Schema   int    `json:"schema"`
	Tool     string `json:"tool"`
	Target   string `json:"target"`
	Clients  int    `json:"clients"`
	Requests int    `json:"requests_per_client"`
	// Total counts issued requests; Errors transport-level failures;
	// Server5xx responses with status >= 500; RateLimited 429 responses (the
	// per-tenant quota denials the gateway also counts in /metrics). Status
	// histograms by code.
	Total       int            `json:"total_requests"`
	Errors      int            `json:"transport_errors"`
	Server5xx   int            `json:"server_5xx"`
	RateLimited int            `json:"rate_limited"`
	Status      map[string]int `json:"status"`
	// ElapsedMs is the wall-clock span of the whole run; ThroughputRPS is
	// Total divided by that span.
	ElapsedMs     float64 `json:"elapsed_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// Latency quantiles over every request, in milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
	// Endpoints breaks the traffic down per profile entry, in profile order.
	Endpoints []endpointStats `json:"endpoints"`
	// failedCreates counts, by status (0 for a transport error), the workers
	// whose create yielded no fleet ID and who therefore served no session.
	// It is what -strict reports; unexported, so schema v1 is unchanged.
	failedCreates map[int]int
}

// endpointStats is one profile entry's slice of the load.
type endpointStats struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	Errors    int     `json:"errors"`
	Server5xx int     `json:"server_5xx"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MaxMs     float64 `json:"max_ms"`
}

// loadProfile is the mixed endpoint schedule: after the fixed create, each
// draw picks report/place/workloads with these weights; the last request of
// a worker is always the delete.
var loadProfile = []struct {
	name   string
	weight int
}{
	{"create", 0}, // fixed first request
	{"place", 3},
	{"workloads", 2},
	{"report", 5},
	{"delete", 0}, // fixed last request
}

// sample is one request's outcome.
type sample struct {
	endpoint  string
	latency   time.Duration
	status    int // 0 on transport error
	transport bool
}

// runLoad hammers cfg.target with the seeded mixed profile — cfg.clients
// concurrent workers, worker i drawing from cfg.seed+i, each issuing
// cfg.requests requests (create fleet → mixed place/workload/report traffic
// → delete fleet) — and aggregates the latency/throughput report.
// Per-request failures (transport errors, 4xx/5xx) are counted, not fatal —
// the report tells the story.
func runLoad(cfg loadCfg) (loadReport, error) {
	if cfg.target == "" {
		return loadReport{}, fmt.Errorf("load target URL is required")
	}
	if cfg.clients < 1 || cfg.requests < 1 {
		return loadReport{}, fmt.Errorf("load needs >= 1 client and >= 1 request, got %d x %d", cfg.clients, cfg.requests)
	}
	if cfg.requests < 2 {
		return loadReport{}, fmt.Errorf("each client needs >= 2 requests (create + delete), got %d", cfg.requests)
	}
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.clients}}

	var mu sync.Mutex
	samples := make([]sample, 0, cfg.clients*cfg.requests)
	failedCreates := make(map[int]int)
	start := now()

	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			w := &loadWorker{
				cfg:    cfg,
				client: client,
				rng:    rand.New(rand.NewSource(cfg.seed + int64(worker))),
				now:    now,
			}
			got := w.run()
			mu.Lock()
			samples = append(samples, got...)
			if w.fleetID == "" {
				failedCreates[got[0].status]++
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := now().Sub(start)

	rep := buildReport(cfg, samples, elapsed)
	rep.failedCreates = failedCreates
	return rep, nil
}

// loadWorker is one client's session-scoped request loop.
type loadWorker struct {
	cfg     loadCfg
	client  *http.Client
	rng     *rand.Rand
	now     func() time.Time
	fleetID string
	vms     []string
	samples []sample
}

// placeBody is the load profile's placement: a 1-vCPU VM whose reservation
// exceeds one server's free memory, so successful placements split
// local/remote and later workloads exercise the remote path. The fleet is
// deliberately small (one zombie lending ~1 GiB) — the profile hammers the
// serving path, not the data plane's capacity.
const (
	createBody = `{"racks":1,"servers":3,"mem_gib":2,"workers":1,"zombies_per_rack":1}`
	placeBody  = `{"count":1,"gib":1.25,"vcpus":1}`
)

// run issues the worker's schedule: create, requests-2 mixed draws, delete.
// A create that yields no fleet ID ends the schedule: there is no session to
// address, so the worker issues nothing further.
func (w *loadWorker) run() []sample {
	w.do("create", http.MethodPost, "/v1/fleets", createBody)
	if w.fleetID == "" {
		return w.samples
	}
	for i := 0; i < w.cfg.requests-2; i++ {
		switch w.draw() {
		case "place":
			w.do("place", http.MethodPost, "/v1/fleets/"+w.fleetID+"/vms", placeBody)
		case "workloads":
			if len(w.vms) == 0 {
				// Nothing placed yet: fall back to a placement so the draw
				// still issues exactly one request.
				w.do("place", http.MethodPost, "/v1/fleets/"+w.fleetID+"/vms", placeBody)
				continue
			}
			vm := w.vms[w.rng.Intn(len(w.vms))]
			body := fmt.Sprintf(`{"items":[{"vm":%q,"kind":"micro-benchmark","iterations":1,"seed":%d}]}`, vm, w.rng.Int63n(1000)+1)
			w.do("workloads", http.MethodPost, "/v1/fleets/"+w.fleetID+"/workloads", body)
		default:
			w.do("report", http.MethodGet, "/v1/fleets/"+w.fleetID+"/report", "")
		}
	}
	w.do("delete", http.MethodDelete, "/v1/fleets/"+w.fleetID, "")
	return w.samples
}

// draw picks the next mixed endpoint by profile weight.
func (w *loadWorker) draw() string {
	total := 0
	for _, e := range loadProfile {
		total += e.weight
	}
	n := w.rng.Intn(total)
	for _, e := range loadProfile {
		if e.weight == 0 {
			continue
		}
		if n < e.weight {
			return e.name
		}
		n -= e.weight
	}
	return "report"
}

// do issues one request, records its sample, and harvests the fleet ID and
// VM names from create/place responses.
func (w *loadWorker) do(endpoint, method, path, body string) {
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, w.cfg.target+path, rd)
	if err != nil {
		w.samples = append(w.samples, sample{endpoint: endpoint, transport: true})
		return
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if w.cfg.token != "" {
		req.Header.Set("Authorization", "Bearer "+w.cfg.token)
	}
	start := w.now()
	resp, err := w.client.Do(req)
	if err != nil {
		w.samples = append(w.samples, sample{endpoint: endpoint, latency: w.now().Sub(start), transport: true})
		return
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	w.samples = append(w.samples, sample{endpoint: endpoint, latency: w.now().Sub(start), status: resp.StatusCode})

	switch endpoint {
	case "create":
		var cr struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(payload, &cr) == nil && cr.ID != "" {
			w.fleetID = cr.ID
		}
	case "place":
		var pr struct {
			Placements []struct {
				VM    string `json:"vm"`
				Error string `json:"error"`
			} `json:"placements"`
		}
		if json.Unmarshal(payload, &pr) == nil {
			for _, p := range pr.Placements {
				if p.Error == "" {
					w.vms = append(w.vms, p.VM)
				}
			}
		}
	}
}

// buildReport aggregates the samples into the schema-v1 report.
func buildReport(cfg loadCfg, samples []sample, elapsed time.Duration) loadReport {
	rep := loadReport{
		Schema:    1,
		Tool:      "fleetload",
		Target:    cfg.target,
		Clients:   cfg.clients,
		Requests:  cfg.requests,
		Total:     len(samples),
		Status:    make(map[string]int),
		ElapsedMs: float64(elapsed) / float64(time.Millisecond),
	}
	if elapsed > 0 {
		rep.ThroughputRPS = float64(len(samples)) / elapsed.Seconds()
	}

	all := make([]time.Duration, 0, len(samples))
	byEndpoint := make(map[string][]time.Duration)
	errsBy := make(map[string]int)
	fiveby := make(map[string]int)
	for _, s := range samples {
		if s.transport {
			rep.Errors++
			errsBy[s.endpoint]++
			continue
		}
		rep.Status[strconv.Itoa(s.status)]++
		if s.status >= 500 {
			rep.Server5xx++
			fiveby[s.endpoint]++
		}
		if s.status == http.StatusTooManyRequests {
			rep.RateLimited++
		}
		all = append(all, s.latency)
		byEndpoint[s.endpoint] = append(byEndpoint[s.endpoint], s.latency)
	}
	rep.P50Ms, rep.P99Ms, rep.MaxMs = quantilesMs(all)
	for _, e := range loadProfile {
		lats := byEndpoint[e.name]
		if len(lats) == 0 && errsBy[e.name] == 0 {
			continue
		}
		st := endpointStats{Name: e.name, Count: len(lats) + errsBy[e.name], Errors: errsBy[e.name], Server5xx: fiveby[e.name]}
		st.P50Ms, st.P99Ms, st.MaxMs = quantilesMs(lats)
		rep.Endpoints = append(rep.Endpoints, st)
	}
	return rep
}

// quantilesMs returns the nearest-rank p50/p99 and the max, in milliseconds.
// The rank selection is the shared metrics.NearestRank helper — the same
// convention membench's latency line quotes.
func quantilesMs(lats []time.Duration) (p50, p99, maxMs float64) {
	if len(lats) == 0 {
		return 0, 0, 0
	}
	sorted := make([]int64, len(lats))
	for i, d := range lats {
		sorted[i] = int64(d)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	ms := func(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
	return ms(metrics.NearestRank(sorted, 50)), ms(metrics.NearestRank(sorted, 99)), ms(sorted[len(sorted)-1])
}

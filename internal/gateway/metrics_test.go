package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// scrape fetches /metrics and returns the parsed sample lines
// (series -> value), skipping comments.
func scrape(t *testing.T, ts *httptest.Server, token string) map[string]float64 {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	out := make(map[string]float64)
	sc := newLineScanner(t, resp)
	for _, line := range sc {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:idx]] = v
	}
	return out
}

func newLineScanner(t *testing.T, resp *http.Response) []string {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(body), "\n")
}

// TestMetricsSelfConsistent drives a known request mix through a live
// gateway and asserts the acceptance invariant: per-route counters sum to
// the requests issued, and each route's latency histogram count equals its
// request counter.
func TestMetricsSelfConsistent(t *testing.T) {
	const token = "tkn"
	srv := New(Config{Token: token})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	issued := 0
	do := func(method, path, body string, want int) {
		t.Helper()
		status, respBody := doJSON(t, method, ts.URL+path, token, body)
		if status != want {
			t.Fatalf("%s %s = %d (%s), want %d", method, path, status, respBody, want)
		}
		issued++
	}
	do(http.MethodPost, "/v1/fleets", `{"racks":2,"servers":2}`, http.StatusCreated)
	do(http.MethodGet, "/v1/fleets", "", http.StatusOK)
	do(http.MethodPost, "/v1/fleets/f-1/vms", `{"count":2,"gib":4}`, http.StatusOK)
	do(http.MethodGet, "/v1/fleets/f-1/report", "", http.StatusOK)
	do(http.MethodGet, "/v1/fleets/nope/report", "", http.StatusNotFound)
	do(http.MethodDelete, "/v1/fleets/f-1", "", http.StatusNoContent)
	// One unauthenticated request: counted under "unrouted" since auth
	// rejects it before the mux matches.
	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/fleets", "", ""); status != http.StatusUnauthorized {
		t.Fatalf("unauthenticated = %d, want 401", status)
	}
	issued++

	samples := scrape(t, ts, token)
	var counted float64
	routeTotals := make(map[string]float64)
	for series, v := range samples {
		if name, rest, ok := strings.Cut(series, "{"); ok && name == "fleetd_http_requests_total" {
			counted += v
			route, _, _ := strings.Cut(strings.TrimPrefix(rest, `route="`), `",`)
			routeTotals[route] += v
		}
	}
	if counted != float64(issued) {
		t.Fatalf("request counters sum to %v, issued %d", counted, issued)
	}
	if routeTotals["unrouted"] != 1 {
		t.Fatalf("unrouted = %v, want 1 (the 401)", routeTotals["unrouted"])
	}
	for route, total := range routeTotals {
		histCount, ok := samples[fmt.Sprintf("fleetd_http_request_duration_ns_count{route=%q}", route)]
		if !ok {
			t.Fatalf("no latency histogram for route %q", route)
		}
		if histCount != total {
			t.Fatalf("route %q: histogram count %v != request counter %v", route, histCount, total)
		}
	}
	if samples["fleetd_sessions"] != 0 {
		t.Fatalf("fleetd_sessions = %v after delete, want 0", samples["fleetd_sessions"])
	}
}

// TestSessionGauges checks the scrape-time gauges against live sessions.
func TestSessionGauges(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/fleets", "",
		`{"racks":2,"servers":4,"zombies_per_rack":1}`); status != http.StatusCreated {
		t.Fatalf("create = %d", status)
	}
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/fleets/f-1/vms",
		"", `{"count":3,"gib":4}`); status != http.StatusOK {
		t.Fatalf("vms = %d", status)
	}
	samples := scrape(t, ts, "")
	if samples["fleetd_sessions"] != 1 {
		t.Fatalf("fleetd_sessions = %v, want 1", samples["fleetd_sessions"])
	}
	if samples["fleetd_vms_placed"] != 3 {
		t.Fatalf("fleetd_vms_placed = %v, want 3", samples["fleetd_vms_placed"])
	}
	if samples["fleetd_remote_memory_gib"] <= 0 {
		t.Fatalf("fleetd_remote_memory_gib = %v, want > 0 (one zombie per rack)", samples["fleetd_remote_memory_gib"])
	}
	// Lending costs nothing until bytes are stored: the gauge is present and
	// zero now, and moves once a data-plane workload writes pages.
	if v, ok := samples["fleetd_resident_bytes"]; !ok || v != 0 {
		t.Fatalf("fleetd_resident_bytes = %v (present %v), want 0 before any data-plane write", v, ok)
	}
	if status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/fleets/f-1/workloads", "",
		`{"items":[{"vm":"f-1-vm-0","kind":"spark-sql","iterations":1,"seed":7,"data_mib":4}]}`); status != http.StatusOK || strings.Contains(body, `"error"`) {
		t.Fatalf("data workload = %d: %s", status, body)
	}
	resident := scrape(t, ts, "")["fleetd_resident_bytes"]
	if resident <= 0 || resident > 64<<20 {
		t.Fatalf("fleetd_resident_bytes = %v after a 4 MiB data workload, want in (0, 64 MiB]", resident)
	}
}

// TestQuotaDenialCounter checks satellite 3: 429s show up per tenant in
// /metrics, and the scrape itself is quota-exempt so it still works while
// the tenant is throttled.
func TestQuotaDenialCounter(t *testing.T) {
	const token = "tenant-a"
	clock := time.Now()
	srv := New(Config{Token: token, QuotaLimit: 2, QuotaWindow: time.Second,
		now: func() time.Time { return clock }})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 5; i++ {
		doJSON(t, http.MethodGet, ts.URL+"/v1/fleets", token, "")
	}
	samples := scrape(t, ts, token)
	key := fmt.Sprintf("fleetd_quota_denials_total{tenant=%q}", token)
	if samples[key] != 3 {
		t.Fatalf("%s = %v, want 3 (5 issued, budget 2)", key, samples[key])
	}
	if samples[`fleetd_http_requests_total{route="unrouted",status="429"}`] != 3 {
		t.Fatalf("429s not counted in the request counters: %v", samples)
	}
}

// TestPprofGating checks the flag: /debug/pprof/* is absent by default and
// mounted (behind auth) with EnablePprof.
func TestPprofGating(t *testing.T) {
	off := New(Config{})
	defer off.Close()
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	if status, _ := doJSON(t, http.MethodGet, tsOff.URL+"/debug/pprof/cmdline", "", ""); status != http.StatusNotFound {
		t.Fatalf("pprof without flag = %d, want 404", status)
	}

	on := New(Config{Token: "t", EnablePprof: true})
	defer on.Close()
	tsOn := httptest.NewServer(on.Handler())
	defer tsOn.Close()
	if status, _ := doJSON(t, http.MethodGet, tsOn.URL+"/debug/pprof/cmdline", "", ""); status != http.StatusUnauthorized {
		t.Fatalf("pprof without token = %d, want 401", status)
	}
	if status, _ := doJSON(t, http.MethodGet, tsOn.URL+"/debug/pprof/cmdline", "t", ""); status != http.StatusOK {
		t.Fatalf("pprof with token = %d, want 200", status)
	}
}

// capturedHandler is the injectable slog.Handler of the logging satellite:
// it records every slog.Record it receives.
type capturedHandler struct {
	mu      sync.Mutex
	records []map[string]string
}

func (h *capturedHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *capturedHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *capturedHandler) WithGroup(string) slog.Handler            { return h }
func (h *capturedHandler) Handle(_ context.Context, r slog.Record) error {
	rec := map[string]string{"msg": r.Message}
	r.Attrs(func(a slog.Attr) bool {
		rec[a.Key] = a.Value.String()
		return true
	})
	h.mu.Lock()
	h.records = append(h.records, rec)
	h.mu.Unlock()
	return nil
}

// TestStructuredRequestLog pins the slog migration via a captured handler:
// one "request" record per request with method, path and status attrs, and
// a panic produces a "panic" record with the stack.
func TestStructuredRequestLog(t *testing.T) {
	h := &capturedHandler{}
	srv := New(Config{LogHandler: h})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", "", ""); status != http.StatusOK {
		t.Fatal("healthz failed")
	}
	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/fleets/zzz/report", "", ""); status != http.StatusNotFound {
		t.Fatal("expected 404")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.records) != 2 {
		t.Fatalf("got %d records, want 2: %v", len(h.records), h.records)
	}
	first, second := h.records[0], h.records[1]
	if first["msg"] != "request" || first["method"] != "GET" || first["path"] != "/healthz" || first["status"] != "200" {
		t.Fatalf("healthz record = %v", first)
	}
	if second["status"] != "404" || second["path"] != "/v1/fleets/zzz/report" {
		t.Fatalf("404 record = %v", second)
	}
	if first["duration"] == "" {
		t.Fatalf("no duration attr: %v", first)
	}
}

// TestReportEmbedsMetrics checks that the session report carries the
// metrics snapshot.
func TestReportEmbedsMetrics(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/fleets", "", `{"racks":1,"servers":2}`); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	_, body := doJSON(t, http.MethodGet, ts.URL+"/v1/fleets/f-1/report", "", "")
	var resp struct {
		Metrics struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, body)
	}
	if resp.Metrics.Counters[`fleetd_http_requests_total{route="POST /v1/fleets",status="201"}`] != 1 {
		t.Fatalf("snapshot missing the create counter: %v", resp.Metrics.Counters)
	}
}

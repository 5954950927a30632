package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gateway"
)

// newTestGateway serves a real gateway on an httptest listener for the
// test's lifetime.
func newTestGateway(t *testing.T, cfg gateway.Config) *httptest.Server {
	t.Helper()
	srv := gateway.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// TestRunLoadAgainstGateway drives the seeded profile against a real
// in-process gateway and checks the report invariants: every request
// accounted, zero transport errors and 5xx, the fixed create/delete
// bookends, and non-zero latency quantiles.
func TestRunLoadAgainstGateway(t *testing.T) {
	ts := newTestGateway(t, gateway.Config{})
	const clients, requests = 3, 40
	rep, err := runLoad(loadCfg{target: ts.URL, clients: clients, requests: requests, seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != 1 || rep.Tool != "fleetload" {
		t.Fatalf("report header = schema %d tool %q", rep.Schema, rep.Tool)
	}
	if rep.Total != clients*requests {
		t.Fatalf("total = %d, want %d", rep.Total, clients*requests)
	}
	if rep.Errors != 0 || rep.Server5xx != 0 {
		t.Fatalf("clean gateway produced %d transport errors, %d 5xx", rep.Errors, rep.Server5xx)
	}
	if rep.P99Ms <= 0 || rep.MaxMs < rep.P99Ms || rep.P99Ms < rep.P50Ms {
		t.Fatalf("quantiles out of order: p50 %v p99 %v max %v", rep.P50Ms, rep.P99Ms, rep.MaxMs)
	}
	byName := map[string]endpointStats{}
	for _, e := range rep.Endpoints {
		byName[e.Name] = e
	}
	if byName["create"].Count != clients || byName["delete"].Count != clients {
		t.Fatalf("bookends: create %d, delete %d, want %d each", byName["create"].Count, byName["delete"].Count, clients)
	}
	mixed := byName["place"].Count + byName["workloads"].Count + byName["report"].Count
	if mixed != clients*(requests-2) {
		t.Fatalf("mixed draws = %d, want %d", mixed, clients*(requests-2))
	}
}

// TestRunLoadDeterministic pins that the same seed yields the same request
// mix (the latency side is pinned by the CLI golden test).
func TestRunLoadDeterministic(t *testing.T) {
	ts := newTestGateway(t, gateway.Config{})
	mix := func() map[string]int {
		rep, err := runLoad(loadCfg{target: ts.URL, clients: 2, requests: 30, seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]int{}
		for _, e := range rep.Endpoints {
			m[e.Name] = e.Count
		}
		return m
	}
	a := mix()
	b := mix()
	for name, n := range a {
		if b[name] != n {
			t.Fatalf("endpoint %s: %d then %d requests from the same seed", name, n, b[name])
		}
	}
}

// TestRunLoadCounts5xx points the profile at a backend that opens a session
// and then fails every request on it, and checks the 5xx accounting (the
// strict-mode signal).
func TestRunLoadCounts5xx(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/fleets" {
			w.WriteHeader(http.StatusCreated)
			_, _ = w.Write([]byte(`{"id":"f1"}`)) // a short write fails the count below
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	rep, err := runLoad(loadCfg{target: ts.URL, clients: 1, requests: 5, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 5 || rep.Server5xx != 4 || rep.Status["500"] != 4 {
		t.Fatalf("5xx accounting: total %d, server_5xx %d, status[500] %d, want 5, 4 and 4", rep.Total, rep.Server5xx, rep.Status["500"])
	}
}

// TestFleetloadStrictFailsOnFailedCreates presents a wrong token to a
// token-guarded gateway: every create bounces with 401, so each client must
// stop there (nothing may be sent to /v1/fleets//…) and -strict must fail
// with the count and status instead of reporting a clean run.
func TestFleetloadStrictFailsOnFailedCreates(t *testing.T) {
	srv := gateway.New(gateway.Config{Token: "good"})
	defer srv.Close()
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	const clients = 2
	var buf bytes.Buffer
	err := run(&buf, loadCfg{target: ts.URL, token: "bad", clients: clients, requests: 20, seed: 1, strict: true})
	if got := served.Load(); got != clients {
		t.Errorf("gateway saw %d requests, want %d (one failed create per client)", got, clients)
	}
	want := "strict: 2 of 2 session creates yielded no fleet ID"
	if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "401:2") {
		t.Fatalf("run = %v, want error containing %q and the 401 count\n%s", err, want, buf.String())
	}
}

// TestRunLoadCounts429 throttles the gateway to a one-request-per-window
// quota and checks the rate-limited accounting: everything past the first
// request bounces with 429, and the report counts every bounce.
func TestRunLoadCounts429(t *testing.T) {
	ts := newTestGateway(t, gateway.Config{QuotaLimit: 1, QuotaWindow: time.Hour})
	const requests = 8
	rep, err := runLoad(loadCfg{target: ts.URL, clients: 1, requests: requests, seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RateLimited != requests-1 {
		t.Fatalf("rate_limited = %d, want %d (quota of 1 per window)", rep.RateLimited, requests-1)
	}
	if rep.Status["429"] != rep.RateLimited {
		t.Fatalf("status[429] = %d, rate_limited = %d — the two counts must agree", rep.Status["429"], rep.RateLimited)
	}
	if rep.Server5xx != 0 {
		t.Fatalf("quota denials must not count as 5xx, got %d", rep.Server5xx)
	}
}

// TestRunLoadValidation pins the config errors.
func TestRunLoadValidation(t *testing.T) {
	if _, err := runLoad(loadCfg{}); err == nil {
		t.Fatal("missing target accepted")
	}
	if _, err := runLoad(loadCfg{target: "http://x", clients: 0, requests: 5}); err == nil {
		t.Fatal("zero clients accepted")
	}
	if _, err := runLoad(loadCfg{target: "http://x", clients: 1, requests: 1}); err == nil {
		t.Fatal("one request accepted (create+delete need two)")
	}
}

// TestRunLoadFakeClock checks the injected clock flows into the latency
// numbers: a stepping clock makes every request cost exactly 3 steps of
// bookkeeping, so the quantiles are exact.
func TestRunLoadFakeClock(t *testing.T) {
	ts := newTestGateway(t, gateway.Config{})
	rep, err := runLoad(loadCfg{target: ts.URL, clients: 1, requests: 10, seed: 4, now: steppingNow(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	// Each request reads the clock twice (start/stop), one step apart.
	if rep.P50Ms != 1 || rep.P99Ms != 1 || rep.MaxMs != 1 {
		t.Fatalf("stepping clock quantiles = p50 %v p99 %v max %v, want all 1", rep.P50Ms, rep.P99Ms, rep.MaxMs)
	}
	if rep.ElapsedMs <= 0 {
		t.Fatalf("elapsed = %v, want > 0", rep.ElapsedMs)
	}
}

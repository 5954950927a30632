package gateway

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// gwMetrics bundles the gateway's serving metrics: per-route/per-status
// request counters, per-route latency histograms and per-tenant
// quota-denial counters. All methods are nil-safe so the middleware helpers
// stay testable without a registry.
type gwMetrics struct {
	requests *obs.CounterVec2
	latency  *obs.HistogramVec
	denials  *obs.CounterVec
}

// newGWMetrics registers the serving metrics on reg.
func newGWMetrics(reg *obs.Registry) *gwMetrics {
	return &gwMetrics{
		requests: reg.CounterVec2("fleetd_http_requests_total",
			"HTTP requests served, by route pattern and status code", "route", "status"),
		latency: reg.HistogramVec("fleetd_http_request_duration_ns",
			"HTTP request latency in nanoseconds, by route pattern", "route"),
		denials: reg.CounterVec("fleetd_quota_denials_total",
			"requests rejected with 429 by the per-tenant quota", "tenant"),
	}
}

// record counts one finished request. The route is the mux pattern that
// served it ("POST /v1/fleets"); requests rejected before routing (401,
// 429) carry the "unrouted" label.
func (m *gwMetrics) record(route string, status int, d time.Duration) {
	if m == nil {
		return
	}
	m.requests.With(route, statusLabel(status)).Inc()
	m.latency.With(route).Observe(int64(d))
}

// denied counts one quota rejection for a tenant.
func (m *gwMetrics) denied(tenant string) {
	if m == nil {
		return
	}
	m.denials.With(tenant).Inc()
}

// statusLabel renders a status code as its metric label without allocating
// for the codes the gateway actually serves.
func statusLabel(code int) string {
	switch code {
	case http.StatusOK:
		return "200"
	case http.StatusCreated:
		return "201"
	case http.StatusNoContent:
		return "204"
	case http.StatusBadRequest:
		return "400"
	case http.StatusUnauthorized:
		return "401"
	case http.StatusNotFound:
		return "404"
	case http.StatusConflict:
		return "409"
	case http.StatusTooManyRequests:
		return "429"
	case http.StatusInternalServerError:
		return "500"
	}
	return strconv.Itoa(code)
}

// registerSessionGauges exposes the live per-session aggregates — session
// count, placed VMs, running autopilot loops, the fleet-wide remote memory
// pool and the host memory behind it — as scrape-time gauges over the manager.
func registerSessionGauges(reg *obs.Registry, m *Manager) {
	reg.GaugeFunc("fleetd_sessions", "live gateway sessions", func() float64 {
		t := m.Totals()
		return float64(t.Sessions)
	})
	reg.GaugeFunc("fleetd_vms_placed", "VMs placed across live sessions", func() float64 {
		t := m.Totals()
		return float64(t.PlacedVMs)
	})
	reg.GaugeFunc("fleetd_autopilot_runs_active", "autopilot runs currently in flight", func() float64 {
		t := m.Totals()
		return float64(t.AutopilotActive)
	})
	reg.GaugeFunc("fleetd_remote_memory_gib", "free remote (zombie) memory across live fleets in GiB", func() float64 {
		t := m.Totals()
		return float64(t.RemoteBytes) / float64(1<<30)
	})
	reg.GaugeFunc("fleetd_resident_bytes", "host memory materialised under the simulated DRAM of live sessions", func() float64 {
		return float64(m.ResidentBytes())
	})
}

// handleMetrics serves GET /metrics as Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

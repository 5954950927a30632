// Command fleetd serves the zombieland control plane as a long-running HTTP
// service: create fleets, place VMs, replay workloads through the data
// plane, run autopilot loops with streamed tick telemetry, apply chaos
// scenarios and scrape savings/regret reports — concurrent isolated
// sessions behind a logging/recovery/auth/rate-limit middleware stack.
//
// Usage:
//
//	fleetd                                     # serve on :8870, no auth, no quota
//	fleetd -addr 127.0.0.1:9000 -token secret  # bearer auth
//	fleetd -quota 50 -quota-window 1           # 50 requests/tenant/second (429 beyond)
//	fleetd -ttl 900                            # evict sessions idle > 15 min
//	fleetd -pprof                              # mount /debug/pprof/* (behind auth)
//
// GET /metrics serves Prometheus text exposition: per-route request counters
// and latency histograms, per-tenant quota denials, and live session gauges.
// SIGTERM or SIGINT drains in-flight requests (bounded) and exits 0.
//
// Quickstart (see README.md for the full transcript):
//
//	curl -s -XPOST localhost:8870/v1/fleets -d '{"racks":2,"servers":4,"zombies_per_rack":1}'
//	curl -s -XPOST localhost:8870/v1/fleets/f-1/vms -d '{"count":2,"gib":24}'
//	curl -s -XPOST localhost:8870/v1/fleets/f-1/autopilot -d '{}'
//	curl -sN  localhost:8870/v1/fleets/f-1/autopilot/events
//	curl -s   localhost:8870/v1/fleets/f-1/report
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	zombieland "repro"
	"repro/internal/cliflag"
)

// No WriteTimeout: GET .../autopilot/events streams NDJSON for a whole run.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second // request bodies are capped at 1 MiB
	idleTimeout       = 2 * time.Minute
	drainTimeout      = 10 * time.Second // SIGTERM's wait for in-flight requests
)

func main() {
	addr := flag.String("addr", ":8870", "listen address")
	token := flag.String("token", "", "bearer token every request must present (empty disables auth)")
	quota := flag.Int("quota", 0, "per-tenant request budget per quota window (0 disables rate limiting)")
	quotaWindow := flag.Int("quota-window", 1, "quota window in seconds")
	ttl := flag.Int("ttl", 0, "evict sessions idle longer than this many seconds (0 disables)")
	maxSessions := flag.Int("max-sessions", 64, "maximum live sessions")
	maxServers := flag.Int("max-servers", 256, "maximum racks*servers per created fleet")
	pprofOn := flag.Bool("pprof", false, "mount /debug/pprof/* profiling endpoints (behind auth)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err == nil {
		err = run(ctx, ln, *token, *quota, *quotaWindow, *ttl, *maxSessions, *maxServers, *pprofOn)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		os.Exit(1)
	}
}

// run serves the gateway on ln, which it owns, until ctx is cancelled, then
// drains: Shutdown waits up to drainTimeout for in-flight requests, Close
// drops the rest, and the gateway's evictor stops last.
func run(ctx context.Context, ln net.Listener, token string, quota, quotaWindow, ttl, maxSessions, maxServers int, pprofOn bool) error {
	defer ln.Close() // a second close after Shutdown's is harmless
	// Upfront flag validation with the valid ranges (shared helpers, the
	// same messages as fleetsim/onlinesim), before any server state exists.
	if err := cliflag.FirstError(
		cliflag.NonNegativeInt("-quota", quota),
		cliflag.PositiveInt("-quota-window", quotaWindow),
		cliflag.NonNegativeInt("-ttl", ttl),
		cliflag.PositiveInt("-max-sessions", maxSessions),
		cliflag.PositiveInt("-max-servers", maxServers),
	); err != nil {
		return err
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv := zombieland.NewGateway(zombieland.GatewayConfig{
		Token:       token,
		QuotaLimit:  quota,
		QuotaWindow: time.Duration(quotaWindow) * time.Second,
		SessionTTL:  time.Duration(ttl) * time.Second,
		MaxSessions: maxSessions,
		MaxServers:  maxServers,
		LogHandler:  logger.Handler(),
		EnablePprof: pprofOn,
	})
	defer srv.Close()
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout: readTimeout, IdleTimeout: idleTimeout}
	logger.Info("serving", "addr", ln.Addr().String(), "auth", token != "",
		"quota", quota, "quota_window_s", quotaWindow, "ttl_s", ttl, "pprof", pprofOn)
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	logger.Info("draining", "bound", drainTimeout)
	drain, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(drain); err != nil {
		logger.Warn("drain bound reached; closing the remaining connections", "err", err)
	}
	hs.Close()
	<-served // Serve returns as soon as Shutdown starts
	return nil
}

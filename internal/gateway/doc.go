// Package gateway is the serving layer: a long-running HTTP control-plane
// front end ("zombieland as a service") that exposes the whole stack — fleet
// construction, VM placement, workload replay through the data plane, the
// online autopilot loop with streamed tick telemetry, chaos scenarios and
// the savings/regret/resilience report — to concurrent tenants over JSON.
//
// # Architecture
//
//	client ──► middleware stack ──► mux ──► handlers ──► Manager ──► Session ──► fleet.Fleet
//	           (logging, panic              (net/http                │            autopilot run
//	            recovery, bearer             method+path             └─ RW-mutexed registry,
//	            auth, quota cache)           patterns)                  idle-TTL evictor
//
// A Manager owns the session registry: one Session per created fleet, each
// fully isolated (its own fleet.Fleet, placements, chaos plan and autopilot
// run), guarded by a RW-mutexed map and evicted after an idle TTL by a
// background evictor. Handlers never share mutable state outside the
// Manager, so N tenants drive N fleets concurrently through one mux
// (pinned by TestGatewayConcurrentSessions under -race).
//
// The middleware stack wraps every route: request logging, panic recovery
// (a handler panic becomes a 500, not a dead server), bearer-token auth
// (401), and per-tenant rate limiting backed by a hot-path quota cache —
// a sync.Map of atomically-packed fixed-window counters, so the limiter
// check is allocation-free on the fast path (pinned by
// TestQuotaCacheFastPathAllocs) and a 429 with Retry-After on overflow.
//
// The autopilot endpoint starts the online control loop in a background
// goroutine; its per-tick telemetry (autopilot.Config.OnTick) is buffered on
// the session and streamed to any number of subscribers as NDJSON — a late
// subscriber replays the buffer, a live one follows the run to its final
// summary line.
//
// The matching load generator lives with its one caller, cmd/fleetload; the
// serving path's performance is measured by benchmark/ (serve_steady,
// session_churn).
package gateway

package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/obs"
)

// Config parameterises a gateway Server.
type Config struct {
	// Token is the bearer token every request must present; empty disables
	// auth (and the quota then keys tenants by remote host).
	Token string
	// QuotaLimit is the per-tenant request budget per QuotaWindow; 0
	// disables rate limiting. QuotaWindow defaults to one second.
	QuotaLimit  int
	QuotaWindow time.Duration
	// SessionTTL evicts sessions idle longer than this; 0 disables
	// eviction. EvictEvery is the evictor scan period (default TTL/4).
	SessionTTL time.Duration
	EvictEvery time.Duration
	// MaxSessions bounds the live-session registry (default 64).
	MaxSessions int
	// MaxServers bounds racks*servers of a created fleet (default 256), so
	// one tenant cannot allocate an unbounded simulated datacenter.
	MaxServers int
	// LogHandler receives the structured request log and panic reports as
	// slog records; nil discards them. Injectable so tests capture records
	// and operators pick their own format.
	LogHandler slog.Handler
	// Metrics is the observability registry /metrics serves; nil means the
	// server builds its own. Injecting one lets an embedding process expose
	// gateway metrics alongside its own.
	Metrics *obs.Registry
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/* (behind
	// auth). Off by default: profiling endpoints are an operator opt-in.
	EnablePprof bool

	// now is the clock seam the tests inject; nil means time.Now.
	now func() time.Time
}

func (c *Config) applyDefaults() {
	if c.QuotaWindow <= 0 {
		c.QuotaWindow = time.Second
	}
	if c.MaxServers <= 0 {
		c.MaxServers = 256
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.LogHandler == nil {
		c.LogHandler = slog.DiscardHandler
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
}

// Server is the assembled gateway: the session manager, the quota cache and
// the routed, middleware-wrapped handler.
type Server struct {
	cfg     Config
	manager *Manager
	quota   *quotaCache
	handler http.Handler
	reg     *obs.Registry
	metrics *gwMetrics
	logger  *slog.Logger
}

// New assembles a gateway from the configuration.
func New(cfg Config) *Server {
	cfg.applyDefaults()
	s := &Server{
		cfg:     cfg,
		manager: NewManager(cfg.SessionTTL, cfg.EvictEvery, cfg.MaxSessions, cfg.now),
		quota:   newQuotaCache(cfg.QuotaLimit, cfg.QuotaWindow, cfg.now),
		reg:     cfg.Metrics,
		logger:  slog.New(cfg.LogHandler),
	}
	s.metrics = newGWMetrics(s.reg)
	registerSessionGauges(s.reg, s.manager)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("POST /v1/fleets", s.handleCreateFleet)
	mux.HandleFunc("GET /v1/fleets", s.handleListFleets)
	mux.HandleFunc("DELETE /v1/fleets/{id}", s.handleDeleteFleet)
	mux.HandleFunc("POST /v1/fleets/{id}/vms", s.handlePlaceVMs)
	mux.HandleFunc("POST /v1/fleets/{id}/workloads", s.handleWorkloads)
	mux.HandleFunc("POST /v1/fleets/{id}/chaos", s.handleChaos)
	mux.HandleFunc("POST /v1/fleets/{id}/autopilot", s.handleAutopilotStart)
	mux.HandleFunc("GET /v1/fleets/{id}/autopilot/events", s.handleAutopilotEvents)
	mux.HandleFunc("GET /v1/fleets/{id}/report", s.handleReport)

	s.handler = chain(mux,
		withLogging(s.logger, cfg.now),
		withRecovery(s.logger),
		withMetrics(s.metrics, cfg.now),
		withAuth(cfg.Token),
		withQuota(s.quota, s.metrics),
	)
	return s
}

// Metrics exposes the observability registry (the embedding process and the
// tests read it back).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Handler returns the routed handler behind the full middleware stack.
func (s *Server) Handler() http.Handler { return s.handler }

// Manager exposes the session registry (the race and eviction tests assert
// against it).
func (s *Server) Manager() *Manager { return s.manager }

// Close stops the background evictor.
func (s *Server) Close() { s.manager.Close() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// session resolves the {id} path value; a miss writes the 404 and returns
// nil.
func (s *Server) session(w http.ResponseWriter, r *http.Request) *Session {
	id := r.PathValue("id")
	sess, ok := s.manager.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown fleet %q", id))
		return nil
	}
	return sess
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is out; a broken pipe is the client's problem
}

// decodeJSON reads a request body into v, rejecting trailing garbage and
// unknown fields — a malformed body is a 400 with the decoder's reason, and
// one past the 1 MiB cap a 413 rather than a truncated parse.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("malformed JSON body: %v", err))
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "malformed JSON body: trailing data")
		return false
	}
	return true
}

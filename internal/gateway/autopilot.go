package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/autopilot"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/trace"
)

// defaultSpec is the shape of a gateway autopilot run before the body
// overrides it: small enough to finish in well under a second, big enough
// for the policies to differentiate.
func defaultSpec() autopilot.Spec {
	return autopilot.Spec{
		Spec:    trace.Spec{Machines: 100, Tasks: 800, HorizonSec: 6 * 3600, Seed: 42},
		Planner: "zombiestack", Policy: "hysteresis", Machine: "hp", TickSec: 300,
	}
}

// admit is the gateway's one check of an autopilot spec: the spec's own
// shape check, then the serving caps (maxAP*) and the refusal of the file
// source, since the daemon reads no client-named paths.
func admit(sp autopilot.Spec) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	ticks := (sp.HorizonSec-1)/sp.TickSec + 1
	switch {
	case sp.File != "":
		return errors.New("file is not served over HTTP (use family or the built-in generator)")
	case sp.Machines > maxAPMachines:
		return trace.OutOfRange("machines", int64(sp.Machines), fmt.Sprintf("1..%d", maxAPMachines))
	case sp.Tasks > maxAPTasks:
		return trace.OutOfRange("tasks", int64(sp.Tasks), fmt.Sprintf("1..%d", maxAPTasks))
	case sp.HorizonSec > maxAPHorizonSec:
		return trace.OutOfRange("horizon_sec", sp.HorizonSec, fmt.Sprintf("1..%d", maxAPHorizonSec))
	case ticks > maxAPTicks:
		return fmt.Errorf("horizon_sec %d at tick_sec %d is %d ticks (need at most %d)", sp.HorizonSec, sp.TickSec, ticks, maxAPTicks)
	}
	return nil
}

// chaosRequest arms the session with a fault scenario: every subsequent
// autopilot run replays under a plan rebuilt from this scenario and seed for
// the run's own horizon and fleet size. The response tallies a preview plan
// built for the given (or default) shape.
type chaosRequest struct {
	Scenario   string `json:"scenario"`
	Seed       int64  `json:"seed"`
	Machines   int    `json:"machines"`
	HorizonSec int64  `json:"horizon_sec"`
}

type chaosResponse struct {
	Scenario string    `json:"scenario"`
	Seed     int64     `json:"seed"`
	Faults   tallyJSON `json:"faults"`
}

type tallyJSON struct {
	Crashes            int `json:"crashes"`
	WakeFailures       int `json:"wake_failures"`
	ControllerLosses   int `json:"controller_losses"`
	FabricDegradations int `json:"fabric_degradations"`
	TraceBursts        int `json:"trace_bursts"`
	Total              int `json:"total"`
}

func (s *Server) handleChaos(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	sp := defaultSpec()
	req := chaosRequest{Scenario: "light", Seed: sp.Seed, Machines: sp.Machines, HorizonSec: sp.HorizonSec}
	if !decodeJSON(w, r, &req) {
		return
	}
	sp.Machines, sp.HorizonSec = req.Machines, req.HorizonSec
	if err := admit(sp); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	plan, err := chaos.Scenario(req.Scenario, req.HorizonSec, req.Machines, req.Seed)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sess.mu.Lock()
	sess.chaosName = req.Scenario
	sess.chaosSeed = req.Seed
	sess.chaosPreview = plan
	sess.mu.Unlock()
	t := plan.Tally()
	writeJSON(w, http.StatusOK, chaosResponse{
		Scenario: req.Scenario,
		Seed:     req.Seed,
		Faults: tallyJSON{
			Crashes:            t.Crashes,
			WakeFailures:       t.WakeFailures,
			ControllerLosses:   t.ControllerLosses,
			FabricDegradations: t.FabricDegradations,
			TraceBursts:        t.TraceBursts,
			Total:              t.Total(),
		},
	})
}

// handleAutopilotStart starts one online control-plane run in the
// background; its tick telemetry streams on GET .../autopilot/events. The
// body is an autopilot.Spec over defaultSpec.
func (s *Server) handleAutopilotStart(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	sp := defaultSpec()
	if !decodeJSON(w, r, &sp) {
		return
	}
	if err := admit(sp); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cfg, err := sp.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	sess.mu.Lock()
	if sess.run != nil {
		sess.run.mu.Lock()
		running := !sess.run.done
		sess.run.mu.Unlock()
		if running {
			sess.mu.Unlock()
			writeError(w, http.StatusConflict, "an autopilot run is already in progress")
			return
		}
	}
	var plan *chaos.Plan
	if sess.chaosName != "" {
		plan, err = chaos.Scenario(sess.chaosName, sp.HorizonSec, sp.Machines, sess.chaosSeed)
		if err != nil {
			sess.mu.Unlock()
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	run := newAutopilotRun(sp.Policy, sp.Planner, !plan.Empty())
	sess.run = run
	sess.mu.Unlock()

	cfg.OnTick = run.append
	go func() {
		if plan != nil {
			chaosR, err := autopilot.RunChaos(cfg, plan)
			run.finish(autopilot.Report{}, chaosR, err)
			return
		}
		report, err := autopilot.Regret(cfg)
		run.finish(report, chaos.Report{}, err)
	}()

	writeJSON(w, http.StatusAccepted, map[string]any{
		"status":   "started",
		"policy":   sp.Policy,
		"planner":  sp.Planner,
		"machines": sp.Machines,
		"tasks":    sp.Tasks,
		"chaos":    run.chaotic,
	})
}

// tickJSON is one NDJSON line of the event stream.
type tickJSON struct {
	Type           string  `json:"type"`
	AtSec          int64   `json:"at_sec"`
	Tick           int     `json:"tick"`
	ActiveHosts    int     `json:"active_hosts"`
	ZombieHosts    int     `json:"zombie_hosts"`
	MemoryServers  int     `json:"memory_servers"`
	SleepHosts     int     `json:"sleep_hosts"`
	RemoteGiB      float64 `json:"remote_gib"`
	Running        int     `json:"running"`
	Arrivals       int     `json:"arrivals"`
	Admitted       int     `json:"admitted"`
	Rejected       int     `json:"rejected"`
	EmergencyWakes int     `json:"emergency_wakes"`
	EnergyJoules   float64 `json:"energy_j"`
	BaselineJoules float64 `json:"baseline_j"`
}

func tickLine(ev autopilot.TickEvent) tickJSON {
	return tickJSON{
		Type:           "tick",
		AtSec:          ev.AtSec,
		Tick:           ev.Tick,
		ActiveHosts:    ev.ActiveHosts,
		ZombieHosts:    ev.ZombieHosts,
		MemoryServers:  ev.MemoryServers,
		SleepHosts:     ev.SleepHosts,
		RemoteGiB:      ev.RemoteMemoryGiB,
		Running:        ev.Running,
		Arrivals:       ev.Arrivals,
		Admitted:       ev.Admitted,
		Rejected:       ev.Rejected,
		EmergencyWakes: ev.EmergencyWakes,
		EnergyJoules:   ev.EnergyJoules,
		BaselineJoules: ev.BaselineJoules,
	}
}

// handleAutopilotEvents streams the run's tick telemetry as NDJSON: the
// buffered events first (a late subscriber replays the whole run), then live
// events as the loop produces them, then one terminal "done" or "error"
// line. Any number of subscribers can follow one run.
func (s *Server) handleAutopilotEvents(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	run := sess.run
	sess.mu.Unlock()
	if run == nil {
		writeError(w, http.StatusNotFound, "no autopilot run on this fleet (POST .../autopilot first)")
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w) // Encode appends the NDJSON newline

	next := 0
	for {
		evs, done, wait := run.snapshot(next)
		for _, ev := range evs {
			if err := enc.Encode(tickLine(ev)); err != nil {
				return // subscriber went away
			}
		}
		next += len(evs)
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		if done {
			_ = enc.Encode(doneLine(run))
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

// doneLine is the stream's terminal line: the regret summary (fault-free
// runs), the resilience summary (chaos runs), or the error.
func doneLine(run *autopilotRun) map[string]any {
	run.mu.Lock()
	defer run.mu.Unlock()
	if run.err != nil {
		return map[string]any{"type": "error", "error": run.err.Error()}
	}
	if run.chaotic {
		cr := run.chaosR
		return map[string]any{
			"type":                      "done",
			"policy":                    cr.Policy,
			"scenario":                  cr.Scenario,
			"saving_percent":            cr.SavingPercent,
			"fault_free_saving_percent": cr.FaultFreeSavingPercent,
			"savings_retained_percent":  cr.SavingsRetainedPercent,
			"resilience_regret_percent": cr.ResilienceRegretPercent,
			"slo_violations":            cr.SLOViolations,
		}
	}
	rep := run.report
	return map[string]any{
		"type":                  "done",
		"policy":                rep.Policy,
		"planner":               rep.Planner,
		"ticks":                 rep.Online.Ticks,
		"online_saving_percent": rep.Online.SavingPercent,
		"oracle_saving_percent": rep.Oracle.SavingPercent,
		"regret_percent":        rep.RegretPercent,
	}
}

// reportResponse is the GET report body: the live fleet's state plus the
// last autopilot run's savings/regret (and resilience, when chaotic), and a
// point-in-time metrics snapshot of the whole gateway.
type reportResponse struct {
	Fleet     fleetReportJSON      `json:"fleet"`
	Autopilot *autopilotReportJSON `json:"autopilot,omitempty"`
	Chaos     *chaosReportJSON     `json:"chaos,omitempty"`
	Metrics   obs.Snapshot         `json:"metrics"`
}

type fleetReportJSON struct {
	Racks        int     `json:"racks"`
	Servers      int     `json:"servers"`
	VMs          int     `json:"vms"`
	RemoteGiB    float64 `json:"remote_gib"`
	EnergyJoules float64 `json:"energy_j"`
	Borrows      int     `json:"borrows"`
}

type autopilotReportJSON struct {
	Running             bool    `json:"running"`
	Policy              string  `json:"policy"`
	Planner             string  `json:"planner"`
	Ticks               int     `json:"ticks,omitempty"`
	OnlineSavingPercent float64 `json:"online_saving_percent,omitempty"`
	OracleSavingPercent float64 `json:"oracle_saving_percent,omitempty"`
	RegretPercent       float64 `json:"regret_percent,omitempty"`
	EmergencyWakes      int     `json:"emergency_wakes,omitempty"`
	Error               string  `json:"error,omitempty"`
}

type chaosReportJSON struct {
	Scenario                string  `json:"scenario"`
	SavingPercent           float64 `json:"saving_percent"`
	FaultFreeSavingPercent  float64 `json:"fault_free_saving_percent"`
	SavingsRetainedPercent  float64 `json:"savings_retained_percent"`
	ResilienceRegretPercent float64 `json:"resilience_regret_percent"`
	SLOViolations           int     `json:"slo_violations"`
	WastedTransitions       int     `json:"wasted_transitions"`
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	f := sess.fleet
	racks, servers, vms := sess.racks, sess.servers, sess.placed
	run := sess.run
	sess.mu.Unlock()

	resp := reportResponse{Fleet: fleetReportJSON{
		Racks:        racks,
		Servers:      servers,
		VMs:          vms,
		RemoteGiB:    float64(f.FreeRemoteMemory()) / float64(1<<30),
		EnergyJoules: f.TotalEnergyJoules(),
		Borrows:      len(f.BorrowLedger()),
	}}
	if run != nil {
		run.mu.Lock()
		ap := &autopilotReportJSON{Running: !run.done, Policy: run.policy, Planner: run.planner}
		if run.done {
			if run.err != nil {
				ap.Error = run.err.Error()
			} else if run.chaotic {
				cr := run.chaosR
				resp.Chaos = &chaosReportJSON{
					Scenario:                cr.Scenario,
					SavingPercent:           cr.SavingPercent,
					FaultFreeSavingPercent:  cr.FaultFreeSavingPercent,
					SavingsRetainedPercent:  cr.SavingsRetainedPercent,
					ResilienceRegretPercent: cr.ResilienceRegretPercent,
					SLOViolations:           cr.SLOViolations,
					WastedTransitions:       cr.WastedTransitions,
				}
				ap.EmergencyWakes = cr.EmergencyWakes
			} else {
				rep := run.report
				ap.Ticks = rep.Online.Ticks
				ap.OnlineSavingPercent = rep.Online.SavingPercent
				ap.OracleSavingPercent = rep.Oracle.SavingPercent
				ap.RegretPercent = rep.RegretPercent
				ap.EmergencyWakes = rep.Online.EmergencyWakes
			}
		}
		run.mu.Unlock()
		resp.Autopilot = ap
	}
	resp.Metrics = s.reg.Snapshot()
	writeJSON(w, http.StatusOK, resp)
}

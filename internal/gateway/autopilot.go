package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/autopilot"
	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Default shape of a gateway autopilot run: small enough to finish in well
// under a second, big enough for the policies to differentiate.
const (
	defaultAPMachines = 100
	defaultAPTasks    = 800
	defaultAPHours    = 6.0
	defaultAPSeed     = 42
	defaultAPTick     = 300
)

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
	req := chaosRequest{Scenario: "light", Seed: defaultAPSeed, Machines: defaultAPMachines,
		HorizonSec: int64(defaultAPHours * 3600)}
	if !decodeJSON(w, r, &req) {
		return
	}
	switch {
	case req.Machines < 1 || req.Machines > maxAPMachines:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("machines %d out of range (need 1..%d)", req.Machines, maxAPMachines))
		return
	case req.HorizonSec < 1 || req.HorizonSec > maxAPHours*3600:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("horizon_sec %d out of range (need 1..%d)", req.HorizonSec, maxAPHours*3600))
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

// autopilotRequest starts one online control-plane run in the background;
// its tick telemetry streams on GET .../autopilot/events.
type autopilotRequest struct {
	Machines int     `json:"machines"`
	Tasks    int     `json:"tasks"`
	Hours    float64 `json:"hours"`
	Seed     int64   `json:"seed"`
	TickSec  int64   `json:"tick_sec"`
	Policy   string  `json:"policy"`
	Planner  string  `json:"planner"`
	Machine  string  `json:"machine"`
	Modified bool    `json:"modified"`
}

func (s *Server) handleAutopilotStart(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	req := autopilotRequest{Machines: defaultAPMachines, Tasks: defaultAPTasks, Hours: defaultAPHours,
		Seed: defaultAPSeed, TickSec: defaultAPTick, Policy: "hysteresis", Planner: "zombiestack", Machine: "hp"}
	if !decodeJSON(w, r, &req) {
		return
	}
	switch {
	case req.Machines < 1 || req.Machines > maxAPMachines:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("machines %d out of range (need 1..%d)", req.Machines, maxAPMachines))
		return
	case req.Tasks < 1 || req.Tasks > maxAPTasks:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("tasks %d out of range (need 1..%d)", req.Tasks, maxAPTasks))
		return
	case !(req.Hours > 0 && req.Hours <= maxAPHours):
		writeError(w, http.StatusBadRequest, fmt.Sprintf("hours %g out of range (need more than 0, at most %d)", req.Hours, maxAPHours))
		return
	case req.TickSec < 1:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("tick_sec %d out of range (need >= 1)", req.TickSec))
		return
	case req.Hours*3600/float64(req.TickSec) > maxAPTicks:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("hours %g at tick_sec %d is %.0f ticks (need at most %d)",
			req.Hours, req.TickSec, req.Hours*3600/float64(req.TickSec), maxAPTicks))
		return
	}
	base, err := consolidation.PolicyByName(req.Planner)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	policy, err := autopilot.PolicyByName(req.Policy, base)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	profile, err := energy.ProfileByName(req.Machine)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	gc := trace.DefaultConfig()
	if req.Modified {
		gc = trace.ModifiedConfig()
	}
	gc.Machines = req.Machines
	gc.Tasks = req.Tasks
	gc.HorizonSec = int64(req.Hours * 3600)
	gc.Seed = req.Seed
	tr, err := trace.Generate(gc)
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
		plan, err = chaos.Scenario(sess.chaosName, gc.HorizonSec, gc.Machines, sess.chaosSeed)
		if err != nil {
			sess.mu.Unlock()
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	run := newAutopilotRun(req.Policy, req.Planner, !plan.Empty())
	sess.run = run
	sess.mu.Unlock()

	cfg := autopilot.Config{
		Trace:      tr,
		Policy:     policy,
		Machine:    profile,
		ServerSpec: consolidation.DefaultServerSpec(),
		TickSec:    req.TickSec,
		OnTick:     run.append,
	}
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
		"policy":   req.Policy,
		"planner":  req.Planner,
		"machines": req.Machines,
		"tasks":    req.Tasks,
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

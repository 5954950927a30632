package autopilot

import (
	"repro/internal/consolidation"
	"repro/internal/dcsim"
	"repro/internal/obs"
)

// apObs is the resolved observability handle of one run: every counter is
// looked up once when the loop starts, and every emission helper is nil-safe
// on the receiver, so a run without Config.Obs pays a single pointer test per
// site and allocates nothing. The helpers also keep the obs package out of
// the loop's own files — tick() has a local variable named obs (the policy
// Observation) that would shadow the package there.
//
// All events are stamped with the loop's own simulated clock (EmitAt with
// the event instant in seconds), never wall time: the loop is strictly
// sequential, so the exported trace is byte-identical across runs for any
// Workers value.
type apObs struct {
	trace *obs.Trace

	ticks          *obs.Counter
	arrivals       *obs.Counter
	admitted       *obs.Counter
	rejected       *obs.Counter
	departures     *obs.Counter
	emergencyWakes *obs.Counter
	transitions    *obs.Counter
	migrations     *obs.Counter
	chaosFaults    *obs.Counter
	chaosRepairs   *obs.Counter
}

// newAPObs resolves the bundle's counters, or returns nil when the run is
// unobserved.
func newAPObs(o *obs.Obs) *apObs {
	if o == nil {
		return nil
	}
	reg := o.Metrics
	return &apObs{
		trace:          o.Trace,
		ticks:          reg.Counter("autopilot_ticks_total", "Re-planning ticks executed."),
		arrivals:       reg.Counter("autopilot_arrivals_total", "Stream arrivals observed."),
		admitted:       reg.Counter("autopilot_admitted_total", "Arrivals admitted."),
		rejected:       reg.Counter("autopilot_rejected_total", "Arrivals rejected at admission."),
		departures:     reg.Counter("autopilot_departures_total", "Admitted tasks departed."),
		emergencyWakes: reg.Counter("autopilot_emergency_wakes_total", "Servers woken mid-interval for an arrival."),
		transitions:    reg.Counter("autopilot_transitions_total", "ACPI state transitions billed."),
		migrations:     reg.Counter("autopilot_migrations_total", "VM migrations billed."),
		chaosFaults:    reg.Counter("autopilot_chaos_faults_total", "Chaos faults struck (crashes, wake failures, controller losses)."),
		chaosRepairs:   reg.Counter("autopilot_chaos_repairs_total", "Chaos repairs applied (crash and stuck-zombie windows closed)."),
	}
}

// observeTick records one re-planning pass: the tick ordinal and population,
// then the posture the policy just installed.
func (ob *apObs) observeTick(now int64, tick, running int, p consolidation.FleetPlan) {
	if ob == nil {
		return
	}
	ob.ticks.Inc()
	ob.trace.EmitAt(now, "autopilot", "tick",
		obs.F("tick", int64(tick)), obs.F("running", int64(running)))
	ob.trace.EmitAt(now, "autopilot", "replan",
		obs.F("active", int64(p.ActiveHosts)), obs.F("zombie", int64(p.ZombieHosts)),
		obs.F("memsrv", int64(p.MemoryServers)), obs.F("sleep", int64(p.SleepHosts)))
}

// observeBill records the billed cost of one posture change. Joules are
// rounded to whole units for the trace — the exact ledger lives in Result.
func (ob *apObs) observeBill(now int64, bill dcsim.TransitionBill) {
	if ob == nil {
		return
	}
	ob.transitions.Add(uint64(bill.Transitions))
	ob.migrations.Add(uint64(bill.Migrations))
	ob.trace.EmitAt(now, "autopilot", "billed",
		obs.F("transitions", int64(bill.Transitions)),
		obs.F("migrations", int64(bill.Migrations)),
		obs.F("joules", int64(bill.Joules)))
}

// observeArrival records one arrival and its admission outcome.
func (ob *apObs) observeArrival(ok bool) {
	if ob == nil {
		return
	}
	ob.arrivals.Inc()
	if ok {
		ob.admitted.Inc()
	} else {
		ob.rejected.Inc()
	}
}

// observeDepart records one departure.
func (ob *apObs) observeDepart() {
	if ob == nil {
		return
	}
	ob.departures.Inc()
}

// observeEmergencyWake records servers woken outside a tick because an
// arrival did not fit the posture held.
func (ob *apObs) observeEmergencyWake(now int64, woken int) {
	if ob == nil || woken == 0 {
		return
	}
	ob.emergencyWakes.Add(uint64(woken))
	ob.trace.EmitAt(now, "autopilot", "wake.emergency", obs.F("woken", int64(woken)))
}

// observeWakeFailures records S3->S0 attempts an injected fault failed.
func (ob *apObs) observeWakeFailures(now int64, failed int) {
	if ob == nil {
		return
	}
	ob.chaosFaults.Add(uint64(failed))
	ob.trace.EmitAt(now, "chaos", "fault.wake", obs.F("failed", int64(failed)))
}

// observeChaosCrash records one ServerCrash fault striking.
func (ob *apObs) observeChaosCrash(now int64, struck int) {
	if ob == nil || struck == 0 {
		return
	}
	ob.chaosFaults.Add(uint64(struck))
	ob.trace.EmitAt(now, "chaos", "fault.crash", obs.F("struck", int64(struck)))
}

// observeChaosCtrlLoss records one controller loss and its rebuild window.
func (ob *apObs) observeChaosCtrlLoss(now, durationSec int64) {
	if ob == nil {
		return
	}
	ob.chaosFaults.Inc()
	ob.trace.EmitAt(now, "chaos", "fault.ctrl_loss", obs.F("rebuild_s", durationSec))
}

// observeChaosRepair records a fault window closing: n servers return to the
// sleep pool. kind distinguishes crash repairs from stuck-zombie releases.
func (ob *apObs) observeChaosRepair(now int64, kind string, n int) {
	if ob == nil || n == 0 {
		return
	}
	ob.chaosRepairs.Add(uint64(n))
	ob.trace.EmitAt(now, "chaos", "repair", obs.FS("kind", kind), obs.F("servers", int64(n)))
}

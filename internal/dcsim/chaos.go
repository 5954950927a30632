// Degraded-capacity chaos pricing: the offline engine re-run under a
// chaos.Plan, so the oracle bound can be computed under the same fault
// schedule the online control plane suffered — the apples-to-apples
// resilience regret. Every charge below is a pure function of (fault plan,
// epoch span, epoch posture pair, population): no state crosses epochs, so
// any parallel shard derives the identical bill and the engine stays
// bit-identical across worker counts.
//
// The accounting mirrors the online loop's penalties epoch by epoch:
//
//   - crashed servers burn S0 idle power for the server-seconds they spend
//     wedged inside the epoch, and the epoch's plan is sized against the
//     shrunken fleet (see epochPlan);
//   - a crash whose victims were serving remote memory (zombies or Oasis
//     memory servers, per the fault's role hint resolved against the epoch's
//     posture) bills the re-homing transfer of their remote-memory share and
//     a replacement wake; a crash of active servers bills replacement wakes;
//   - repairs bill the reboot back to S3 in the epoch they complete;
//   - failed wakes bill the wasted S3->S0 attempt, capped by both the
//     plan's budget for the epoch and the wakes the epoch actually performs;
//   - controller losses bill one machine's worth of S0 idle power for the
//     secondary's rebuild window;
//   - fabric degradation is priced in the transition bill itself
//     (TransitionModel.Cost), not here.
//
// All penalties land on EnergyJoules and never on the baseline, so faults
// can only lower the reported saving.

package dcsim

import (
	"repro/internal/acpi"
	"repro/internal/chaos"
	"repro/internal/consolidation"
)

// chaosBill is one epoch's fault penalty.
type chaosBill struct {
	joules      float64
	transitions int
	wasted      int
	reHomedGiB  float64
}

// chaosFabricFactor returns the epoch's time-weighted remote-latency
// multiplier (exactly 1 without an intersecting degradation window).
func chaosFabricFactor(cfg *Config, span epochSpan) float64 {
	if cfg.Chaos.Empty() {
		return 1
	}
	return cfg.Chaos.FabricFactor(span.start, span.end)
}

// chaosAlignPrev makes the previous epoch's plan commensurate with this
// epoch's fleet size before the transition delta is taken: a crash (or
// repair) between the two epochs changes the total the planner covered, and
// without the adjustment that size change would surface in
// consolidation.Delta as phantom posture churn — S3->S0 wakes for servers
// that actually died, or a second S0->S3 bill for reboots RepairsIn already
// charges. The difference is absorbed into (taken from) the previous plan's
// sleep pool, exactly where an unchanged policy plan puts marginal capacity;
// if the pool cannot absorb a shrink the remainder is left to the delta (a
// crash striking a fully-awake fleet really does change the active count).
// Pure function of (prev, plan), so shard independence is preserved.
func chaosAlignPrev(cfg *Config, prev, plan consolidation.FleetPlan) consolidation.FleetPlan {
	if cfg.Chaos.Empty() {
		return prev
	}
	diff := plan.TotalHosts() - prev.TotalHosts()
	if diff == 0 {
		return prev
	}
	prev.SleepHosts += diff
	if prev.SleepHosts < 0 {
		prev.SleepHosts = 0
	}
	return prev
}

// chaosEpochCost prices the epoch's fault penalties.
func chaosEpochCost(cfg *Config, prev, plan consolidation.FleetPlan, vms []consolidation.VMDemand, span epochSpan) chaosBill {
	p := cfg.Chaos
	m := cfg.Machine
	var bill chaosBill

	// Crashed servers wedge at S0 idle for their in-epoch server-seconds.
	bill.joules += p.CrashedServerSeconds(span.start, span.end) * m.PowerWatts(acpi.S0, 0)

	// Crashes striking this epoch: replacement wakes plus re-homing for the
	// victims that were serving remote memory.
	for _, f := range p.FaultsIn(chaos.ServerCrash, span.start, span.end) {
		active, serving := crashVictims(f, plan)
		if active > 0 {
			bill.joules += float64(active) * m.TransitionJoules(acpi.S3, acpi.S0)
			bill.transitions += active
		}
		if serving > 0 {
			share := 0.0
			if pool := plan.ZombieHosts + plan.MemoryServers; pool > 0 {
				share = plan.RemoteMemoryGiB / float64(pool) * float64(serving)
			}
			bill.reHomedGiB += share
			bill.joules += reHomeJoules(cfg, share, plan, f.AtSec)
			// Replacement serving servers: wake from S3 and re-suspend to Sz.
			bill.joules += float64(serving) * (m.TransitionJoules(acpi.S3, acpi.S0) + m.TransitionJoules(acpi.S0, acpi.Sz))
			bill.transitions += 2 * serving
		}
	}

	// Repairs completing this epoch reboot the victims into S3.
	for _, f := range p.RepairsIn(span.start, span.end) {
		bill.joules += float64(f.Count) * m.TransitionJoules(acpi.S0, acpi.S3)
		bill.transitions += f.Count
	}

	// Failed wakes: the wasted S3->S0 attempt, bounded by the epoch's actual
	// wake count and the plan's budget for the span.
	if budget := p.WakeFailureBudget(span.start, span.end); budget > 0 {
		d := consolidation.Delta(prev, plan, len(vms))
		wakes := d.SleepExits + d.MemoryServerStarts
		if budget > wakes {
			budget = wakes
		}
		if budget > 0 {
			bill.joules += float64(budget) * m.TransitionJoules(acpi.S3, acpi.S0)
			bill.transitions += budget
			bill.wasted += budget
		}
	}

	// Controller losses: the secondary rebuilds for the fault's window,
	// burning one machine's worth of S0 idle power.
	for _, f := range p.FaultsIn(chaos.ControllerLoss, span.start, span.end) {
		bill.joules += float64(f.DurationSec) * m.PowerWatts(acpi.S0, 0)
	}
	return bill
}

// crashVictims resolves a crash fault's role hint against the epoch's
// posture: how many victims were active and how many were serving remote
// memory (zombies or memory servers). The preferred category is struck
// first; the spill-over falls through the remaining categories in the same
// order the online loop uses, with sleepers absorbing the rest (no extra
// bill — a dead sleeper costs only its wedged burn).
func crashVictims(f chaos.Fault, plan consolidation.FleetPlan) (active, serving int) {
	servingPool := plan.ZombieHosts + plan.MemoryServers
	take := func(n, pool int) int {
		if n > pool {
			n = pool
		}
		return n
	}
	left := f.Count
	switch f.Role {
	case chaos.RoleServing:
		serving = take(left, servingPool)
		left -= serving
		active = take(left, plan.ActiveHosts)
	case chaos.RoleSleep:
		left -= take(left, plan.SleepHosts)
		serving = take(left, servingPool)
		left -= serving
		active = take(left, plan.ActiveHosts)
	default: // RoleAny, RoleActive: active burns most, strike it first.
		active = take(left, plan.ActiveHosts)
		left -= active
		serving = take(left, servingPool)
	}
	return active, serving
}

// reHomeJoules prices moving share GiB of remote memory onto replacement
// servers: a one-sided transfer over the fabric at the instant's degradation
// factor, stalling one active host at the epoch's operating point.
func reHomeJoules(cfg *Config, shareGiB float64, plan consolidation.FleetPlan, atSec int64) float64 {
	if shareGiB <= 0 {
		return 0
	}
	tm := cfg.transitions
	bytes := int(shareGiB * float64(1<<30))
	sec := float64(tm.Fabric.TransferNs(tm.Fabric.OneSidedLatencyNs, bytes)) / 1e9
	sec *= cfg.Chaos.FabricFactorAt(atSec)
	return sec * cfg.Machine.PowerWatts(acpi.S0, plan.ActiveCPUUtilization)
}

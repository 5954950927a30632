// Degraded-capacity chaos pricing: the offline engine re-run under a
// chaos.Plan, so the oracle bound can be computed under the same fault
// schedule the online control plane suffered — the apples-to-apples
// resilience regret. Every charge below is a pure function of (fault plan,
// epoch span, epoch posture pair, population): no state crosses epochs, so
// any parallel shard derives the identical bill and the engine stays
// bit-identical across worker counts.
//
// The epoch bill:
//
//   - crashed servers burn S0 idle power for the server-seconds they spend
//     wedged inside the epoch, and the epoch's plan is sized against the
//     shrunken fleet (see epochPlan);
//   - a crash strikes the epoch's posture in StrikeOrder, bills each
//     victim's Replacement and, for victims that were serving remote memory
//     (zombies or Oasis memory servers), the ReHomeJoules of their share;
//   - repairs bill the reboot back to S3 in the epoch they complete;
//   - failed wakes bill the wasted S3->S0 attempt, capped by both the
//     plan's budget for the epoch and the wakes the epoch actually performs;
//   - controller losses bill one machine's worth of S0 idle power for the
//     secondary's rebuild window;
//   - fabric degradation is priced in the transition bill itself
//     (TransitionCost), not here.
//
// The online loop prices crashes by the same rules. Three differences
// remain: its wake failures also bill the stuck zombies' Sz burn and their
// Sz->S0->S3 release; its repairs reboot only the servers a crash struck,
// not the fault's Count; and it re-picks a victim after each strike of a
// Count > 1 crash, so a woken replacement can be struck again.
//
// All penalties land on EnergyJoules and never on the baseline, so faults
// can only lower the reported saving.

package dcsim

import (
	"repro/internal/acpi"
	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/energy"
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
func chaosEpochCost(cfg *Config, prev, plan consolidation.FleetPlan, vms int, span epochSpan) chaosBill {
	p := cfg.Chaos
	m := &cfg.prices
	var bill chaosBill

	// Crashed servers wedge at S0 idle for their in-epoch server-seconds.
	bill.joules += p.CrashedServerSeconds(span.start, span.end) * m.PowerWatts(acpi.S0, 0)

	// Crashes striking this epoch: replacements plus re-homing for the
	// victims that were serving remote memory.
	for _, f := range p.FaultsIn(chaos.ServerCrash, span.start, span.end) {
		v := crashVictims(f, plan)
		bill.replace(m, consolidation.ActiveHost, v.ActiveHosts)
		share := ServingShare(plan) * float64(v.ZombieHosts+v.MemoryServers)
		bill.reHomedGiB += share
		bill.joules += ReHomeJoules(m, share, plan.ActiveCPUUtilization, p.FabricFactorAt(f.AtSec))
		bill.replace(m, consolidation.ZombieHost, v.ZombieHosts)
		bill.replace(m, consolidation.MemoryServer, v.MemoryServers)
	}

	// Repairs completing this epoch reboot the victims into S3.
	for _, f := range p.RepairsIn(span.start, span.end) {
		bill.joules += float64(f.Count) * m.TransitionJoules(acpi.S0, acpi.S3)
		bill.transitions += f.Count
	}

	// Failed wakes: the wasted S3->S0 attempt, bounded by the epoch's actual
	// wake count and the plan's budget for the span.
	if budget := p.WakeFailureBudget(span.start, span.end); budget > 0 {
		d := consolidation.Delta(prev, plan, vms)
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

// replace bills the replacements of n crashed servers of category c.
func (b *chaosBill) replace(m *energy.Prices, c consolidation.Category, n int) {
	joules, transitions := Replacement(m, c)
	b.joules += float64(n) * joules
	b.transitions += n * transitions
}

// crashVictims resolves a crash fault's role hint against the epoch's
// posture: how many servers of each category it strikes, taken in
// StrikeOrder.
func crashVictims(f chaos.Fault, plan consolidation.FleetPlan) (victims consolidation.FleetPlan) {
	left := f.Count
	for _, c := range StrikeOrder(f.Role) {
		n := min(left, *plan.Hosts(c))
		*victims.Hosts(c) = n
		left -= n
	}
	return victims
}

// StrikeOrder is the order in which a crash with the given role hint strikes
// a posture's categories: the preferred category first, then the spill-over.
// Zombies go before memory servers, and RoleAny strikes active servers
// first, because they burn most.
func StrikeOrder(role chaos.CrashRole) [4]consolidation.Category {
	switch role {
	case chaos.RoleServing:
		return [4]consolidation.Category{consolidation.ZombieHost, consolidation.MemoryServer, consolidation.ActiveHost, consolidation.SleepHost}
	case chaos.RoleSleep:
		return [4]consolidation.Category{consolidation.SleepHost, consolidation.ZombieHost, consolidation.MemoryServer, consolidation.ActiveHost}
	default: // RoleAny, RoleActive
		return [4]consolidation.Category{consolidation.ActiveHost, consolidation.ZombieHost, consolidation.MemoryServer, consolidation.SleepHost}
	}
}

// Replacement prices replacing one crashed server of category c: an active
// server's replacement wakes S3->S0, a zombie's wakes and re-suspends to Sz,
// a memory server's only wakes, and a sleeper needs none.
func Replacement(m *energy.Prices, c consolidation.Category) (joules float64, transitions int) {
	if c == consolidation.SleepHost {
		return 0, 0
	}
	joules, transitions = m.TransitionJoules(acpi.S3, acpi.S0), 1
	if c == consolidation.ZombieHost {
		joules += m.TransitionJoules(acpi.S0, acpi.Sz)
		transitions++
	}
	return joules, transitions
}

// ServingShare is the remote memory one serving server (zombie or memory
// server) carries under the posture.
func ServingShare(plan consolidation.FleetPlan) float64 {
	pool := plan.ZombieHosts + plan.MemoryServers
	if pool <= 0 {
		return 0
	}
	return plan.RemoteMemoryGiB / float64(pool)
}

// ReHomeJoules prices moving shareGiB of remote memory onto replacement
// servers: a one-sided transfer over the fabric, slowed by fabricFactor,
// stalling one active host at utilization util.
func ReHomeJoules(m *energy.Prices, shareGiB, util, fabricFactor float64) float64 {
	if shareGiB <= 0 {
		return 0
	}
	bytes := int(shareGiB * float64(1<<30))
	sec := float64(fabric.TransferNs(fabric.OneSidedLatencyNs, bytes)) / 1e9
	sec *= fabricFactor
	return sec * m.PowerWatts(acpi.S0, util)
}

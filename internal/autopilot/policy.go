package autopilot

import (
	"fmt"
	"math"

	"repro/internal/consolidation"
	"repro/internal/ident"
)

// Observation is what an online policy sees at a tick: strictly the present
// and the past — never the trace's future.
type Observation struct {
	// NowSec is the tick instant; TickSec the re-planning period.
	NowSec  int64
	TickSec int64
	// Demand is the Demand of the currently admitted population, its VMs
	// folded in arrival order.
	Demand consolidation.Demand
	// Prev is the posture the fleet currently holds.
	Prev consolidation.FleetPlan
	// Spec and TotalServers describe the fleet hardware.
	Spec         consolidation.ServerSpec
	TotalServers int

	// walk holds the population itself, which Inflated folds again.
	walk *walk
}

// Inflated returns the Demand of the admitted population with every VM's
// booked and used resources multiplied by factor, its VMs folded in arrival
// order: what a policy sizing for a forecast larger than the present plans
// from. Only an Observation the loop made holds the population.
func (o Observation) Inflated(factor float64) consolidation.Demand {
	var d consolidation.Demand
	o.walk.running.Each(func(rank ident.ID) {
		t := &o.walk.idx.tasks[rank]
		d.Add(consolidation.VMDemand{BookedCPU: t.BookedCPU * factor, BookedMemGiB: t.BookedMemGiB * factor,
			UsedCPU: t.UsedCPU * factor, UsedMemGiB: t.UsedMemGiB * factor})
	})
	return d
}

// Policy decides fleet postures online. Implementations may hold forecasting
// state (the loop calls Decide strictly in tick order), so a policy instance
// belongs to a single run.
type Policy interface {
	// Name identifies the policy in result tables.
	Name() string
	// Planner is the base consolidation planner the policy sizes postures
	// with; the loop also uses it for admission checks and the regret
	// comparison runs the offline oracle with the same planner.
	Planner() consolidation.Policy
	// Decide returns the posture for the next interval. The loop clamps and
	// re-derives the residual sleepers, so Decide only has to get the
	// active/zombie/memory-server counts right.
	Decide(obs Observation) consolidation.FleetPlan
}

// The online policies' fixed parameters. A headroom is the fraction of extra
// active hosts kept awake above the planner's requirement.
const (
	reactiveHeadroom float64 = 0.15 // the reactive policy's standing headroom
	// wakeHeadroom is kept on a hysteresis scale-up: enough to absorb
	// arrivals, cheaper than the reactive policy's standing headroom.
	wakeHeadroom float64 = 0.05
	// suspendWatermark is the fraction of the currently active hosts the
	// requirement must fall below before hysteresis releases any server.
	suspendWatermark float64 = 0.2
	ewmaAlpha        float64 = 0.4 // EWMA smoothing factor
	ewmaTrendGain    float64 = 1.0 // weight of the one-step demand slope in the forecast
	// ewmaMaxInflation caps the forecast relative to the present demand,
	// bounding how much capacity a spike forecast can hold awake.
	ewmaMaxInflation float64 = 1.5
	// ewmaMinHeadroom is the forecast-uncertainty margin. A point forecast
	// is wrong most ticks: arrivals it missed land on this margin instead of
	// forcing a wake each, and without a margin the policy would ride the
	// planner's bare requirement, which no deployable controller does.
	ewmaMinHeadroom float64 = 0.1
)

// ReactiveThreshold re-plans from scratch at every tick and keeps a fixed
// headroom of extra active hosts above the planner's requirement, absorbing
// the arrivals of the coming interval. It reacts instantly in both
// directions, so a fluctuating population makes it flap: servers suspend on
// every dip and wake again on the next wiggle.
type ReactiveThreshold struct {
	// Base is the consolidation planner sizing the posture.
	Base consolidation.Policy
}

// NewReactive returns the reactive policy over the given planner.
func NewReactive(base consolidation.Policy) *ReactiveThreshold { return &ReactiveThreshold{Base: base} }

// Name implements Policy.
func (r *ReactiveThreshold) Name() string { return "reactive" }

// Planner implements Policy.
func (r *ReactiveThreshold) Planner() consolidation.Policy { return r.Base }

// Decide implements Policy.
func (r *ReactiveThreshold) Decide(obs Observation) consolidation.FleetPlan {
	return addHeadroom(r.Base.PlanDemand(obs.Demand, obs.Spec, obs.TotalServers), reactiveHeadroom)
}

// Hysteresis damps the reactive policy with separate suspend and wake
// watermarks: scale-ups happen immediately (with a small safety headroom),
// but scale-downs only happen once the planner's requirement has fallen a
// whole watermark below the posture currently held. Small fluctuations
// therefore cause no transitions at all, and a sustained decline is released
// in a few large steps instead of many small ones.
type Hysteresis struct {
	// Base is the consolidation planner sizing the posture.
	Base consolidation.Policy
}

// NewHysteresis returns the hysteresis policy over the given planner.
func NewHysteresis(base consolidation.Policy) *Hysteresis { return &Hysteresis{Base: base} }

// Name implements Policy.
func (h *Hysteresis) Name() string { return "hysteresis" }

// Planner implements Policy.
func (h *Hysteresis) Planner() consolidation.Policy { return h.Base }

// Decide implements Policy.
func (h *Hysteresis) Decide(obs Observation) consolidation.FleetPlan {
	plan := h.Base.PlanDemand(obs.Demand, obs.Spec, obs.TotalServers)
	target := addHeadroom(plan, wakeHeadroom)
	prevActive := obs.Prev.ActiveHosts
	if target.ActiveHosts >= prevActive {
		// Scale-up (or steady): adopt the target immediately — capacity
		// safety beats transition thrift.
		return target
	}
	watermark := int(math.Ceil(suspendWatermark * float64(prevActive)))
	if watermark < 1 {
		watermark = 1
	}
	if prevActive-target.ActiveHosts <= watermark {
		// Within the dead band: hold the current active set, but track the
		// planner's zombie/memory-server mix for the part that did change.
		held := target
		freed := prevActive - target.ActiveHosts
		held.ActiveHosts = prevActive
		held.SleepHosts -= freed
		return held
	}
	return target
}

// PredictiveEWMA forecasts the next interval's demand with an exponentially
// weighted moving average plus a one-step trend, and sizes the posture for
// the forecast instead of the instantaneous population, holding a
// forecast-uncertainty safety margin (ewmaMinHeadroom) on top. Rising load is
// anticipated, so the policy tracks demand more tightly than a standing
// reactive headroom ever can; the forecast never plans below the present
// demand, so admission safety matches the reactive policy.
type PredictiveEWMA struct {
	// Base is the consolidation planner sizing the posture.
	Base consolidation.Policy

	haveState        bool
	ewmaCPU, ewmaMem float64
	prevCPU, prevMem float64
}

// NewPredictiveEWMA returns the forecasting policy over the given planner.
func NewPredictiveEWMA(base consolidation.Policy) *PredictiveEWMA { return &PredictiveEWMA{Base: base} }

// Name implements Policy.
func (p *PredictiveEWMA) Name() string { return "ewma" }

// Planner implements Policy.
func (p *PredictiveEWMA) Planner() consolidation.Policy { return p.Base }

// Clone returns a fresh instance for a new run, its forecasting state reset.
func (p *PredictiveEWMA) Clone() Policy { return NewPredictiveEWMA(p.Base) }

// Decide implements Policy.
func (p *PredictiveEWMA) Decide(obs Observation) consolidation.FleetPlan {
	curCPU, curMem := obs.Demand.BookedCPU, obs.Demand.BookedMemGiB
	if !p.haveState {
		p.ewmaCPU, p.ewmaMem = curCPU, curMem
		p.prevCPU, p.prevMem = curCPU, curMem
		p.haveState = true
	}
	p.ewmaCPU = ewmaAlpha*curCPU + (1-ewmaAlpha)*p.ewmaCPU
	p.ewmaMem = ewmaAlpha*curMem + (1-ewmaAlpha)*p.ewmaMem
	forecastCPU := p.ewmaCPU + ewmaTrendGain*(curCPU-p.prevCPU)
	forecastMem := p.ewmaMem + ewmaTrendGain*(curMem-p.prevMem)
	p.prevCPU, p.prevMem = curCPU, curMem

	factor := 1.0
	if curCPU > 0 && forecastCPU/curCPU > factor {
		factor = forecastCPU / curCPU
	}
	if curMem > 0 && forecastMem/curMem > factor {
		factor = forecastMem / curMem
	}
	if factor > ewmaMaxInflation {
		factor = ewmaMaxInflation
	}

	d := obs.Demand
	if factor > 1 {
		d = obs.Inflated(factor)
	}
	return addHeadroom(p.Base.PlanDemand(d, obs.Spec, obs.TotalServers), ewmaMinHeadroom)
}

// addHeadroom wakes ceil(fraction*active) extra hosts out of the plan's
// sleepers.
func addHeadroom(p consolidation.FleetPlan, fraction float64) consolidation.FleetPlan {
	extra := int(math.Ceil(float64(p.ActiveHosts) * fraction))
	if extra > p.SleepHosts {
		extra = p.SleepHosts
	}
	p.ActiveHosts += extra
	p.SleepHosts -= extra
	return p
}

// Policies returns a fresh instance of every bundled online policy over the
// given base planner, in presentation order (reactive, hysteresis, ewma).
func Policies(base consolidation.Policy) []Policy {
	return []Policy{NewReactive(base), NewHysteresis(base), NewPredictiveEWMA(base)}
}

// PolicyByName returns a fresh instance of the named bundled online policy
// over the base planner. Every front end that takes a policy name resolves it
// here.
func PolicyByName(name string, base consolidation.Policy) (Policy, error) {
	for _, p := range Policies(base) {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("autopilot: unknown policy %q (valid: reactive, hysteresis, ewma)", name)
}

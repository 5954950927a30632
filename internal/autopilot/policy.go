package autopilot

import (
	"math"

	"repro/internal/consolidation"
)

// Observation is what an online policy sees at a tick: strictly the present
// and the past — never the trace's future.
type Observation struct {
	// NowSec is the tick instant; TickSec the re-planning period.
	NowSec  int64
	TickSec int64
	// VMs is the currently admitted population, sorted by ID. The slice is
	// shared with the loop and must not be mutated.
	VMs []consolidation.VMDemand
	// Prev is the posture the fleet currently holds.
	Prev consolidation.FleetPlan
	// Spec and TotalServers describe the fleet hardware.
	Spec         consolidation.ServerSpec
	TotalServers int
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

// ReactiveThreshold re-plans from scratch at every tick and keeps a fixed
// headroom of extra active hosts above the planner's requirement, absorbing
// the arrivals of the coming interval. It reacts instantly in both
// directions, so a fluctuating population makes it flap: servers suspend on
// every dip and wake again on the next wiggle.
type ReactiveThreshold struct {
	// Base is the consolidation planner sizing the posture.
	Base consolidation.Policy
	// Headroom is the fraction of extra active hosts kept awake above the
	// planner's requirement (0.15 by default).
	Headroom float64
}

// NewReactive returns the reactive policy over the given planner with the
// default headroom.
func NewReactive(base consolidation.Policy) *ReactiveThreshold {
	return &ReactiveThreshold{Base: base, Headroom: 0.15}
}

// Name implements Policy.
func (r *ReactiveThreshold) Name() string { return "reactive" }

// Planner implements Policy.
func (r *ReactiveThreshold) Planner() consolidation.Policy { return r.Base }

// Clone returns a fresh instance for a new run (the policy is stateless, so
// this is a plain copy).
func (r *ReactiveThreshold) Clone() Policy {
	c := *r
	return &c
}

// Decide implements Policy.
func (r *ReactiveThreshold) Decide(obs Observation) consolidation.FleetPlan {
	plan := r.Base.Plan(obs.VMs, obs.Spec, obs.TotalServers)
	headroom := r.Headroom
	if headroom < 0 {
		headroom = 0
	}
	return addHeadroom(plan, headroom)
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
	// WakeHeadroom is the fraction of extra active hosts kept on scale-up
	// (0.05 by default) — enough to absorb arrivals, cheaper than the
	// reactive policy's standing headroom.
	WakeHeadroom float64
	// SuspendWatermark is the fraction of the currently active hosts the
	// planner's requirement must fall below before any server is released
	// (0.2 by default).
	SuspendWatermark float64
}

// NewHysteresis returns the hysteresis policy over the given planner with
// the default watermarks.
func NewHysteresis(base consolidation.Policy) *Hysteresis {
	return &Hysteresis{Base: base, WakeHeadroom: 0.05, SuspendWatermark: 0.2}
}

// Name implements Policy.
func (h *Hysteresis) Name() string { return "hysteresis" }

// Planner implements Policy.
func (h *Hysteresis) Planner() consolidation.Policy { return h.Base }

// Clone returns a fresh instance for a new run (the policy reads only the
// observation's Prev posture, so this is a plain copy).
func (h *Hysteresis) Clone() Policy {
	c := *h
	return &c
}

// Decide implements Policy.
func (h *Hysteresis) Decide(obs Observation) consolidation.FleetPlan {
	plan := h.Base.Plan(obs.VMs, obs.Spec, obs.TotalServers)
	target := addHeadroom(plan, h.WakeHeadroom)
	prevActive := obs.Prev.ActiveHosts
	if target.ActiveHosts >= prevActive {
		// Scale-up (or steady): adopt the target immediately — capacity
		// safety beats transition thrift.
		return target
	}
	watermark := int(math.Ceil(h.SuspendWatermark * float64(prevActive)))
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
// forecast-uncertainty safety margin (MinHeadroom) on top. Rising load is
// anticipated, so the policy tracks demand more tightly than a standing
// reactive headroom ever can; the forecast never plans below the present
// demand, so admission safety matches the reactive policy.
type PredictiveEWMA struct {
	// Base is the consolidation planner sizing the posture.
	Base consolidation.Policy
	// Alpha is the EWMA smoothing factor in (0,1]; 0.4 by default.
	Alpha float64
	// TrendGain scales the one-step demand slope added to the forecast;
	// 1.0 by default.
	TrendGain float64
	// MaxInflation caps the forecast relative to the present demand (1.5 by
	// default), bounding how much capacity a spike forecast can hold awake.
	MaxInflation float64
	// MinHeadroom is the forecast-uncertainty safety margin: the fraction of
	// extra active hosts always kept awake above the sized posture (0.1 by
	// default). A point forecast is wrong most ticks — mid-interval arrivals
	// the forecast missed land on this margin instead of forcing a wake per
	// arrival, and without any margin the policy would ride the planner's bare
	// requirement, which no deployable controller does.
	MinHeadroom float64

	haveState        bool
	ewmaCPU, ewmaMem float64
	prevCPU, prevMem float64
	// scaled is the inflated population handed to the planner, reused from
	// tick to tick.
	scaled []consolidation.VMDemand
}

// NewPredictiveEWMA returns the forecasting policy over the given planner
// with the default smoothing parameters.
func NewPredictiveEWMA(base consolidation.Policy) *PredictiveEWMA {
	return &PredictiveEWMA{Base: base, Alpha: 0.4, TrendGain: 1.0, MaxInflation: 1.5, MinHeadroom: 0.1}
}

// Name implements Policy.
func (p *PredictiveEWMA) Name() string { return "ewma" }

// Planner implements Policy.
func (p *PredictiveEWMA) Planner() consolidation.Policy { return p.Base }

// Clone returns a fresh instance for a new run: the smoothing parameters are
// copied, the forecasting state is reset.
func (p *PredictiveEWMA) Clone() Policy {
	c := PredictiveEWMA{Base: p.Base, Alpha: p.Alpha, TrendGain: p.TrendGain,
		MaxInflation: p.MaxInflation, MinHeadroom: p.MinHeadroom}
	return &c
}

// Decide implements Policy.
func (p *PredictiveEWMA) Decide(obs Observation) consolidation.FleetPlan {
	var curCPU, curMem float64
	for _, v := range obs.VMs {
		curCPU += v.BookedCPU
		curMem += v.BookedMemGiB
	}
	if !p.haveState {
		p.ewmaCPU, p.ewmaMem = curCPU, curMem
		p.prevCPU, p.prevMem = curCPU, curMem
		p.haveState = true
	}
	p.ewmaCPU = p.Alpha*curCPU + (1-p.Alpha)*p.ewmaCPU
	p.ewmaMem = p.Alpha*curMem + (1-p.Alpha)*p.ewmaMem
	forecastCPU := p.ewmaCPU + p.TrendGain*(curCPU-p.prevCPU)
	forecastMem := p.ewmaMem + p.TrendGain*(curMem-p.prevMem)
	p.prevCPU, p.prevMem = curCPU, curMem

	factor := 1.0
	if curCPU > 0 && forecastCPU/curCPU > factor {
		factor = forecastCPU / curCPU
	}
	if curMem > 0 && forecastMem/curMem > factor {
		factor = forecastMem / curMem
	}
	if lim := p.MaxInflation; lim > 1 && factor > lim {
		factor = lim
	}

	vms := obs.VMs
	if factor > 1 {
		p.scaled = p.scaled[:0]
		for _, v := range obs.VMs {
			v.BookedCPU *= factor
			v.BookedMemGiB *= factor
			v.UsedCPU *= factor
			v.UsedMemGiB *= factor
			p.scaled = append(p.scaled, v)
		}
		vms = p.scaled
	}
	plan := p.Base.Plan(vms, obs.Spec, obs.TotalServers)
	return addHeadroom(plan, p.MinHeadroom)
}

// addHeadroom wakes ceil(fraction*active) extra hosts out of the plan's
// sleepers.
func addHeadroom(p consolidation.FleetPlan, fraction float64) consolidation.FleetPlan {
	if fraction <= 0 {
		return p
	}
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

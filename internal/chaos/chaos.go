package chaos

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/trace"
)

// FaultKind identifies one class of injected failure.
type FaultKind uint8

// The fault taxonomy. Every kind maps onto a concrete failure mode of the
// paper's deployment story: servers that die outright, servers that refuse to
// come back from a sleep state, the rack's global memory controller dying
// mid-consolidation, a degraded RDMA fabric, and workload surprises the
// trace never promised.
const (
	// ServerCrash takes Count servers out of the fleet at AtSec; they burn
	// S0 idle power (wedged, fans on) until repaired DurationSec later, when
	// they reboot into S3. A crashed zombie or memory server forces its
	// remotely served memory to be re-homed onto a freshly woken replacement.
	ServerCrash FaultKind = iota
	// WakeFailure makes up to Count S3->S0 wake attempts fail during
	// [AtSec, AtSec+DurationSec): the failed server sticks in a zombie-like
	// half-woken state (billed at Sz power, serving nothing) until the window
	// closes, and the controller escalates to the next wake candidate.
	WakeFailure
	// ControllerLoss kills the global memory controller at AtSec; the
	// secondary promotes itself and rebuilds for DurationSec, burning one
	// machine's worth of S0 idle power.
	ControllerLoss
	// FabricDegrade multiplies every remote-memory latency by Factor during
	// [AtSec, AtSec+DurationSec) — a flapping link or congested switch.
	FabricDegrade
	// TraceBurst injects Count extra task arrivals spread over
	// [AtSec, AtSec+DurationSec) — a population spike the planners never saw
	// in the base trace.
	TraceBurst
)

// String names the kind.
func (k FaultKind) String() string {
	switch k {
	case ServerCrash:
		return "server-crash"
	case WakeFailure:
		return "wake-failure"
	case ControllerLoss:
		return "controller-loss"
	case FabricDegrade:
		return "fabric-degrade"
	case TraceBurst:
		return "trace-burst"
	default:
		return fmt.Sprintf("fault-kind-%d", uint8(k))
	}
}

// CrashRole hints which posture category a ServerCrash strikes. The injection
// layers resolve the hint against the posture actually held, falling back to
// the next category when the preferred one is empty, so a plan stays valid
// whatever the controller decided.
type CrashRole uint8

const (
	// RoleAny crashes whatever burns most: active first, then serving
	// (zombie / memory server), then sleeping servers.
	RoleAny CrashRole = iota
	// RoleActive prefers an S0 server running VMs.
	RoleActive
	// RoleServing prefers a server serving remote memory (Sz zombie or Oasis
	// memory server) — the case that forces borrowed-memory re-homing.
	RoleServing
	// RoleSleep prefers a suspended S3 server.
	RoleSleep
)

// String names the role.
func (r CrashRole) String() string {
	switch r {
	case RoleActive:
		return "active"
	case RoleServing:
		return "serving"
	case RoleSleep:
		return "sleep"
	default:
		return "any"
	}
}

// Fault is one scheduled failure event.
type Fault struct {
	// Kind selects the failure mode.
	Kind FaultKind
	// AtSec is the injection instant in trace time.
	AtSec int64
	// DurationSec is the fault's window: crash repair time, wake-failure
	// window, controller rebuild time, fabric degradation window, or burst
	// spread.
	DurationSec int64
	// Count sizes the fault: servers crashed, wake attempts failed, or burst
	// tasks injected. Ignored by ControllerLoss and FabricDegrade.
	Count int
	// Factor is the FabricDegrade latency multiplier (>= 1).
	Factor float64
	// Role hints which posture category a ServerCrash strikes.
	Role CrashRole
}

// endSec is the exclusive end of the fault's window.
func (f Fault) endSec() int64 { return f.AtSec + f.DurationSec }

// Validate checks one fault.
func (f Fault) Validate() error {
	if f.AtSec < 0 {
		return fmt.Errorf("chaos: fault %v at negative time %d", f.Kind, f.AtSec)
	}
	if f.DurationSec < 0 {
		return fmt.Errorf("chaos: fault %v with negative duration %d", f.Kind, f.DurationSec)
	}
	switch f.Kind {
	case ServerCrash, WakeFailure, TraceBurst:
		if f.Count < 1 {
			return fmt.Errorf("chaos: fault %v needs a positive count, got %d", f.Kind, f.Count)
		}
	case FabricDegrade:
		if f.Factor < 1 {
			return fmt.Errorf("chaos: fabric degradation factor %v below 1", f.Factor)
		}
	case ControllerLoss:
		// No sizing fields.
	default:
		return fmt.Errorf("chaos: unknown fault kind %d", uint8(f.Kind))
	}
	return nil
}

// Plan is a reproducible fault schedule: a seed, a horizon and a
// time-ordered list of faults. Two plans built from the same PlanConfig are
// identical, and every consumer (the online control plane, the offline
// simulator, the report renderer) derives its behaviour purely from the
// plan's contents — that is the determinism contract the chaos tests pin.
type Plan struct {
	// Name labels the scenario ("light", "heavy", ...).
	Name string
	// Seed is the RNG seed the plan (and its trace perturbations) derive from.
	Seed int64
	// HorizonSec bounds the schedule.
	HorizonSec int64
	// Faults is sorted by (AtSec, Kind, Count).
	Faults []Fault
}

// Empty reports whether the plan injects nothing — an empty plan must leave
// every consumer bit-identical to its no-chaos path.
func (p *Plan) Empty() bool { return p == nil || len(p.Faults) == 0 }

// Validate checks the plan.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if p.HorizonSec < 0 {
		return fmt.Errorf("chaos: plan %q has negative horizon %d", p.Name, p.HorizonSec)
	}
	for i, f := range p.Faults {
		if err := f.Validate(); err != nil {
			return err
		}
		if i > 0 && f.AtSec < p.Faults[i-1].AtSec {
			return fmt.Errorf("chaos: plan %q faults not sorted by time at index %d", p.Name, i)
		}
	}
	return nil
}

// Tally counts the plan's faults per kind.
type Tally struct {
	Crashes            int `json:"crashes"`
	WakeFailures       int `json:"wake_failures"`
	ControllerLosses   int `json:"controller_losses"`
	FabricDegradations int `json:"fabric_degradations"`
	TraceBursts        int `json:"trace_bursts"`
}

// Total sums the tally.
func (t Tally) Total() int {
	return t.Crashes + t.WakeFailures + t.ControllerLosses + t.FabricDegradations + t.TraceBursts
}

// Tally counts the plan's faults per kind.
func (p *Plan) Tally() Tally {
	var t Tally
	if p == nil {
		return t
	}
	for _, f := range p.Faults {
		switch f.Kind {
		case ServerCrash:
			t.Crashes++
		case WakeFailure:
			t.WakeFailures++
		case ControllerLoss:
			t.ControllerLosses++
		case FabricDegrade:
			t.FabricDegradations++
		case TraceBurst:
			t.TraceBursts++
		}
	}
	return t
}

// PlanConfig parameterises NewPlan. Counts are numbers of fault events over
// the horizon; zero disables a fault kind.
type PlanConfig struct {
	// Name labels the scenario.
	Name string
	// Seed drives every random draw (fault times, durations, burst tasks).
	Seed int64
	// HorizonSec is the schedule's span, normally the trace horizon.
	HorizonSec int64
	// Machines bounds crash sizes (a crash never takes more than 1/4 of the
	// fleet) and sizes the default burst.
	Machines int

	// Crashes is the number of ServerCrash faults; CrashServers the servers
	// per crash (default 1); MeanRepairSec the mean repair time (default
	// 1800 s).
	Crashes       int
	CrashServers  int
	MeanRepairSec int64

	// WakeFailures is the number of WakeFailure faults, each with a budget of
	// WakeFailureCount failed attempts (default 1) over a WakeFailureWindowSec
	// window (default 900 s).
	WakeFailures         int
	WakeFailureCount     int
	WakeFailureWindowSec int64

	// ControllerLosses is the number of ControllerLoss faults;
	// ControllerRebuildSec the secondary's rebuild time (default 120 s).
	ControllerLosses     int
	ControllerRebuildSec int64

	// FabricDegradations is the number of FabricDegrade windows, each
	// multiplying remote latency by FabricFactor (default 4) for
	// FabricWindowSec (default 3600 s).
	FabricDegradations int
	FabricFactor       float64
	FabricWindowSec    int64

	// TraceBursts is the number of TraceBurst faults, each injecting
	// BurstTasks arrivals (default Machines/4, at least 8) spread over
	// BurstSpreadSec (default 900 s).
	TraceBursts    int
	BurstTasks     int
	BurstSpreadSec int64
}

// applyDefaults fills optional sizing fields.
func (c *PlanConfig) applyDefaults() {
	if c.CrashServers <= 0 {
		c.CrashServers = 1
	}
	if c.MeanRepairSec <= 0 {
		c.MeanRepairSec = 1800
	}
	if c.WakeFailureCount <= 0 {
		c.WakeFailureCount = 1
	}
	if c.WakeFailureWindowSec <= 0 {
		c.WakeFailureWindowSec = 900
	}
	if c.ControllerRebuildSec <= 0 {
		c.ControllerRebuildSec = 120
	}
	if c.FabricFactor < 1 {
		c.FabricFactor = 4
	}
	if c.FabricWindowSec <= 0 {
		c.FabricWindowSec = 3600
	}
	if c.BurstTasks <= 0 {
		c.BurstTasks = c.Machines / 4
		if c.BurstTasks < 8 {
			c.BurstTasks = 8
		}
	}
	if c.BurstSpreadSec <= 0 {
		c.BurstSpreadSec = 900
	}
}

// New generates a reproducible fault schedule from the config: every fault
// time and duration is drawn from one seeded RNG in a fixed order, so the
// same config always yields the same plan.
func New(cfg PlanConfig) (*Plan, error) {
	if cfg.HorizonSec <= 0 {
		return nil, fmt.Errorf("chaos: plan needs a positive horizon, got %d", cfg.HorizonSec)
	}
	if cfg.Machines <= 0 {
		return nil, fmt.Errorf("chaos: plan needs a positive machine count, got %d", cfg.Machines)
	}
	for _, n := range []int{cfg.Crashes, cfg.WakeFailures, cfg.ControllerLosses, cfg.FabricDegradations, cfg.TraceBursts} {
		if n < 0 {
			return nil, fmt.Errorf("chaos: negative fault count in plan config")
		}
	}
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Plan{Name: cfg.Name, Seed: cfg.Seed, HorizonSec: cfg.HorizonSec}

	at := func() int64 { return int64(rng.Float64() * float64(cfg.HorizonSec)) }
	dur := func(mean int64) int64 {
		d := int64(rng.ExpFloat64() * float64(mean))
		if d < mean/4 {
			d = mean / 4
		}
		if d < 1 {
			d = 1
		}
		return d
	}
	maxCrash := cfg.Machines / 4
	if maxCrash < 1 {
		maxCrash = 1
	}
	roles := []CrashRole{RoleActive, RoleServing, RoleAny, RoleSleep}
	for i := 0; i < cfg.Crashes; i++ {
		count := cfg.CrashServers
		if count > maxCrash {
			count = maxCrash
		}
		p.Faults = append(p.Faults, Fault{
			Kind: ServerCrash, AtSec: at(), DurationSec: dur(cfg.MeanRepairSec),
			Count: count, Role: roles[i%len(roles)],
		})
	}
	for i := 0; i < cfg.WakeFailures; i++ {
		p.Faults = append(p.Faults, Fault{
			Kind: WakeFailure, AtSec: at(), DurationSec: cfg.WakeFailureWindowSec,
			Count: cfg.WakeFailureCount,
		})
	}
	for i := 0; i < cfg.ControllerLosses; i++ {
		p.Faults = append(p.Faults, Fault{
			Kind: ControllerLoss, AtSec: at(), DurationSec: cfg.ControllerRebuildSec,
		})
	}
	for i := 0; i < cfg.FabricDegradations; i++ {
		p.Faults = append(p.Faults, Fault{
			Kind: FabricDegrade, AtSec: at(), DurationSec: cfg.FabricWindowSec,
			Factor: cfg.FabricFactor,
		})
	}
	for i := 0; i < cfg.TraceBursts; i++ {
		p.Faults = append(p.Faults, Fault{
			Kind: TraceBurst, AtSec: at(), DurationSec: cfg.BurstSpreadSec,
			Count: cfg.BurstTasks,
		})
	}
	sort.SliceStable(p.Faults, func(i, j int) bool {
		a, b := p.Faults[i], p.Faults[j]
		if a.AtSec != b.AtSec {
			return a.AtSec < b.AtSec
		}
		return a.Kind < b.Kind
	})
	return p, nil
}

// ScenarioNames lists the bundled scenarios in severity order.
func ScenarioNames() []string { return []string{"off", "light", "heavy"} }

// Scenario builds one of the bundled severity presets for a given fleet and
// horizon: "off" (empty plan), "light" (a handful of faults — the fleet
// should retain most of its savings) and "heavy" (sustained failures — the
// stress case).
func Scenario(name string, horizonSec int64, machines int, seed int64) (*Plan, error) {
	base := PlanConfig{Name: name, Seed: seed, HorizonSec: horizonSec, Machines: machines}
	switch name {
	case "off", "none":
		base.Name = "off"
		if horizonSec <= 0 || machines <= 0 {
			return nil, fmt.Errorf("chaos: scenario needs a positive horizon and machine count")
		}
		return &Plan{Name: "off", Seed: seed, HorizonSec: horizonSec}, nil
	case "light":
		base.Crashes = 2
		base.WakeFailures = 3
		base.ControllerLosses = 1
		base.FabricDegradations = 1
		base.FabricFactor = 2
		base.TraceBursts = 1
		base.BurstTasks = machines / 8
	case "heavy":
		base.Crashes = 6
		base.CrashServers = 2
		base.WakeFailures = 10
		base.WakeFailureCount = 2
		base.ControllerLosses = 3
		base.FabricDegradations = 3
		base.FabricFactor = 6
		base.TraceBursts = 3
	default:
		return nil, fmt.Errorf("chaos: unknown scenario %q (valid: off, light, heavy)", name)
	}
	return New(base)
}

// CrashedAt returns the number of servers crashed (and not yet repaired) at
// instant t — a pure function of the plan, so every epoch shard of the
// parallel simulator derives the same degraded capacity independently.
func (p *Plan) CrashedAt(t int64) int {
	if p == nil {
		return 0
	}
	n := 0
	for _, f := range p.Faults {
		if f.Kind == ServerCrash && f.AtSec <= t && t < f.endSec() {
			n += f.Count
		}
	}
	return n
}

// CrashedServerSeconds integrates crashed-server time over [start, end): the
// server-seconds the fleet spends wedged at S0 idle power.
func (p *Plan) CrashedServerSeconds(start, end int64) float64 {
	if p == nil || end <= start {
		return 0
	}
	var total float64
	for _, f := range p.Faults {
		if f.Kind != ServerCrash {
			continue
		}
		s, e := f.AtSec, f.endSec()
		if s < start {
			s = start
		}
		if e > end {
			e = end
		}
		if e > s {
			total += float64(f.Count) * float64(e-s)
		}
	}
	return total
}

// FabricFactorAt returns the remote-latency multiplier active at instant t
// (the maximum over overlapping degradation windows, at least 1).
func (p *Plan) FabricFactorAt(t int64) float64 {
	factor := 1.0
	if p == nil {
		return factor
	}
	for _, f := range p.Faults {
		if f.Kind == FabricDegrade && f.AtSec <= t && t < f.endSec() && f.Factor > factor {
			factor = f.Factor
		}
	}
	return factor
}

// FabricFactor returns the time-weighted mean remote-latency multiplier over
// [start, end): 1 outside degradation windows, the window's factor (maximum
// over overlaps) inside. Exactly 1.0 when no window intersects the span, so
// multiplying a cost by it preserves bit-identity on fault-free spans.
func (p *Plan) FabricFactor(start, end int64) float64 {
	if p == nil || end <= start {
		return 1
	}
	cuts := []int64{start, end}
	hit := false
	for _, f := range p.Faults {
		if f.Kind != FabricDegrade || f.Factor <= 1 {
			continue
		}
		if f.AtSec < end && f.endSec() > start {
			hit = true
			if f.AtSec > start {
				cuts = append(cuts, f.AtSec)
			}
			if f.endSec() < end {
				cuts = append(cuts, f.endSec())
			}
		}
	}
	if !hit {
		return 1
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	var integral float64
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if b <= a {
			continue
		}
		integral += p.FabricFactorAt(a) * float64(b-a)
	}
	return integral / float64(end-start)
}

// WakeFailureBudget returns the total wake-failure budget of the faults whose
// injection instant falls in [start, end) — the per-epoch stateless view the
// offline simulator charges against.
func (p *Plan) WakeFailureBudget(start, end int64) int {
	if p == nil {
		return 0
	}
	n := 0
	for _, f := range p.Faults {
		if f.Kind == WakeFailure && start <= f.AtSec && f.AtSec < end {
			n += f.Count
		}
	}
	return n
}

// FaultsIn returns the faults of one kind whose injection instant falls in
// [start, end), in plan order.
func (p *Plan) FaultsIn(kind FaultKind, start, end int64) []Fault {
	if p == nil {
		return nil
	}
	var out []Fault
	for _, f := range p.Faults {
		if f.Kind == kind && start <= f.AtSec && f.AtSec < end {
			out = append(out, f)
		}
	}
	return out
}

// RepairsIn returns the crash faults whose repair instant falls in
// [start, end), in plan order — the epochs that pay the reboot-to-S3 bill.
func (p *Plan) RepairsIn(start, end int64) []Fault {
	if p == nil {
		return nil
	}
	var out []Fault
	for _, f := range p.Faults {
		if f.Kind == ServerCrash && start <= f.endSec() && f.endSec() < end {
			out = append(out, f)
		}
	}
	return out
}

// PerturbTrace applies the plan's TraceBurst faults to a trace: each burst
// injects Count synthetic arrivals (modest single-core tasks, exponential
// durations) spread over the fault's window, drawn from an RNG derived from
// the plan seed and the fault's position — so the perturbed trace is a pure
// function of (trace, plan). A plan without bursts returns the trace
// unchanged (same pointer), preserving bit-identity.
func (p *Plan) PerturbTrace(tr *trace.Trace) *trace.Trace {
	if p.Empty() {
		return tr
	}
	bursts := p.FaultsIn(TraceBurst, 0, p.HorizonSec)
	if len(bursts) == 0 {
		return tr
	}
	out := &trace.Trace{
		Name:       tr.Name + "+" + p.Name,
		Machines:   tr.Machines,
		HorizonSec: tr.HorizonSec,
		Tasks:      append([]trace.Task(nil), tr.Tasks...),
	}
	nextID := 0
	for _, t := range tr.Tasks {
		if t.ID >= nextID {
			nextID = t.ID + 1
		}
	}
	for bi, b := range bursts {
		rng := rand.New(rand.NewSource(p.Seed + int64(bi)*7919 + b.AtSec))
		for i := 0; i < b.Count; i++ {
			start := b.AtSec + int64(rng.Float64()*float64(b.DurationSec))
			if start >= tr.HorizonSec {
				start = tr.HorizonSec - 1
			}
			dur := int64(rng.ExpFloat64() * float64(tr.HorizonSec) / 24)
			if dur < 60 {
				dur = 60
			}
			end := start + dur
			if end > tr.HorizonSec {
				end = tr.HorizonSec
			}
			if end <= start {
				start = end - 60
				if start < 0 {
					start, end = 0, 60
				}
			}
			bookedCPU := 0.5 + rng.Float64()*1.5
			bookedMem := bookedCPU * 3 * (0.8 + rng.Float64()*0.4)
			util := 0.35 * (0.5 + rng.Float64())
			task := trace.Task{
				ID:           nextID,
				JobID:        -(bi + 1), // burst job IDs are negative, grouped per burst
				StartSec:     start,
				EndSec:       end,
				BookedCPU:    bookedCPU,
				BookedMemGiB: bookedMem,
				UsedCPU:      bookedCPU * util,
				UsedMemGiB:   bookedMem * util,
			}
			nextID++
			out.Tasks = append(out.Tasks, task)
		}
	}
	slices.SortStableFunc(out.Tasks, func(a, b trace.Task) int { return cmp.Compare(a.StartSec, b.StartSec) })
	return out
}

package energy

import (
	"fmt"
	"sort"

	"repro/internal/acpi"
)

// Config identifies one of the measured machine configurations of Table 3.
type Config string

// Measured configurations (Table 3 column headers).
const (
	S0WithoutIB Config = "S0WOIB"   // S0, Infiniband card removed
	S0WithIBOff Config = "S0WIBOff" // S0, Infiniband card present but idle
	S0WithIBOn  Config = "S0WIBOn"  // S0, Infiniband card in use
	S3WithoutIB Config = "S3WOIB"
	S3WithIB    Config = "S3WIB"
	S4WithoutIB Config = "S4WOIB"
	S4WithIB    Config = "S4WIB"
	SzEstimated Config = "Sz"
)

// AllConfigs returns the Table 3 configurations in presentation order.
func AllConfigs() []Config {
	return []Config{S0WithoutIB, S0WithIBOff, S0WithIBOn, S3WithoutIB, S3WithIB, S4WithoutIB, S4WithIB, SzEstimated}
}

// MachineProfile carries the measured power of one machine model in each
// configuration, as a fraction of its maximum power Emax (0..1), plus the
// idle and peak power needed for the utilization curve.
type MachineProfile struct {
	// Name of the machine model ("HP", "Dell", ...).
	Name string
	// MaxPowerWatts is Emax in watts; results are reported relative to it, so
	// the exact value only matters when converting to joules.
	MaxPowerWatts float64
	// IdleFraction is the fraction of Emax drawn at 0% utilization in S0
	// (typical servers idle at 50-60% of peak, per Figure 1).
	IdleFraction float64
	// Measured holds the Table 3 fractions keyed by configuration. The Sz
	// entry may be absent; EstimateSz fills it via Equation 1.
	Measured map[Config]float64
}

// HPProfile returns the paper's HP Compaq Elite 8300 measurements (Table 3).
func HPProfile() *MachineProfile {
	return &MachineProfile{
		Name:          "HP",
		MaxPowerWatts: 120,
		IdleFraction:  0.4616, // the paper's S0WOIB measurement is the idle machine
		Measured: map[Config]float64{
			S0WithoutIB: 0.4616,
			S0WithIBOff: 0.5220,
			S0WithIBOn:  0.5384,
			S3WithoutIB: 0.0423,
			S3WithIB:    0.1103,
			S4WithoutIB: 0.0019,
			S4WithIB:    0.0681,
		},
	}
}

// DellProfile returns the paper's Dell Precision Tower 5810 measurements.
func DellProfile() *MachineProfile {
	return &MachineProfile{
		Name:          "Dell",
		MaxPowerWatts: 180,
		IdleFraction:  0.3535,
		Measured: map[Config]float64{
			S0WithoutIB: 0.3535,
			S0WithIBOff: 0.4233,
			S0WithIBOn:  0.4477,
			S3WithoutIB: 0.0197,
			S3WithIB:    0.0871,
			S4WithoutIB: 0.0112,
			S4WithIB:    0.0831,
		},
	}
}

// Profiles returns both testbed machine profiles with their Sz estimate
// already computed.
func Profiles() []*MachineProfile {
	hp := HPProfile()
	dell := DellProfile()
	hp.EstimateSz()
	dell.EstimateSz()
	return []*MachineProfile{hp, dell}
}

// ProfileByName returns the named profile ("HP" or "Dell"), Sz filled in.
func ProfileByName(name string) (*MachineProfile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("energy: unknown machine profile %q", name)
}

// EstimateSz computes the Sz power fraction with the paper's Equation 1:
//
//	E(Sz) = (E(S0WIBOn) - E(S0WIBOff)) + (E(S3WIB) - E(S3WOIB)) + E(S3WOIB)
//
// i.e. the Infiniband activity cost, plus the wake-on-LAN circuitry cost, plus
// the S3 platform floor. The result is stored under SzEstimated and returned.
func (m *MachineProfile) EstimateSz() float64 {
	sz := m.szEstimate()
	m.Measured[SzEstimated] = sz
	return sz
}

// szEstimate computes Equation 1 without storing the result, so read paths
// (PowerFraction) stay free of side effects and safe for concurrent use.
func (m *MachineProfile) szEstimate() float64 {
	ibActivity := m.Measured[S0WithIBOn] - m.Measured[S0WithIBOff]
	wolCircuitry := m.Measured[S3WithIB] - m.Measured[S3WithoutIB]
	return ibActivity + wolCircuitry + m.Measured[S3WithoutIB]
}

// Validate checks that the profile is self-consistent: all fractions within
// [0,1], S0 configurations above the sleep configurations, and the
// with-Infiniband variants at least as expensive as without.
func (m *MachineProfile) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("energy: profile needs a name")
	}
	if m.MaxPowerWatts <= 0 {
		return fmt.Errorf("energy: profile %q needs a positive MaxPowerWatts", m.Name)
	}
	for c, v := range m.Measured {
		if v < 0 || v > 1 {
			return fmt.Errorf("energy: profile %q config %s fraction %v outside [0,1]", m.Name, c, v)
		}
	}
	pairs := [][2]Config{
		{S0WithIBOff, S0WithoutIB},
		{S0WithIBOn, S0WithIBOff},
		{S3WithIB, S3WithoutIB},
		{S4WithIB, S4WithoutIB},
	}
	for _, p := range pairs {
		if m.Measured[p[0]] < m.Measured[p[1]] {
			return fmt.Errorf("energy: profile %q expects %s >= %s", m.Name, p[0], p[1])
		}
	}
	if m.Measured[S3WithoutIB] >= m.Measured[S0WithoutIB] {
		return fmt.Errorf("energy: profile %q expects S3 below S0", m.Name)
	}
	return nil
}

// PowerFraction returns the fraction of Emax drawn by a server in the given
// ACPI state at the given CPU utilization (0..1). Only S0 depends on
// utilization; sleeping states use the Table 3 / Equation 1 fractions. Servers
// in sleep states keep their wake NIC powered, hence the *WithIB variants.
// PowerFraction never mutates the profile, so it is safe for concurrent use
// (the parallel datacenter simulator evaluates it from many goroutines).
func (m *MachineProfile) PowerFraction(state acpi.SleepState, utilization float64) float64 {
	if utilization < 0 {
		utilization = 0
	}
	if utilization > 1 {
		utilization = 1
	}
	switch state {
	case acpi.S0:
		// Linear interpolation between the idle floor (IB card on, idle) and
		// Emax, the common first-order server power model behind Figure 1.
		idle := m.Measured[S0WithIBOff]
		return idle + (1-idle)*utilization
	case acpi.S1, acpi.S2:
		return m.Measured[S3WithIB] * 1.5 // shallower than S3; rarely used
	case acpi.S3:
		return m.Measured[S3WithIB]
	case acpi.Sz:
		if v, ok := m.Measured[SzEstimated]; ok {
			return v
		}
		return m.szEstimate()
	case acpi.S4:
		return m.Measured[S4WithIB]
	case acpi.S5:
		return m.Measured[S4WithoutIB] // soft-off ~ hibernate floor
	default:
		return 0
	}
}

// PowerWatts converts PowerFraction to watts using MaxPowerWatts.
func (m *MachineProfile) PowerWatts(state acpi.SleepState, utilization float64) float64 {
	return m.PowerFraction(state, utilization) * m.MaxPowerWatts
}

// Table3Row reproduces one machine row of Table 3: the percentage of maximum
// energy in each measured configuration plus the Sz estimate, in the paper's
// column order.
func (m *MachineProfile) Table3Row() []float64 {
	m.EstimateSz()
	row := make([]float64, 0, len(AllConfigs()))
	for _, c := range AllConfigs() {
		row = append(row, m.Measured[c]*100)
	}
	return row
}

// Accumulator integrates energy over simulated time for one machine. It is
// used by the datacenter simulator: every time a server changes state or
// utilization, the caller advances the accumulator.
type Accumulator struct {
	profile *MachineProfile

	state       acpi.SleepState
	utilization float64
	lastNs      int64

	joules        float64
	joulesByState map[acpi.SleepState]float64
	nsByState     map[acpi.SleepState]int64
}

// NewAccumulator starts accounting for a machine that begins in state S0 at
// zero utilization at simulated time 0.
func NewAccumulator(profile *MachineProfile) *Accumulator {
	return &Accumulator{
		profile:       profile,
		state:         acpi.S0,
		joulesByState: make(map[acpi.SleepState]float64),
		nsByState:     make(map[acpi.SleepState]int64),
	}
}

// AdvanceTo integrates power up to nowNs using the current state and
// utilization. Calls with a timestamp in the past are ignored.
func (a *Accumulator) AdvanceTo(nowNs int64) {
	if nowNs <= a.lastNs {
		return
	}
	dt := float64(nowNs-a.lastNs) / 1e9
	watts := a.profile.PowerWatts(a.state, a.utilization)
	a.joules += watts * dt
	a.joulesByState[a.state] += watts * dt
	a.nsByState[a.state] += nowNs - a.lastNs
	a.lastNs = nowNs
}

// SetState records a state change effective at nowNs.
func (a *Accumulator) SetState(nowNs int64, s acpi.SleepState) {
	a.AdvanceTo(nowNs)
	a.state = s
}

// SetUtilization records a utilization change effective at nowNs.
func (a *Accumulator) SetUtilization(nowNs int64, u float64) {
	a.AdvanceTo(nowNs)
	a.utilization = u
}

// State returns the current state being accounted.
func (a *Accumulator) State() acpi.SleepState { return a.state }

// Joules returns the total accumulated energy.
func (a *Accumulator) Joules() float64 { return a.joules }

// JoulesInState returns the energy accumulated while in the given state.
func (a *Accumulator) JoulesInState(s acpi.SleepState) float64 { return a.joulesByState[s] }

// TimeInStateNs returns the simulated time spent in the given state.
func (a *Accumulator) TimeInStateNs(s acpi.SleepState) int64 { return a.nsByState[s] }

// StatesSeen returns the states with non-zero accumulated time, sorted.
func (a *Accumulator) StatesSeen() []acpi.SleepState {
	var out []acpi.SleepState
	for s := range a.nsByState {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

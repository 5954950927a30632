package energy

import (
	"fmt"
	"sort"
	"strings"

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
// configuration, as a fraction of its maximum power Emax (0..1), and Emax in
// watts.
type MachineProfile struct {
	// Name of the machine model ("HP", "Dell", ...).
	Name string
	// MaxPowerWatts is Emax in watts; results are reported relative to it, so
	// the exact value only matters when converting to joules.
	MaxPowerWatts float64
	// Measured holds the Table 3 fractions keyed by configuration. The Sz
	// entry may be absent; EstimateSz fills it via Equation 1.
	Measured map[Config]float64
}

// HPProfile returns the paper's HP Compaq Elite 8300 measurements (Table 3).
func HPProfile() *MachineProfile {
	return &MachineProfile{
		Name:          "HP",
		MaxPowerWatts: 120,
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

// ProfileByName returns the named profile ("HP" or "Dell", in any case), Sz
// filled in. Every front end that takes a machine name resolves it here.
func ProfileByName(name string) (*MachineProfile, error) {
	for _, p := range Profiles() {
		if strings.EqualFold(p.Name, name) {
			return p, nil
		}
	}
	return nil, fmt.Errorf("energy: unknown machine %q (valid: HP, Dell)", name)
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
// ACPI state at the given CPU utilization (0..1), as its Prices table does.
// It never mutates the profile, so it is safe for concurrent use.
func (m *MachineProfile) PowerFraction(state acpi.SleepState, utilization float64) float64 {
	p := m.Prices()
	return p.fraction(state, utilization)
}

// Prices is a MachineProfile compiled for pricing: Emax and the fraction of
// it each ACPI state draws (S0's at idle), read from an array rather than
// the Measured map. A simulation compiles one per configuration.
type Prices struct {
	MaxPowerWatts float64
	fractions     [acpi.Sz + 1]float64
}

// Prices compiles the profile. Sleeping servers keep their wake NIC
// powered, hence the *WithIB variants; Sz is the Measured entry when there
// is one and Equation 1 otherwise.
func (m *MachineProfile) Prices() Prices {
	sz, ok := m.Measured[SzEstimated]
	if !ok {
		sz = m.szEstimate()
	}
	s3 := m.Measured[S3WithIB]
	return Prices{MaxPowerWatts: m.MaxPowerWatts, fractions: [...]float64{
		acpi.S0: m.Measured[S0WithIBOff],     // the idle floor: IB card present, idle
		acpi.S1: s3 * 1.5, acpi.S2: s3 * 1.5, // shallower than S3; rarely used
		acpi.S3: s3, acpi.Sz: sz, acpi.S4: m.Measured[S4WithIB],
		acpi.S5: m.Measured[S4WithoutIB], // soft-off ~ hibernate floor
	}}
}

// fraction is PowerFraction. Only S0 depends on the utilization, clamped to
// 0..1: a linear interpolation from the idle floor to Emax, the common
// first-order server power model behind Figure 1. A state outside acpi's
// draws nothing.
func (p *Prices) fraction(state acpi.SleepState, utilization float64) float64 {
	if state == acpi.S0 {
		idle := p.fractions[acpi.S0]
		return idle + (1-idle)*min(max(utilization, 0), 1)
	}
	if uint(state) < uint(len(p.fractions)) {
		return p.fractions[state]
	}
	return 0
}

// PowerWatts converts PowerFraction to watts.
func (p *Prices) PowerWatts(state acpi.SleepState, utilization float64) float64 {
	return p.fraction(state, utilization) * p.MaxPowerWatts
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
	prices Prices

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
		prices:        profile.Prices(),
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
	watts := a.prices.PowerWatts(a.state, a.utilization)
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

package energy

import (
	"fmt"
	"math"

	"repro/internal/acpi"
)

// UtilizationPoint is one point of the Figure 1 curve: the energy drawn by a
// server at the given utilization, as a fraction of Emax, for both the actual
// (non-proportional) server and the ideal energy-proportional server.
type UtilizationPoint struct {
	Utilization float64 // 0..1
	Actual      float64 // fraction of Emax, actual server
	Ideal       float64 // fraction of Emax, ideal energy-proportional server
}

// UtilizationCurve reproduces Figure 1 for a machine profile: the solid
// "actual" line with its high idle floor versus the dashed ideal
// energy-proportional line, sampled at the given number of points from 0 to
// 100% utilization.
func UtilizationCurve(m *MachineProfile, points int) []UtilizationPoint {
	if points < 2 {
		points = 2
	}
	out := make([]UtilizationPoint, points)
	for i := 0; i < points; i++ {
		u := float64(i) / float64(points-1)
		out[i] = UtilizationPoint{
			Utilization: u,
			Actual:      m.PowerFraction(acpi.S0, u),
			Ideal:       u,
		}
	}
	return out
}

// SleepStateLadder returns the Figure 1 annotations: the power floor of each
// sleep state (S0 idle, S3, S4, S5 and Sz) for a machine, as fractions of
// Emax, in descending power order.
func SleepStateLadder(m *MachineProfile) map[string]float64 {
	p := m.Prices()
	return map[string]float64{
		"S0idle": p.fractions[acpi.S0],
		"Sz":     p.fractions[acpi.Sz],
		"S3":     p.fractions[acpi.S3],
		"S4":     p.fractions[acpi.S4],
		"S5":     p.fractions[acpi.S5],
	}
}

// ProportionalityGap quantifies how far a machine is from ideal energy
// proportionality: the mean over utilization of (actual - ideal), in fractions
// of Emax. Zero means perfectly proportional.
func ProportionalityGap(m *MachineProfile, points int) float64 {
	curve := UtilizationCurve(m, points)
	var sum float64
	for _, p := range curve {
		sum += p.Actual - p.Ideal
	}
	return sum / float64(len(curve))
}

// RackArchitecture identifies one of the four rack organisations compared in
// Figure 4.
type RackArchitecture int

// The four architectures of Figure 4.
const (
	ServerCentric        RackArchitecture = iota // (a) classic servers, unused memory stranded
	IdealDisaggregation                          // (b) every resource on its own board
	MicroServers                                 // (c) many small {CPU,mem} nodes sharing net/disk
	ZombieDisaggregation                         // (d) the paper's proposal: Sz servers lend memory
)

// String names the architecture.
func (r RackArchitecture) String() string {
	switch r {
	case ServerCentric:
		return "server-centric"
	case IdealDisaggregation:
		return "ideal-disaggregation"
	case MicroServers:
		return "micro-servers"
	case ZombieDisaggregation:
		return "zombie"
	default:
		return fmt.Sprintf("RackArchitecture(%d)", int(r))
	}
}

// AllArchitectures lists the four architectures in the paper's order.
func AllArchitectures() []RackArchitecture {
	return []RackArchitecture{ServerCentric, IdealDisaggregation, MicroServers, ZombieDisaggregation}
}

// RackScenario is the Figure 4 thought experiment: a rack of three servers
// whose aggregate demand needs roughly one server's CPU and two servers'
// memory. The estimate returns the total rack energy in units of Emax.
type RackScenario struct {
	// Servers in the rack.
	Servers int
	// CPUDemandServers is the aggregate CPU demand expressed in whole servers.
	CPUDemandServers float64
	// MemDemandServers is the aggregate memory demand expressed in whole servers.
	MemDemandServers float64
	// Profile supplies the power fractions; Figure 4 uses rough approximations,
	// which DefaultRackScenario reproduces with a generic profile.
	Profile *MachineProfile
}

// DefaultRackScenario returns the paper's three-server scenario with the
// generic fractions the paper uses for its guidance figures.
func DefaultRackScenario() RackScenario {
	generic := &MachineProfile{
		Name:          "generic",
		MaxPowerWatts: 200,
		Measured: map[Config]float64{
			S0WithoutIB: 0.55,
			S0WithIBOff: 0.55,
			S0WithIBOn:  0.57,
			S3WithoutIB: 0.05,
			S3WithIB:    0.10,
			S4WithoutIB: 0.01,
			S4WithIB:    0.05,
		},
	}
	generic.EstimateSz()
	return RackScenario{
		Servers:          3,
		CPUDemandServers: 1.0,
		MemDemandServers: 2.0,
		Profile:          generic,
	}
}

// Energy estimates the total rack energy (in units of Emax) for the given
// architecture, reproducing the per-architecture reasoning of Figure 4:
//
//   - server-centric: memory demand forces ceil(MemDemand) servers to stay in
//     S0 even though their CPUs are mostly idle;
//   - ideal disaggregation: CPU boards sized to CPU demand, memory boards sized
//     to memory demand, idle boards off (memory boards cost a small fraction);
//   - micro-servers: same coupling problem as server-centric, slightly cheaper
//     nodes because network/storage are shared;
//   - zombie: ceil(CPUDemand) servers in S0, the servers holding the remaining
//     memory demand in Sz, the rest suspended to S3.
func (s RackScenario) Energy(arch RackArchitecture) float64 {
	p := s.Profile
	p.EstimateSz()
	cpuServers := math.Ceil(s.CPUDemandServers)
	memServers := math.Ceil(s.MemDemandServers)
	active := math.Max(cpuServers, memServers)
	if active > float64(s.Servers) {
		active = float64(s.Servers)
	}

	// The utilization of each active server when demand is spread across them.
	activeUtil := 0.0
	if active > 0 {
		activeUtil = s.CPUDemandServers / active
	}

	switch arch {
	case ServerCentric:
		// The multidimensional packing problem (memory saturates before CPU)
		// prevents consolidation below the full rack: every server stays in S0
		// at low CPU utilization. With three servers this reproduces the
		// paper's ~2.1 Emax guidance figure.
		rackUtil := s.CPUDemandServers / float64(s.Servers)
		return float64(s.Servers) * p.PowerFraction(acpi.S0, rackUtil)
	case IdealDisaggregation:
		// CPU boards sized to CPU demand (a CPU board draws ~85% of a full
		// server because it carries no DRAM), memory boards at ~15% of a
		// server's power per memory-server-equivalent; idle boards are off.
		const (
			cpuBoardFraction = 0.85
			memBoardFraction = 0.15
		)
		e := s.CPUDemandServers * cpuBoardFraction * p.PowerFraction(acpi.S0, 1.0)
		e += s.MemDemandServers * memBoardFraction
		return e
	case MicroServers:
		// Twice as many nodes, each half as big; memory demand still pins
		// 2*MemDemand micro-nodes on, each at ~45% of a full server's power.
		const microNodeFraction = 0.45
		nodes := float64(s.Servers) * 2
		neededNodes := math.Ceil(s.MemDemandServers * 2)
		if neededNodes > nodes {
			neededNodes = nodes
		}
		e := neededNodes * microNodeFraction * p.PowerFraction(acpi.S0, activeUtil) / p.PowerFraction(acpi.S0, 0.5)
		e += (nodes - neededNodes) * microNodeFraction * p.PowerFraction(acpi.S3, 0)
		return e
	case ZombieDisaggregation:
		// CPU demand pins ceil(CPUDemand) servers in S0 at high utilization;
		// the extra memory demand is served by zombie servers in Sz; any
		// remaining server sleeps in S3.
		s0Servers := cpuServers
		if s0Servers > float64(s.Servers) {
			s0Servers = float64(s.Servers)
		}
		extraMem := s.MemDemandServers - s0Servers
		if extraMem < 0 {
			extraMem = 0
		}
		szServers := math.Ceil(extraMem)
		if s0Servers+szServers > float64(s.Servers) {
			szServers = float64(s.Servers) - s0Servers
		}
		sleepServers := float64(s.Servers) - s0Servers - szServers
		util := s.CPUDemandServers / s0Servers
		e := s0Servers * p.PowerFraction(acpi.S0, util)
		e += szServers * p.PowerFraction(acpi.Sz, 0)
		e += sleepServers * p.PowerFraction(acpi.S3, 0)
		return e
	default:
		return 0
	}
}

// Figure4 returns the rack energy of every architecture for the scenario, in
// the paper's presentation order. The paper's rough guidance values are
// 2.1, 1.15, 1.8 and 1.2 Emax respectively; the model reproduces the ordering
// and approximate ratios.
func (s RackScenario) Figure4() map[RackArchitecture]float64 {
	out := make(map[RackArchitecture]float64, 4)
	for _, a := range AllArchitectures() {
		out[a] = s.Energy(a)
	}
	return out
}

// TrendPoint is one (year, ratio) sample of the motivation figures.
type TrendPoint struct {
	Year  int
	Ratio float64
}

// AWSDemandTrend reproduces Figure 2: the memory (GiB) : CPU (GHz) ratio of
// the AWS m<n>.<size> instance family over 2006-2016. The values trace the
// published instance specifications (m1 through m4 generations); the relevant
// property is the roughly 2x growth of memory demand relative to CPU demand.
func AWSDemandTrend() []TrendPoint {
	return []TrendPoint{
		{2006, 1.7}, // m1.small: 1.7 GiB / 1 ECU
		{2007, 1.9},
		{2008, 1.9}, // m1.large/xlarge keep the ratio
		{2009, 2.0},
		{2010, 2.2},
		{2011, 2.4}, // m2 high-memory generation pulls the family up
		{2012, 2.8}, // m3 generation
		{2013, 3.0},
		{2014, 3.4},
		{2015, 3.7}, // m4 generation
		{2016, 4.0},
	}
}

// ServerSupplyTrend reproduces Figure 3: the normalized memory : CPU capacity
// ratio of successive server generations 2005-2013, which declines as core
// counts outgrow DIMM capacity (roughly -30% every two years per the paper).
func ServerSupplyTrend() []TrendPoint {
	return []TrendPoint{
		{2005, 1.00},
		{2006, 0.95},
		{2007, 0.82},
		{2008, 0.70},
		{2009, 0.62},
		{2010, 0.52},
		{2011, 0.45},
		{2012, 0.38},
		{2013, 0.33},
	}
}

package energy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/acpi"
)

func TestProfilesValidate(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestTable3SzEstimate(t *testing.T) {
	// The paper's Table 3 reports Sz = 12.67% for HP and 11.15% for Dell.
	hp := HPProfile()
	dell := DellProfile()
	if got := hp.EstimateSz() * 100; math.Abs(got-12.67) > 0.05 {
		t.Errorf("HP Sz estimate = %.2f%%, paper reports 12.67%%", got)
	}
	if got := dell.EstimateSz() * 100; math.Abs(got-11.15) > 0.05 {
		t.Errorf("Dell Sz estimate = %.2f%%, paper reports 11.15%%", got)
	}
}

func TestSzBetweenS3AndS0(t *testing.T) {
	// Sz must cost more than S3 (it keeps DRAM+NIC in active idle) but far
	// less than an idle S0 server — that is the whole point of the state.
	for _, p := range Profiles() {
		sz := p.PowerFraction(acpi.Sz, 0)
		s3 := p.PowerFraction(acpi.S3, 0)
		s0idle := p.PowerFraction(acpi.S0, 0)
		if sz <= s3 {
			t.Errorf("%s: Sz (%.4f) should cost more than S3 (%.4f)", p.Name, sz, s3)
		}
		if sz >= s0idle/2 {
			t.Errorf("%s: Sz (%.4f) should be well below idle S0 (%.4f)", p.Name, sz, s0idle)
		}
	}
}

func TestTable3RowOrderAndValues(t *testing.T) {
	hp := HPProfile()
	row := hp.Table3Row()
	if len(row) != len(AllConfigs()) {
		t.Fatalf("row has %d entries, want %d", len(row), len(AllConfigs()))
	}
	// First column is S0WOIB = 46.16, last is the Sz estimate.
	if math.Abs(row[0]-46.16) > 0.01 {
		t.Errorf("row[0] = %.2f, want 46.16", row[0])
	}
	if math.Abs(row[len(row)-1]-12.67) > 0.05 {
		t.Errorf("Sz column = %.2f, want ~12.67", row[len(row)-1])
	}
}

func TestProfileByName(t *testing.T) {
	if _, err := ProfileByName("HP"); err != nil {
		t.Error(err)
	}
	if _, err := ProfileByName("Dell"); err != nil {
		t.Error(err)
	}
	if _, err := ProfileByName("IBM"); err == nil {
		t.Error("expected error for unknown profile")
	}
}

func TestPowerFractionMonotonicInUtilization(t *testing.T) {
	hp := HPProfile()
	prev := -1.0
	for u := 0.0; u <= 1.0; u += 0.05 {
		v := hp.PowerFraction(acpi.S0, u)
		if v < prev {
			t.Fatalf("power not monotonic at u=%.2f: %v < %v", u, v, prev)
		}
		prev = v
	}
	if got := hp.PowerFraction(acpi.S0, 1.0); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("full utilization should draw Emax, got %v", got)
	}
	// Clamping.
	if hp.PowerFraction(acpi.S0, -0.5) != hp.PowerFraction(acpi.S0, 0) {
		t.Error("negative utilization should clamp to 0")
	}
	if hp.PowerFraction(acpi.S0, 1.5) != hp.PowerFraction(acpi.S0, 1) {
		t.Error("utilization > 1 should clamp to 1")
	}
}

func TestPowerWatts(t *testing.T) {
	hp := HPProfile()
	p := hp.Prices()
	if got := p.PowerWatts(acpi.S0, 1.0); math.Abs(got-hp.MaxPowerWatts) > 1e-9 {
		t.Errorf("PowerWatts at full load = %v, want %v", got, hp.MaxPowerWatts)
	}
}

func TestStateLadderOrdering(t *testing.T) {
	// S0idle > Sz > S3 > S4 > S5 for both machines (Table 3 + Figure 1).
	for _, p := range Profiles() {
		l := SleepStateLadder(p)
		if !(l["S0idle"] > l["Sz"] && l["Sz"] > l["S3"] && l["S3"] > l["S4"]) {
			t.Errorf("%s ladder out of order: %+v", p.Name, l)
		}
	}
}

func TestUtilizationCurveShape(t *testing.T) {
	hp := HPProfile()
	curve := UtilizationCurve(hp, 11)
	if len(curve) != 11 {
		t.Fatalf("curve has %d points, want 11", len(curve))
	}
	if curve[0].Utilization != 0 || curve[len(curve)-1].Utilization != 1 {
		t.Error("curve should span 0..1")
	}
	for _, pt := range curve {
		if pt.Actual < pt.Ideal-1e-9 {
			t.Errorf("actual power (%v) below ideal (%v) at u=%v — real servers are never better than proportional",
				pt.Actual, pt.Ideal, pt.Utilization)
		}
	}
	// The gap is biggest at low utilization (Figure 1's whole point).
	gapLow := curve[1].Actual - curve[1].Ideal
	gapHigh := curve[len(curve)-2].Actual - curve[len(curve)-2].Ideal
	if gapLow <= gapHigh {
		t.Errorf("proportionality gap should shrink with utilization: low=%v high=%v", gapLow, gapHigh)
	}
	if ProportionalityGap(hp, 50) <= 0 {
		t.Error("proportionality gap must be positive for a real server")
	}
	if got := UtilizationCurve(hp, 1); len(got) != 2 {
		t.Errorf("degenerate point count should clamp to 2, got %d", len(got))
	}
}

func TestFigure4Ordering(t *testing.T) {
	s := DefaultRackScenario()
	fig := s.Figure4()
	// Paper's guidance: server-centric 2.1, micro-servers 1.8, zombie 1.2,
	// ideal 1.15 (in Emax units). Check the ordering and rough magnitudes.
	if !(fig[ServerCentric] > fig[MicroServers]) {
		t.Errorf("server-centric (%v) should cost more than micro-servers (%v)", fig[ServerCentric], fig[MicroServers])
	}
	if !(fig[MicroServers] > fig[ZombieDisaggregation]) {
		t.Errorf("micro-servers (%v) should cost more than zombie (%v)", fig[MicroServers], fig[ZombieDisaggregation])
	}
	if !(fig[ZombieDisaggregation] >= fig[IdealDisaggregation]) {
		t.Errorf("zombie (%v) should not beat ideal disaggregation (%v)", fig[ZombieDisaggregation], fig[IdealDisaggregation])
	}
	// Zombie should be within ~15% of ideal (1.2 vs 1.15 in the paper).
	if fig[ZombieDisaggregation] > fig[IdealDisaggregation]*1.25 {
		t.Errorf("zombie (%v) should be close to ideal (%v)", fig[ZombieDisaggregation], fig[IdealDisaggregation])
	}
	// Rough absolute bands in Emax units.
	if fig[ServerCentric] < 1.6 || fig[ServerCentric] > 2.6 {
		t.Errorf("server-centric energy %v outside the expected ~2.1 Emax band", fig[ServerCentric])
	}
	if fig[ZombieDisaggregation] < 0.9 || fig[ZombieDisaggregation] > 1.6 {
		t.Errorf("zombie energy %v outside the expected ~1.2 Emax band", fig[ZombieDisaggregation])
	}
}

func TestArchitectureStrings(t *testing.T) {
	for _, a := range AllArchitectures() {
		if a.String() == "" {
			t.Errorf("architecture %d has no name", int(a))
		}
	}
	if RackArchitecture(99).String() == "" {
		t.Error("unknown architecture should still render")
	}
}

func TestTrends(t *testing.T) {
	demand := AWSDemandTrend()
	supply := ServerSupplyTrend()
	if len(demand) < 5 || len(supply) < 5 {
		t.Fatal("trends should have several points")
	}
	// Demand ratio grows (Figure 2), supply ratio declines (Figure 3).
	if TrendGrowthFactor(demand) <= 1.5 {
		t.Errorf("AWS memory:CPU demand should roughly double, factor=%v", TrendGrowthFactor(demand))
	}
	if TrendGrowthFactor(supply) >= 0.6 {
		t.Errorf("server memory:CPU supply should decline markedly, factor=%v", TrendGrowthFactor(supply))
	}
	// Years must be ascending.
	for i := 1; i < len(demand); i++ {
		if demand[i].Year <= demand[i-1].Year {
			t.Error("demand trend years must ascend")
		}
	}
	for i := 1; i < len(supply); i++ {
		if supply[i].Year <= supply[i-1].Year {
			t.Error("supply trend years must ascend")
		}
	}
	if TrendGrowthFactor(nil) != 0 {
		t.Error("empty trend growth factor should be 0")
	}
}

func TestAccumulatorIntegration(t *testing.T) {
	hp := HPProfile()
	acc := NewAccumulator(hp)
	// 10s at S0 full load, 10s in Sz.
	acc.SetUtilization(0, 1.0)
	acc.SetState(10e9, acpi.Sz)
	acc.AdvanceTo(20e9)

	p := hp.Prices()
	wantS0 := p.PowerWatts(acpi.S0, 1.0) * 10
	wantSz := p.PowerWatts(acpi.Sz, 0) * 10 // utilization ignored in Sz? It keeps last utilization.
	_ = wantSz
	if got := acc.JoulesInState(acpi.S0); math.Abs(got-wantS0) > 1e-6 {
		t.Errorf("S0 joules = %v, want %v", got, wantS0)
	}
	if acc.JoulesInState(acpi.Sz) <= 0 {
		t.Error("Sz joules should be positive")
	}
	if acc.Joules() <= acc.JoulesInState(acpi.S0) {
		t.Error("total joules should exceed S0-only joules")
	}
	if got := acc.TimeInStateNs(acpi.S0); got != 10e9 {
		t.Errorf("time in S0 = %v, want 10e9", got)
	}
	if acc.State() != acpi.Sz {
		t.Errorf("accumulator state = %v, want Sz", acc.State())
	}
	if len(acc.StatesSeen()) != 2 {
		t.Errorf("states seen = %v, want 2 entries", acc.StatesSeen())
	}
	// Time going backwards is ignored.
	before := acc.Joules()
	acc.AdvanceTo(5e9)
	if acc.Joules() != before {
		t.Error("AdvanceTo in the past must be a no-op")
	}
}

func TestAccumulatorZombieVsIdle(t *testing.T) {
	// A server parked in Sz for an hour must consume far less than an idle S0
	// server over the same hour — the headline claim of the paper.
	hp := HPProfile()
	idle := NewAccumulator(hp)
	idle.SetUtilization(0, 0)
	idle.AdvanceTo(3600e9)

	zombie := NewAccumulator(hp)
	zombie.SetState(0, acpi.Sz)
	zombie.AdvanceTo(3600e9)

	if zombie.Joules() >= idle.Joules()*0.5 {
		t.Errorf("zombie hour (%v J) should be well below half an idle hour (%v J)", zombie.Joules(), idle.Joules())
	}
}

// Property: the Sz estimate is always between S3WIB and S0WIBOff for any
// profile whose measurements respect the physical ordering.
func TestPropertySzEstimateBounds(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		// Build a synthetic but physically ordered profile.
		s3woib := 0.01 + float64(int(a)%50)/1000     // 0.01..0.06
		wol := float64(int(b)%80) / 1000             // 0..0.08
		ibIdle := 0.3 + float64(int(c)%200)/1000     // 0.3..0.5
		ibActive := ibIdle + float64(int(d)%50)/1000 // >= ibIdle
		p := &MachineProfile{
			Name:          "synthetic",
			MaxPowerWatts: 100,
			Measured: map[Config]float64{
				S0WithoutIB: ibIdle - 0.01,
				S0WithIBOff: ibIdle,
				S0WithIBOn:  ibActive,
				S3WithoutIB: s3woib,
				S3WithIB:    s3woib + wol,
				S4WithoutIB: 0.001,
				S4WithIB:    0.001 + wol,
			},
		}
		sz := p.EstimateSz()
		return sz >= p.Measured[S3WithIB]-1e-12 && sz < p.Measured[S0WithIBOff]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	bad := HPProfile()
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty name should be rejected")
	}
	bad = HPProfile()
	bad.MaxPowerWatts = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero max power should be rejected")
	}
	bad = HPProfile()
	bad.Measured[S0WithIBOn] = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("fraction > 1 should be rejected")
	}
	bad = HPProfile()
	bad.Measured[S3WithIB] = bad.Measured[S3WithoutIB] - 0.01
	if err := bad.Validate(); err == nil {
		t.Error("S3WIB below S3WOIB should be rejected")
	}
	bad = HPProfile()
	bad.Measured[S3WithoutIB] = bad.Measured[S0WithoutIB] + 0.1
	if err := bad.Validate(); err == nil {
		t.Error("S3 above S0 should be rejected")
	}
}

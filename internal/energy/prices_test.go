package energy

import (
	"math"
	"testing"

	"repro/internal/acpi"
)

// fractionRef is the state -> fraction rule read straight from the Measured
// map, the way a profile priced before it compiled a table.
func fractionRef(m *MachineProfile, state acpi.SleepState, utilization float64) float64 {
	utilization = min(max(utilization, 0), 1)
	switch state {
	case acpi.S0:
		idle := m.Measured[S0WithIBOff]
		return idle + (1-idle)*utilization
	case acpi.S1, acpi.S2:
		return m.Measured[S3WithIB] * 1.5
	case acpi.S3:
		return m.Measured[S3WithIB]
	case acpi.Sz:
		if v, ok := m.Measured[SzEstimated]; ok {
			return v
		}
		ibActivity := m.Measured[S0WithIBOn] - m.Measured[S0WithIBOff]
		wolCircuitry := m.Measured[S3WithIB] - m.Measured[S3WithoutIB]
		return ibActivity + wolCircuitry + m.Measured[S3WithoutIB]
	case acpi.S4:
		return m.Measured[S4WithIB]
	case acpi.S5:
		return m.Measured[S4WithoutIB]
	}
	return 0
}

// TestPricesMatchProfile is the price law: a compiled table, and
// PowerFraction, which reads one, give the map rule's fraction, watts and
// transition joules bit for bit, for every state, an out-of-range one
// included, at utilizations inside and outside 0..1, and for every
// transition pair; with Sz measured (HP, Dell) and estimated (no Sz entry).
func TestPricesMatchProfile(t *testing.T) {
	noSz := HPProfile()
	noSz.Name = "HP without Sz"
	if _, ok := noSz.Measured[SzEstimated]; ok {
		t.Fatal("the bare HP profile carries an Sz entry")
	}
	profiles := append(Profiles(), noSz)
	states := append(acpi.AllStates(), acpi.SleepState(-1), acpi.Sz+1)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, m := range profiles {
		p := m.Prices()
		if p.MaxPowerWatts != m.MaxPowerWatts {
			t.Errorf("%s: table Emax %v, profile %v", m.Name, p.MaxPowerWatts, m.MaxPowerWatts)
		}
		for _, s := range states {
			for _, u := range []float64{-0.5, 0, 0.37, 1, 1.5} {
				want := fractionRef(m, s, u)
				if got := p.fraction(s, u); !same(got, want) {
					t.Errorf("%s %v at %v: table fraction %v, map rule %v", m.Name, s, u, got, want)
				}
				if got := m.PowerFraction(s, u); !same(got, want) {
					t.Errorf("%s %v at %v: PowerFraction %v, map rule %v", m.Name, s, u, got, want)
				}
				if got, watts := p.PowerWatts(s, u), want*m.MaxPowerWatts; !same(got, watts) {
					t.Errorf("%s %v at %v: table watts %v, map rule %v", m.Name, s, u, got, watts)
				}
			}
			for _, to := range states {
				want := fractionRef(m, acpi.S0, 0) * m.MaxPowerWatts * TransitionSeconds(s, to)
				if got := p.TransitionJoules(s, to); !same(got, want) {
					t.Errorf("%s %v->%v: table joules %v, map rule %v", m.Name, s, to, got, want)
				}
			}
		}
	}
}

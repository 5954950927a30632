package energy

import (
	"testing"

	"repro/internal/acpi"
)

func TestTransitionJoules(t *testing.T) {
	for _, m := range Profiles() {
		p := m.Prices()
		idleWatts := p.PowerWatts(acpi.S0, 0)
		suspend := p.TransitionJoules(acpi.S0, acpi.S3)
		if want := idleWatts * TransitionSeconds(acpi.S0, acpi.S3); suspend != want {
			t.Errorf("%s: S0->S3 = %v J, want %v", m.Name, suspend, want)
		}
		if suspend <= 0 {
			t.Errorf("%s: suspend energy must be positive", m.Name)
		}
		if p.TransitionJoules(acpi.S0, acpi.S0) != 0 {
			t.Errorf("%s: S0->S0 should be free", m.Name)
		}
		// Sz resume is modelled marginally faster than S3 resume (no
		// memory-controller retraining), so its wake energy is no higher.
		if zs, s3 := p.TransitionJoules(acpi.Sz, acpi.S0), p.TransitionJoules(acpi.S3, acpi.S0); zs > s3 {
			t.Errorf("%s: Sz wake %v J exceeds S3 wake %v J", m.Name, zs, s3)
		}
	}
}

func TestTransitionSeconds(t *testing.T) {
	if got, want := TransitionSeconds(acpi.S0, acpi.S3), float64(acpi.Latency(acpi.S3).Enter)/1e9; got != want {
		t.Errorf("S0->S3 = %v s, want %v", got, want)
	}
}

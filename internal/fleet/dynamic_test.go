package fleet

import (
	"testing"

	"repro/internal/acpi"
)

// TestFleetSuspend drives the conventional-sleep path: Suspend routes S3
// through the server's sleep transition and refuses a bad rack index.
func TestFleetSuspend(t *testing.T) {
	f, err := New(testConfig(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}

	// Suspend routes S3 through the conventional sleep path and Sz through
	// the zombie path.
	empty := "" // find a server with no VMs to suspend
	for _, name := range f.Rack(1).Servers() {
		if s, err := f.Rack(1).Server(name); err == nil && len(s.VMs()) == 0 {
			empty = name
			break
		}
	}
	if empty == "" {
		t.Fatal("no empty server to suspend")
	}
	if err := f.Suspend(1, empty, acpi.S3); err != nil {
		t.Fatal(err)
	}
	s, err := f.Rack(1).Server(empty)
	if err != nil {
		t.Fatal(err)
	}
	if s.State() != acpi.S3 {
		t.Fatalf("server %s in %v after Suspend(S3)", empty, s.State())
	}
	if err := f.Suspend(5, empty, acpi.S3); err == nil {
		t.Fatal("Suspend accepted an out-of-range rack index")
	}
}

package energy

import "repro/internal/acpi"

// Transition energy: during a suspend or resume the platform is neither doing
// useful work nor in its low-power destination state — the CPU runs the OSPM
// path, devices are sequenced through their D-states, and firmware re-inits
// the chipset on the way back up. The paper's S3/Sz transitions take seconds
// (Section 6.6), so at datacenter scale the consolidation loop pays a real
// energy bill every time it changes a server's state. The model here charges
// every transition at the machine's S0 idle power for the transition's
// latency (the platform is powered and busy with housekeeping, not with
// guest work), using the canonical latencies of acpi.TransitionNs.

// TransitionSeconds returns the wall-clock duration of one from -> to global
// state transition in seconds of simulated time.
func TransitionSeconds(from, to acpi.SleepState) float64 {
	return float64(acpi.TransitionNs(from, to)) / 1e9
}

// TransitionJoules returns the energy one from -> to transition costs on this
// machine: the S0 idle power drawn for the transition latency. Transitions
// between two sleep states pay the full wake-plus-resuspend path, matching
// acpi.TransitionNs.
func (p *Prices) TransitionJoules(from, to acpi.SleepState) float64 {
	return p.PowerWatts(acpi.S0, 0) * TransitionSeconds(from, to)
}

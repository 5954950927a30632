package fleet

import "repro/internal/acpi"

// Suspend moves one rack's server into a conventional sleep state (S3/S4);
// Sz routes through the zombie path. The counterpart of PushToZombie for
// postures that give up the server's memory entirely. Crashed servers are
// refused; serialised against the batch entry points.
func (f *Fleet) Suspend(rack int, server string, state acpi.SleepState) error {
	if err := f.checkRack(rack); err != nil {
		return err
	}
	if err := f.serverFault(rack, server, false); err != nil {
		return err
	}
	f.batchMu.Lock()
	defer f.batchMu.Unlock()
	return f.racks[rack].Suspend(server, state)
}

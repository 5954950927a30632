// Package cliflag holds the shared flag-validation helpers for the command
// line flags that are not part of a run spec (trace.Spec, autopilot.Spec):
// fleetd's serving knobs, fleetload's load shape, fleetsim's fleet shape,
// membench's rack and traffic and the -workers pools. Every such flag is validated upfront — before any
// fleet or simulation state is built — and the error strings are pinned by
// CLI tests, so the helpers produce one canonical message format:
//
//	-racks 0 out of range (need >= 1)
//	-vm-gib 0 out of range (need > 0)
//
// The spec's own fields are checked by the spec and name their JSON key.
package cliflag

import "fmt"

// PositiveInt checks an integer flag that must be at least 1. The name is
// the flag's spelling including the leading dash ("-racks").
func PositiveInt(name string, v int) error {
	if v < 1 {
		return fmt.Errorf("%s %d out of range (need >= 1)", name, v)
	}
	return nil
}

// PositiveFloat checks a float flag that must be strictly positive (NaN is
// not).
func PositiveFloat(name string, v float64) error {
	if !(v > 0) {
		return fmt.Errorf("%s %g out of range (need > 0)", name, v)
	}
	return nil
}

// NonNegativeInt checks an integer flag that must be at least 0.
func NonNegativeInt(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("%s %d out of range (need >= 0)", name, v)
	}
	return nil
}

// FirstError returns the first non-nil error, so a command can list every
// flag check in one place and fail on the first violation in flag order.
func FirstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

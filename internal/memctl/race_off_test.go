//go:build !race

package memctl

// stateDepth bounds TestStateSpace's search (see race_on_test.go).
const stateDepth = 6

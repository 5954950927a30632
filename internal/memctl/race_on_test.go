//go:build race

package memctl

// stateDepth bounds TestStateSpace's search. The race detector slows each
// replay several times over, so the race job searches a shallower space.
const stateDepth = 4

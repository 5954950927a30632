package memplane

import (
	"testing"

	"repro/internal/memctl"
	"repro/internal/rdma"
)

// rig is a miniature rack for data-plane tests: a fabric, a controller and a
// few agents, with the listed servers pushed into the zombie posture (device
// down but serving, memory delegated). Two rigs built from the same arguments
// are bit-identical — same buffer IDs, same rkeys — which is what the
// differential tests lean on.
type rig struct {
	fabric  *rdma.Fabric
	ctr     *memctl.GlobalController
	agents  map[string]*memctl.Agent
	devices map[string]*rdma.Device
}

const (
	rigBufSize  = int64(16 << 10) // 4 pages per buffer
	rigTotalMem = int64(256 << 10)
	// testSpan is the address space of a test plane: larger than any test
	// touches, and free until written since the mirror is sparse.
	testSpan = 64 * DefaultPageSize
)

// newRig builds a rig. The first name is the user server (fully reserved, so
// it lends nothing); every name in zombies is delegated and suspended.
func newRig(t testing.TB, names, zombies []string) *rig {
	t.Helper()
	r := &rig{
		fabric:  rdma.NewFabric(rdma.DefaultCostModel()),
		agents:  make(map[string]*memctl.Agent),
		devices: make(map[string]*rdma.Device),
	}
	r.ctr = memctl.NewGlobalController(memctl.WithBufferSize(rigBufSize))
	resolve := func(id memctl.ServerID) *rdma.Device { return r.devices[string(id)] }
	for i, name := range names {
		dev, err := r.fabric.AttachDevice(name)
		if err != nil {
			t.Fatalf("attach %s: %v", name, err)
		}
		reserved := int64(0)
		if i == 0 {
			reserved = rigTotalMem // the user server keeps everything local
		}
		agent, err := memctl.NewAgent(memctl.AgentConfig{
			ID:            memctl.ServerID(name),
			Controller:    r.ctr,
			Device:        dev,
			TotalMem:      rigTotalMem,
			ReservedMem:   reserved,
			ResolveDevice: resolve,
		})
		if err != nil {
			t.Fatalf("agent %s: %v", name, err)
		}
		r.devices[name] = dev
		r.agents[name] = agent
	}
	for _, name := range zombies {
		if _, err := r.agents[name].DelegateAndGoZombie(); err != nil {
			t.Fatalf("zombie %s: %v", name, err)
		}
		r.devices[name].SetUp(false)
		r.devices[name].SetServing(true)
	}
	return r
}

// user returns the rig's user-server agent (the plane's growth path).
func (r *rig) user(t testing.TB, names []string) *memctl.Agent {
	t.Helper()
	return r.agents[names[0]]
}

// fillPattern writes a deterministic page-sized pattern for addr.
func fillPattern(dst []byte, addr int64, salt byte) {
	for i := range dst {
		dst[i] = byte(addr>>4) + byte(i)*7 + salt
	}
}

package fleet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/memctl"
	"repro/internal/rdma"
)

// Config parameterises a Fleet.
type Config struct {
	// Racks is the number of racks to federate (at least 1).
	Racks int
	// Rack is the template configuration every rack is built from; the fleet
	// overrides NamePrefix per rack ("rack-00/", "rack-01/", ...).
	Rack core.Config
	// Workers is the worker-pool size used by the batched placement and
	// workload execution paths. 0 or 1 processes the rack shards
	// sequentially; every shard touches only its own rack (plus pre-reserved
	// borrow pools), so any value yields bit-identical results (asserted by
	// TestFleetParallelMatchesSequential).
	Workers int
}

// Fleet federates N racks behind one control plane: sharded placement and
// execution, cross-rack remote memory borrowing, and fleet-level fault
// tolerance. See the package documentation for the architecture.
type Fleet struct {
	cfg   Config
	names []string
	racks []*core.Rack

	// batchMu serialises the batch entry points (PlaceVMs, RunWorkloads,
	// DestroyVM, FailoverRack): batches parallelise internally across rack
	// shards, they are not concurrent with each other.
	batchMu sync.Mutex

	// mu guards the fleet bookkeeping below.
	mu sync.Mutex
	// vmNames interns fleet-placed VM IDs; vmRack is dense by that ID with
	// the hosting rack index (-1 = not placed / destroyed). The hot
	// per-request lookup in RunWorkloads is one read-locked intern-table
	// probe and a slice index instead of a string-map hash.
	vmNames   *ident.Registry
	vmRack    []int32
	gateways  map[gwKey]*memctl.Agent
	ledger    []Borrow
	overflows []*rackOverflow
	// crashed and injector are the fault surface (see chaos.go): crashed
	// servers are refused by every control-plane path and skipped by batch
	// placement; the injector force-fails individual wake attempts. The
	// crash set is a bitset over the fleet's server-name registry.
	crashed  *ident.NameSet
	injector FaultInjector

	// obs is the resolved observability handle (see obs.go); nil means
	// disabled. An atomic pointer so SetObs needs no lock ordering against
	// in-flight batches.
	obs atomic.Pointer[fleetObs]
}

// gwKey identifies a gateway agent: the borrower rack's identity on the
// lender rack's controller and fabric.
type gwKey struct {
	lender, borrower int
}

// Borrow is one cross-rack memory grant in the fleet's borrow ledger.
type Borrow struct {
	// VM is the guest whose remote memory crossed racks.
	VM string
	// Borrower and Lender name the racks.
	Borrower string
	Lender   string
	// Bytes and Buffers describe the grant (whole buffers).
	Bytes   int64
	Buffers int
}

// New builds a fleet of identically configured racks.
func New(cfg Config) (*Fleet, error) {
	if cfg.Racks < 1 {
		return nil, fmt.Errorf("fleet: a fleet needs at least one rack, got %d", cfg.Racks)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("fleet: negative worker count %d", cfg.Workers)
	}
	f := &Fleet{
		cfg:      cfg,
		vmNames:  ident.NewRegistry(),
		gateways: make(map[gwKey]*memctl.Agent),
		crashed:  ident.NewNameSet(ident.NewRegistry()),
	}
	for i := 0; i < cfg.Racks; i++ {
		name := fmt.Sprintf("rack-%02d", i)
		rackCfg := cfg.Rack
		rackCfg.NamePrefix = name + "/"
		r, err := core.NewRack(rackCfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: building %s: %w", name, err)
		}
		o := &rackOverflow{fleet: f, rack: i}
		r.SetRemoteOverflow(o)
		f.names = append(f.names, name)
		f.racks = append(f.racks, r)
		f.overflows = append(f.overflows, o)
	}
	return f, nil
}

// Racks returns the number of racks.
func (f *Fleet) Racks() int { return len(f.racks) }

// RackNames returns the rack names in index order.
func (f *Fleet) RackNames() []string { return append([]string(nil), f.names...) }

// Rack returns the i-th rack for direct (single-rack) operations.
func (f *Fleet) Rack(i int) *core.Rack { return f.racks[i] }

// RackOf returns the rack index hosting a VM placed through the fleet.
func (f *Fleet) RackOf(vmID string) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.vmRackLocked(vmID)
}

// vmRackLocked resolves a VM's rack index; the caller holds f.mu.
func (f *Fleet) vmRackLocked(vmID string) (int, bool) {
	id, ok := f.vmNames.Lookup(vmID)
	if !ok || int(id) >= len(f.vmRack) || f.vmRack[id] < 0 {
		return 0, false
	}
	return int(f.vmRack[id]), true
}

// setVMRackLocked records (or clears, with rack == -1) a VM's rack index;
// the caller holds f.mu.
func (f *Fleet) setVMRackLocked(vmID string, rack int) {
	id := f.vmNames.Intern(vmID)
	for int(id) >= len(f.vmRack) {
		f.vmRack = append(f.vmRack, -1)
	}
	f.vmRack[id] = int32(rack)
}

// PushToZombie suspends a server of one rack into Sz, feeding its memory into
// the fleet-wide pool. Serialised against the batch entry points, so posture
// changes and placements can race safely (TestFleetChaosUnderRace).
func (f *Fleet) PushToZombie(rack int, server string) error {
	if err := f.checkRack(rack); err != nil {
		return err
	}
	if err := f.serverFault(rack, server, false); err != nil {
		return err
	}
	f.batchMu.Lock()
	defer f.batchMu.Unlock()
	return f.racks[rack].PushToZombie(server)
}

// Wake resumes a server of one rack. A crashed server refuses the wake, and
// an installed FaultInjector can force-fail the attempt (ErrWakeFailed) —
// the server then stays in its sleep state, exactly the stuck-zombie fault
// of the chaos layer. Serialised against the batch entry points.
func (f *Fleet) Wake(rack int, server string) error {
	if err := f.checkRack(rack); err != nil {
		return err
	}
	if err := f.serverFault(rack, server, true); err != nil {
		return err
	}
	f.batchMu.Lock()
	defer f.batchMu.Unlock()
	return f.racks[rack].Wake(server)
}

func (f *Fleet) checkRack(i int) error {
	if i < 0 || i >= len(f.racks) {
		return fmt.Errorf("fleet: rack %d outside [0,%d)", i, len(f.racks))
	}
	return nil
}

// AdvanceClock moves simulated time forward on every rack. Serialised
// against the batch entry points and the per-server state operations.
func (f *Fleet) AdvanceClock(deltaNs int64) {
	f.batchMu.Lock()
	defer f.batchMu.Unlock()
	for _, r := range f.racks {
		r.AdvanceClock(deltaNs)
	}
}

// TotalEnergyJoules sums the energy of every rack, in rack order.
func (f *Fleet) TotalEnergyJoules() float64 {
	var total float64
	for _, r := range f.racks {
		total += r.TotalEnergyJoules()
	}
	return total
}

// EnergyReportAll concatenates the per-server energy reports of every rack,
// in rack order (server names carry the rack prefix).
func (f *Fleet) EnergyReportAll() []core.EnergyReport {
	var out []core.EnergyReport
	for _, r := range f.racks {
		out = append(out, r.EnergyReportAll()...)
	}
	return out
}

// FreeRemoteMemory returns the unallocated remote memory across the fleet.
func (f *Fleet) FreeRemoteMemory() int64 {
	var total int64
	for _, r := range f.racks {
		total += r.FreeRemoteMemory()
	}
	return total
}

// ResidentBytes returns the host memory the fleet's simulated DRAM occupies
// (see core.Rack.ResidentBytes).
func (f *Fleet) ResidentBytes() int64 {
	var total int64
	for _, r := range f.racks {
		total += r.ResidentBytes()
	}
	return total
}

// FabricStats returns each rack's fabric counters, in rack order. The
// InterRack* fields of a lender's stats carry the borrowed-memory traffic.
func (f *Fleet) FabricStats() []rdma.Stats {
	out := make([]rdma.Stats, len(f.racks))
	for i, r := range f.racks {
		out[i] = r.Fabric().Stats()
	}
	return out
}

// BorrowLedger returns a copy of the cross-rack borrow ledger, in grant
// order (batch order, then rack order within a batch).
func (f *Fleet) BorrowLedger() []Borrow {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Borrow(nil), f.ledger...)
}

// bufferSize returns the fleet-wide buffer size (every rack shares the
// template configuration).
func (f *Fleet) bufferSize() int64 {
	if f.cfg.Rack.BufferSize > 0 {
		return f.cfg.Rack.BufferSize
	}
	return memctl.DefaultBufferSize
}

// gateway returns (creating on first use) the borrower rack's gateway agent
// on the lender rack's controller: an uplink device on the lender's fabric
// plus an agent that uses — but never lends — remote memory. Callers hold
// f.mu or run in a sequential phase.
func (f *Fleet) gateway(lender, borrower int) (*memctl.Agent, error) {
	key := gwKey{lender: lender, borrower: borrower}
	if a, ok := f.gateways[key]; ok {
		return a, nil
	}
	lr := f.racks[lender]
	dev, err := lr.Fabric().AttachUplinkDevice("uplink/" + f.names[borrower])
	if err != nil {
		return nil, fmt.Errorf("fleet: uplink %s->%s: %w", f.names[borrower], f.names[lender], err)
	}
	agent, err := memctl.NewAgent(memctl.AgentConfig{
		ID:         memctl.ServerID("gw/" + f.names[borrower]),
		Controller: lr.Controller(),
		Device:     dev,
		// A gateway only uses remote memory; registering with 1 byte fully
		// reserved keeps it out of every lending and scavenging path.
		TotalMem:      1,
		ReservedMem:   1,
		ResolveDevice: func(id memctl.ServerID) *rdma.Device { return lr.ResolveDevice(string(id)) },
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: gateway %s->%s: %w", f.names[borrower], f.names[lender], err)
	}
	f.gateways[key] = agent
	return agent, nil
}

// FailoverRack simulates the loss of one rack's global memory controller:
// the rack's secondary promotes itself and rebuilds the state from its
// mirrored log (core.Rack.FailoverController), after which the fleet
// re-attaches every gateway agent borrowing FROM that rack to the rebuilt
// controller. Borrowed buffers keep serving throughout — one-sided verbs
// never involve the control plane — so remote memory survives the fail-over.
func (f *Fleet) FailoverRack(rack int, nowNs int64) error {
	f.batchMu.Lock()
	defer f.batchMu.Unlock()
	if err := f.checkRack(rack); err != nil {
		return err
	}
	rebuilt, err := f.racks[rack].FailoverController(nowNs)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]gwKey, 0, len(f.gateways))
	for key := range f.gateways {
		if key.lender == rack {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].borrower < keys[j].borrower })
	for _, key := range keys {
		if err := f.gateways[key].Retarget(rebuilt); err != nil {
			return fmt.Errorf("fleet: retarget gateway %s->%s: %w", f.names[key.borrower], f.names[rack], err)
		}
	}
	return nil
}

// DestroyVM removes a fleet-placed VM from its rack, returning any borrowed
// buffers to their lenders.
func (f *Fleet) DestroyVM(vmID string) error {
	f.batchMu.Lock()
	defer f.batchMu.Unlock()
	f.mu.Lock()
	rack, ok := f.vmRackLocked(vmID)
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: unknown VM %s", vmID)
	}
	if err := f.racks[rack].DestroyVM(vmID); err != nil {
		return err
	}
	f.mu.Lock()
	f.setVMRackLocked(vmID, -1)
	f.mu.Unlock()
	return nil
}

package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/acpi"
	"repro/internal/chaos"
	"repro/internal/energy"
	"repro/internal/hypervisor"
	"repro/internal/ident"
	"repro/internal/memctl"
	"repro/internal/memplane"
	"repro/internal/pagepolicy"
	"repro/internal/placement"
	"repro/internal/rdma"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Errors returned by the rack.
var (
	ErrUnknownServer = errors.New("core: unknown server")
	ErrUnknownVM     = errors.New("core: unknown VM")
)

// ServerRole mirrors the five roles of Figure 7.
type ServerRole string

// The server roles of the paper's architecture.
const (
	RoleController          ServerRole = "global-mem-ctr"
	RoleSecondaryController ServerRole = "secondary-ctr"
	RoleUser                ServerRole = "user"
	RoleZombie              ServerRole = "zombie"
	RoleActive              ServerRole = "active"
)

// Server is one general-purpose server of the rack.
type Server struct {
	Name string
	// ID is the server's dense identity in the rack's name registry; the
	// rack's hot paths index slices and bitsets by it instead of hashing
	// Name.
	ID ident.ID

	Platform *acpi.Platform
	Device   *rdma.Device
	Agent    *memctl.Agent
	Energy   *energy.Accumulator

	role ServerRole
	vms  map[string]*GuestVM
}

// Role returns the server's current role.
func (s *Server) Role() ServerRole { return s.role }

// State returns the server's ACPI state.
func (s *Server) State() acpi.SleepState { return s.Platform.State() }

// VMs returns the names of the VMs hosted on the server, sorted.
func (s *Server) VMs() []string {
	names := make([]string, 0, len(s.vms))
	for n := range s.vms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GuestVM is a VM running on the rack with hypervisor-managed RAM Ext paging.
type GuestVM struct {
	Spec vm.VM
	Host string

	// Paging is the RAM Ext context; its Stats carry faults and time.
	Paging *hypervisor.RAMExt
	// LocalBytes and RemoteBytes describe the placement decision.
	LocalBytes  int64
	RemoteBytes int64
	// BorrowedBytes is the part of RemoteBytes served from OUTSIDE the rack
	// through the RemoteOverflow hook (cross-rack borrowing); BorrowedFrom
	// names the supplier. Zero / empty when the home rack served everything.
	BorrowedBytes int64
	BorrowedFrom  string
	// buffers are the home-rack remote buffers backing the remote part;
	// borrowed holds the cross-rack buffers obtained from the overflow.
	buffers  []*memctl.RemoteBuffer
	borrowed []*memctl.RemoteBuffer
	// plane is the VM's byte-serving data plane, built lazily by
	// Rack.MemplaneOf and closed by DestroyVM.
	plane *memplane.Plane
}

// BorrowedBuffers returns how many cross-rack buffers back the VM.
func (g *GuestVM) BorrowedBuffers() int { return len(g.borrowed) }

// RemoteOverflow supplies guaranteed remote memory from outside the rack when
// the rack's own controller runs dry. The fleet layer implements it with
// gateway agents registered on peer racks' controllers; the returned handles
// read and write over the peers' fabrics with the inter-rack premium.
type RemoteOverflow interface {
	// AvailableBytes reports how much the outside pool could currently
	// supply; the scheduler adds it to the rack's own admittable memory.
	AvailableBytes() int64
	// AllocExt allocates memSize bytes for the named VM placed on the given
	// host. It returns the handles plus a label naming the supplier(s).
	AllocExt(vmID, host string, memSize int64) ([]*memctl.RemoteBuffer, string, error)
	// Release returns borrowed handles when the VM is destroyed.
	Release(vmID string, bufs []*memctl.RemoteBuffer) error
}

// Config parameterises a Rack.
type Config struct {
	// Servers is the number of general-purpose servers (at least 1).
	Servers int
	// NamePrefix is prepended to every server name ("rack-00/" turns
	// "server-01" into "rack-00/server-01"), so a fleet of racks has globally
	// unique server identities without the racks sharing any state.
	NamePrefix string
	// Board describes every server's hardware; DefaultBoardSpec if zero.
	Board acpi.BoardSpec
	// MachineProfile is the per-server power model; the HP profile if nil.
	MachineProfile *energy.MachineProfile
	// BufferSize is the rack-wide remote buffer size; memctl default if 0.
	BufferSize int64
	// HostReservedBytes is the memory each server keeps for itself (host OS,
	// hypervisor); 1 GiB if 0.
	HostReservedBytes int64
	// CostModel is the RDMA fabric cost model; the default if zero.
	CostModel rdma.CostModel
}

// Rack is the assembled system.
type Rack struct {
	mu sync.Mutex

	cfg        Config
	fabric     *rdma.Fabric
	controller *memctl.GlobalController
	secondary  *memctl.SecondaryController
	scheduler  *placement.Scheduler
	admission  *placement.AdmissionController

	// names interns every server and VM identity of the rack; servers and
	// vms are dense slices indexed by ident.ID (servers are interned first,
	// so their IDs are exactly [0, len(servers))). sortedServers caches the
	// name-sorted order once — servers never join after construction — so
	// the per-placement host view never sorts or hashes strings.
	names         *ident.Registry
	servers       []*Server
	sortedServers []*Server
	vms           []*GuestVM // nil holes for destroyed VMs; index by ident.ID
	vmCount       int

	// overflow, when set, supplies remote memory the rack itself cannot
	// (cross-rack borrowing; see RemoteOverflow).
	overflow RemoteOverflow

	// dataChaos and dataNow arm data planes built by MemplaneOf with a fault
	// schedule (SetDataChaos).
	dataChaos *chaos.Plan
	dataNow   func() int64

	nowNs int64
}

// NewRack builds and wires a rack.
func NewRack(cfg Config) (*Rack, error) {
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("core: a rack needs at least one server, got %d", cfg.Servers)
	}
	if cfg.Board == (acpi.BoardSpec{}) {
		cfg.Board = acpi.DefaultBoardSpec()
	}
	if err := cfg.Board.Validate(); err != nil {
		return nil, err
	}
	if cfg.MachineProfile == nil {
		cfg.MachineProfile = energy.HPProfile()
	}
	if err := cfg.MachineProfile.Validate(); err != nil {
		return nil, err
	}
	if cfg.HostReservedBytes <= 0 {
		cfg.HostReservedBytes = 1 << 30
	}
	if cfg.CostModel == (rdma.CostModel{}) {
		cfg.CostModel = rdma.DefaultCostModel()
	}

	r := &Rack{
		cfg:       cfg,
		fabric:    rdma.NewFabric(cfg.CostModel),
		secondary: memctl.NewSecondaryController(),
		scheduler: placement.NewScheduler(),
		names:     ident.NewRegistry(),
	}
	opts := []memctl.Option{memctl.WithMirror(r.secondary)}
	if cfg.BufferSize > 0 {
		opts = append(opts, memctl.WithBufferSize(cfg.BufferSize))
	}
	r.controller = memctl.NewGlobalController(opts...)
	r.admission = placement.NewAdmissionController(0)

	resolve := func(id memctl.ServerID) *rdma.Device {
		s, ok := r.server(string(id))
		if !ok {
			return nil
		}
		return s.Device
	}

	for i := 0; i < cfg.Servers; i++ {
		name := fmt.Sprintf("%sserver-%02d", cfg.NamePrefix, i)
		platform, err := acpi.NewPlatform(cfg.Board)
		if err != nil {
			return nil, err
		}
		dev, err := r.fabric.AttachDevice(name)
		if err != nil {
			return nil, err
		}
		agent, err := memctl.NewAgent(memctl.AgentConfig{
			ID:            memctl.ServerID(name),
			Controller:    r.controller,
			Device:        dev,
			TotalMem:      int64(cfg.Board.MemoryBytes),
			ReservedMem:   cfg.HostReservedBytes,
			ResolveDevice: resolve,
		})
		if err != nil {
			return nil, err
		}
		r.servers = append(r.servers, &Server{
			Name:     name,
			ID:       r.names.Intern(name),
			Platform: platform,
			Device:   dev,
			Agent:    agent,
			Energy:   energy.NewAccumulator(cfg.MachineProfile),
			role:     RoleActive,
			vms:      make(map[string]*GuestVM),
		})
	}
	r.sortedServers = append([]*Server(nil), r.servers...)
	sort.Slice(r.sortedServers, func(i, j int) bool {
		return r.sortedServers[i].Name < r.sortedServers[j].Name
	})
	return r, nil
}

// server returns the named server. The registry and the dense server slice
// are immutable after construction, so no rack lock is needed.
func (r *Rack) server(name string) (*Server, bool) {
	id, ok := r.names.Lookup(name)
	if !ok || int(id) >= len(r.servers) {
		return nil, false
	}
	return r.servers[id], true
}

// vmLocked returns the named VM; the caller holds r.mu.
func (r *Rack) vmLocked(id string) (*GuestVM, bool) {
	vid, ok := r.names.Lookup(id)
	if !ok || int(vid) >= len(r.vms) || r.vms[vid] == nil {
		return nil, false
	}
	return r.vms[vid], true
}

// setVMLocked stores a VM under its dense ID; the caller holds r.mu.
func (r *Rack) setVMLocked(vid ident.ID, g *GuestVM) {
	for int(vid) >= len(r.vms) {
		r.vms = append(r.vms, nil)
	}
	r.vms[vid] = g
}

// Servers returns the server names, sorted (from the construction-time
// cache; the server set never changes).
func (r *Rack) Servers() []string {
	names := make([]string, len(r.sortedServers))
	for i, s := range r.sortedServers {
		names[i] = s.Name
	}
	return names
}

// Server returns the named server.
func (r *Rack) Server(name string) (*Server, error) {
	s, ok := r.server(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownServer, name)
	}
	return s, nil
}

// Controller exposes the global memory controller (for inspection).
func (r *Rack) Controller() *memctl.GlobalController { return r.controller }

// SetRemoteOverflow plugs an outside remote memory supplier into the rack.
// Pass nil to detach. The fleet layer installs one per rack; single-rack
// deployments leave it unset.
func (r *Rack) SetRemoteOverflow(o RemoteOverflow) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.overflow = o
}

// ResolveDevice returns the RDMA device of the named server, or nil. The
// fleet layer uses it to wire gateway agents into a peer rack's fabric.
func (r *Rack) ResolveDevice(name string) *rdma.Device {
	s, ok := r.server(name)
	if !ok {
		return nil
	}
	return s.Device
}

// HostCapacities returns the scheduler's current view of every server, in
// name order: CPU and local-memory headroom plus the power state. The fleet
// partitioner plans cross-rack placement against this snapshot.
func (r *Rack) HostCapacities() []placement.Host { return r.placementHosts() }

// Secondary exposes the secondary controller.
func (r *Rack) Secondary() *memctl.SecondaryController { return r.secondary }

// Fabric exposes the RDMA fabric (for stats).
func (r *Rack) Fabric() *rdma.Fabric { return r.fabric }

// Now returns the rack's simulated clock.
func (r *Rack) Now() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nowNs
}

// AdvanceClock moves simulated time forward on every server and the
// controllers (heartbeats), integrating energy.
func (r *Rack) AdvanceClock(deltaNs int64) {
	if deltaNs <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nowNs += deltaNs
	for _, s := range r.servers {
		s.Platform.AdvanceClock(deltaNs)
		s.Energy.AdvanceTo(r.nowNs)
	}
	r.secondary.Heartbeat(r.nowNs)
}

// FreeRemoteMemory returns the unallocated remote memory in the rack.
func (r *Rack) FreeRemoteMemory() int64 { return r.controller.FreeMemory() }

// PushToZombie suspends a server into the Sz state: its free memory is
// delegated to the controller, the platform transitions to Sz, and the RDMA
// device stops initiating but keeps serving one-sided operations.
func (r *Rack) PushToZombie(name string) error {
	s, ok := r.server(name)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownServer, name)
	}
	if len(s.vms) > 0 {
		return fmt.Errorf("core: server %s still hosts %d VMs", name, len(s.vms))
	}
	if err := s.Platform.CanEnter(acpi.Sz); err != nil {
		return err
	}
	if _, err := s.Agent.DelegateAndGoZombie(); err != nil {
		return err
	}
	if _, err := s.Platform.Suspend(acpi.Sz); err != nil {
		return err
	}
	// The NIC can no longer initiate (its driver is suspended with the CPU)
	// but the memory path keeps serving.
	s.Device.SetUp(false)
	s.Device.SetServing(true)
	s.Energy.SetState(r.Now(), acpi.Sz)
	r.mu.Lock()
	s.role = RoleZombie
	r.mu.Unlock()
	r.syncAdmissionCapacity()
	return nil
}

// Suspend suspends a server into a conventional sleep state (S3/S4/S5): its
// memory becomes unreachable, so nothing is delegated.
func (r *Rack) Suspend(name string, state acpi.SleepState) error {
	s, ok := r.server(name)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownServer, name)
	}
	if state == acpi.Sz {
		return r.PushToZombie(name)
	}
	if len(s.vms) > 0 {
		return fmt.Errorf("core: server %s still hosts %d VMs", name, len(s.vms))
	}
	if _, err := s.Platform.Suspend(state); err != nil {
		return err
	}
	s.Device.SetUp(false)
	s.Device.SetServing(false)
	s.Energy.SetState(r.Now(), state)
	r.mu.Lock()
	s.role = RoleActive
	r.mu.Unlock()
	return nil
}

// Wake resumes a suspended or zombie server to S0 and reclaims its delegated
// memory (all of it).
func (r *Rack) Wake(name string) error {
	s, ok := r.server(name)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownServer, name)
	}
	if _, err := s.Platform.Wake(acpi.WakeLAN); err != nil {
		return err
	}
	s.Device.SetUp(true)
	s.Device.SetServing(true)
	if _, err := s.Agent.WakeAndReclaim(-1); err != nil {
		return err
	}
	s.Energy.SetState(r.Now(), acpi.S0)
	r.mu.Lock()
	s.role = RoleActive
	r.mu.Unlock()
	r.syncAdmissionCapacity()
	return nil
}

// LRUZombie returns the zombie server with the fewest allocated buffers (the
// cheapest to wake), per GS_get_lru_zombie().
func (r *Rack) LRUZombie() (string, error) {
	id, err := r.controller.LRUZombie()
	return string(id), err
}

// syncAdmissionCapacity aligns the admission controller with the rack's
// delegatable memory.
func (r *Rack) syncAdmissionCapacity() {
	r.admission.SetCapacity(r.controller.FreeMemory() + r.admission.Committed())
}

// placementHosts builds the scheduler's host view, walking the cached
// name-sorted server list (no per-call sort, no name materialisation).
func (r *Rack) placementHosts() []placement.Host {
	r.mu.Lock()
	defer r.mu.Unlock()
	hosts := make([]placement.Host, 0, len(r.sortedServers))
	for _, s := range r.sortedServers {
		var usedCPU int
		var usedMem int64
		for _, g := range s.vms {
			usedCPU += g.Spec.VCPUs
			usedMem += g.LocalBytes
		}
		hosts = append(hosts, placement.Host{
			ID:          placement.HostID(s.Name),
			TotalCPUs:   r.cfg.Board.TotalCores(),
			UsedCPUs:    usedCPU,
			TotalMemory: int64(r.cfg.Board.MemoryBytes) - r.cfg.HostReservedBytes - r.lentBytes(s),
			UsedMemory:  usedMem,
			PoweredOn:   s.Platform.State() == acpi.S0,
		})
	}
	return hosts
}

// lentBytes returns the memory the server has delegated to the rack.
func (r *Rack) lentBytes(s *Server) int64 {
	size := r.cfg.BufferSize
	if size <= 0 {
		size = memctl.DefaultBufferSize
	}
	return int64(s.Agent.ServedBuffers()) * size
}

// CreateVMOptions tunes VM creation.
type CreateVMOptions struct {
	// Policy is the page replacement policy; Mixed when nil.
	Policy pagepolicy.Policy
	// Strategy is the placement strategy; stacking by default.
	Strategy placement.Strategy
	// SimPages caps the simulated page count of the paging context.
	SimPages int
	// ExcludeHosts drops the named servers from the placement candidates —
	// the fleet layer uses it to keep placement off crashed servers. Shared
	// read-only across concurrent shards; nil excludes nothing.
	ExcludeHosts *ident.NameSet
}

// CreateVM places a VM on the rack, allocating its remote memory (if any)
// with the guaranteed GS_alloc_ext path, and builds the hypervisor paging
// context for it.
func (r *Rack) CreateVM(spec vm.VM, opts CreateVMOptions) (*GuestVM, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if _, dup := r.vmLocked(spec.ID); dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("core: VM %s already exists", spec.ID)
	}
	r.mu.Unlock()

	r.syncAdmissionCapacity()
	r.mu.Lock()
	overflow := r.overflow
	r.mu.Unlock()
	remoteAvail := r.admission.Available()
	if overflow != nil {
		remoteAvail += overflow.AvailableBytes()
	}
	hosts := r.placementHosts()
	if opts.ExcludeHosts.Len() > 0 {
		alive := hosts[:0]
		for _, h := range hosts {
			if !opts.ExcludeHosts.Has(string(h.ID)) {
				alive = append(alive, h)
			}
		}
		hosts = alive
	}
	decision, err := r.scheduler.Place(hosts, placement.Request{
		VM:                    spec,
		RemoteMemoryAvailable: remoteAvail,
		Strategy:              opts.Strategy,
	})
	if err != nil {
		return nil, err
	}

	host, _ := r.server(string(decision.Host))

	guest := &GuestVM{Spec: spec, Host: host.Name, LocalBytes: decision.LocalBytes, RemoteBytes: decision.RemoteBytes}

	// Allocate the remote part: the home rack first, and — when its own
	// controller cannot guarantee the allocation — entirely from the overflow
	// supplier (a peer rack reached over the inter-rack fabric).
	if decision.RemoteBytes > 0 {
		var homeErr error
		if homeErr = r.admission.Admit(decision.RemoteBytes); homeErr == nil {
			buffers, err := host.Agent.RequestExt(decision.RemoteBytes)
			if err != nil {
				r.admission.Release(decision.RemoteBytes)
				homeErr = err
			} else {
				guest.buffers = buffers
			}
		}
		if guest.buffers == nil {
			if overflow == nil {
				return nil, homeErr
			}
			borrowed, from, err := overflow.AllocExt(spec.ID, host.Name, decision.RemoteBytes)
			if err != nil {
				return nil, fmt.Errorf("core: rack dry (%v) and cross-rack borrow failed: %w", homeErr, err)
			}
			guest.borrowed = borrowed
			guest.BorrowedBytes = decision.RemoteBytes
			guest.BorrowedFrom = from
		}
	}

	// Build the paging context. The page count is scaled for tractability;
	// the local fraction of the placement decision is preserved.
	simPages := opts.SimPages
	if simPages <= 0 {
		simPages = workload.DefaultSimPages
	}
	totalPages := spec.ReservedPages()
	if totalPages > simPages {
		totalPages = simPages
	}
	localFrac := float64(decision.LocalBytes) / float64(spec.ReservedBytes)
	localFrames := int(float64(totalPages) * localFrac)
	if localFrames < 1 {
		localFrames = 1
	}
	policy := opts.Policy
	if policy == nil {
		policy = pagepolicy.NewMixed(pagepolicy.DefaultCost(), pagepolicy.DefaultMixedWindow)
	}
	var store hypervisor.RemoteStore
	if localFrames < totalPages {
		backing := guest.buffers
		if len(guest.borrowed) > 0 {
			backing = append(append([]*memctl.RemoteBuffer(nil), guest.buffers...), guest.borrowed...)
		}
		store = newBufferStore(backing, totalPages-localFrames)
	}
	paging, err := hypervisor.NewRAMExt(hypervisor.Config{
		Pages:       totalPages,
		LocalFrames: localFrames,
		Policy:      policy,
		Remote:      store,
	})
	if err != nil {
		if guest.buffers != nil {
			_ = host.Agent.ReleaseBuffers(guest.buffers)
			r.admission.Release(decision.RemoteBytes)
		}
		if len(guest.borrowed) > 0 && overflow != nil {
			_ = overflow.Release(spec.ID, guest.borrowed)
		}
		return nil, err
	}
	guest.Paging = paging

	r.mu.Lock()
	host.vms[spec.ID] = guest
	r.setVMLocked(r.names.Intern(spec.ID), guest)
	r.vmCount++
	r.mu.Unlock()

	// Hosting VMs makes the server a user of remote memory (or plainly
	// active); update utilization for energy accounting.
	r.mu.Lock()
	if decision.RemoteBytes > 0 {
		host.role = RoleUser
	}
	util := float64(len(host.vms)) * float64(spec.VCPUs) / float64(r.cfg.Board.TotalCores())
	if util > 1 {
		util = 1
	}
	r.mu.Unlock()
	host.Energy.SetUtilization(r.Now(), util)
	return guest, nil
}

// DestroyVM removes a VM and releases its remote memory — home-rack buffers
// to the rack's controller, borrowed ones back through the overflow supplier.
func (r *Rack) DestroyVM(id string) error {
	r.mu.Lock()
	guest, ok := r.vmLocked(id)
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownVM, id)
	}
	host, _ := r.server(guest.Host)
	overflow := r.overflow
	if vid, ok := r.names.Lookup(id); ok {
		r.vms[vid] = nil
		r.vmCount--
	}
	delete(host.vms, id)
	r.mu.Unlock()

	if guest.plane != nil {
		// The plane was seeded with the VM's home-rack buffers and owns them:
		// its Close releases the reservation together with any growth grants.
		if err := guest.plane.Close(); err != nil {
			return err
		}
	} else if len(guest.buffers) > 0 {
		if err := host.Agent.ReleaseBuffers(guest.buffers); err != nil {
			return err
		}
	}
	if len(guest.buffers) > 0 {
		r.admission.Release(guest.RemoteBytes - guest.BorrowedBytes)
	}
	if len(guest.borrowed) > 0 {
		if overflow != nil {
			return overflow.Release(id, guest.borrowed)
		}
		// The supplier was detached; hand the buffers straight back to their
		// owning agents.
		return memctl.ReleaseHandles(guest.borrowed)
	}
	return nil
}

// VM returns a VM by name.
func (r *Rack) VM(id string) (*GuestVM, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.vmLocked(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownVM, id)
	}
	return g, nil
}

// VMs returns the names of every VM on the rack, sorted (the rendering edge:
// live VM IDs map back to names here, not in the hot paths).
func (r *Rack) VMs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, r.vmCount)
	for vid, g := range r.vms {
		if g != nil {
			names = append(names, r.names.Name(ident.ID(vid)))
		}
	}
	sort.Strings(names)
	return names
}

// RunWorkload replays a workload stream against a VM's paging context and
// returns the accumulated paging statistics.
func (r *Rack) RunWorkload(vmID string, kind workload.Kind, iterations int, seed int64) (hypervisor.Stats, error) {
	guest, err := r.VM(vmID)
	if err != nil {
		return hypervisor.Stats{}, err
	}
	stream, err := workload.NewStream(workload.ProfileOf(kind), guest.Paging.Pages(), iterations, seed)
	if err != nil {
		return hypervisor.Stats{}, err
	}
	for {
		a, ok := stream.Next()
		if !ok {
			break
		}
		if _, err := guest.Paging.Access(a.Page, a.Write); err != nil {
			return guest.Paging.Stats(), err
		}
	}
	return guest.Paging.Stats(), nil
}

// EnergyReport summarises per-server energy consumption.
type EnergyReport struct {
	Server string
	State  acpi.SleepState
	Joules float64
}

// EnergyReportAll returns the energy report of every server, sorted by name.
func (r *Rack) EnergyReportAll() []EnergyReport {
	out := make([]EnergyReport, 0, len(r.sortedServers))
	for _, s := range r.sortedServers {
		out = append(out, EnergyReport{Server: s.Name, State: s.Platform.State(), Joules: s.Energy.Joules()})
	}
	return out
}

// TotalEnergyJoules sums the rack's energy consumption.
func (r *Rack) TotalEnergyJoules() float64 {
	var total float64
	for _, rep := range r.EnergyReportAll() {
		total += rep.Joules
	}
	return total
}

// bufferStore adapts a set of memctl remote buffers into the hypervisor's
// page-granular RemoteStore: a VM's RAM Ext pages and the remote half of a
// RemoteSwapDevice both go through it. Pages are spread across the buffers
// so that a single remote server failure affects only part of the store.
type bufferStore struct {
	buffers []*memctl.RemoteBuffer
	slots   int
	perBuf  int
}

// newBufferStore sizes a store of at least minSlots pages over the buffers.
func newBufferStore(buffers []*memctl.RemoteBuffer, minSlots int) *bufferStore {
	if len(buffers) == 0 {
		return &bufferStore{}
	}
	pageSize := int64(vm.DefaultPageSize)
	perBuf := int(buffers[0].Size / pageSize)
	slots := perBuf * len(buffers)
	if slots < minSlots {
		slots = minSlots // the RAMExt constructor will reject it explicitly
	}
	return &bufferStore{buffers: buffers, slots: slots, perBuf: perBuf}
}

// Slots implements hypervisor.RemoteStore.
func (b *bufferStore) Slots() int { return b.slots }

// locate maps a slot to (buffer, offset), striping across buffers.
func (b *bufferStore) locate(slot int) (*memctl.RemoteBuffer, int64, error) {
	if len(b.buffers) == 0 {
		return nil, 0, fmt.Errorf("core: no remote buffers")
	}
	buf := b.buffers[slot%len(b.buffers)]
	idx := slot / len(b.buffers)
	off := int64(idx) * int64(vm.DefaultPageSize)
	if off+int64(vm.DefaultPageSize) > buf.Size {
		return nil, 0, fmt.Errorf("core: slot %d outside buffer capacity", slot)
	}
	return buf, off, nil
}

// WritePage implements hypervisor.RemoteStore with a one-sided RDMA WRITE.
func (b *bufferStore) WritePage(slot int, page []byte) (int64, error) {
	buf, off, err := b.locate(slot)
	if err != nil {
		return 0, err
	}
	return buf.WriteRemote(off, page)
}

// ReadPage implements hypervisor.RemoteStore with a one-sided RDMA READ.
func (b *bufferStore) ReadPage(slot int, dst []byte) (int64, error) {
	buf, off, err := b.locate(slot)
	if err != nil {
		return 0, err
	}
	return buf.ReadRemote(off, dst)
}

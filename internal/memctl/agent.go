package memctl

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/rdma"
)

// Agent is the remote memory manager (remote-mem-mgr) running on every
// server. It interacts with the global controller to lend its own memory
// (when the server is pushed into Sz, or opportunistically while active) and
// to obtain remote memory for its local consumers (the hypervisor's RAM Ext
// paging and explicit swap devices).
//
// The agent owns:
//   - the server's lendable-memory accounting,
//   - the RDMA memory regions backing the buffers it serves,
//   - the queue pairs and handles for the remote buffers it uses.
//
// Lock discipline: the controller may call back into agents (USReclaim,
// ASGetFreeMem) while holding its own mutex, so an agent must NEVER hold
// a.mu across a controller call — the order is always controller.mu before
// agent.mu (and agent.mu before the fabric lock). Methods that both read the
// lendable accounting and talk to the controller pre-reserve the bytes under
// a.mu, drop the lock for the controller round-trip, and roll the
// reservation back on failure.
type Agent struct {
	mu sync.Mutex

	id         ServerID
	controller *GlobalController
	device     *rdma.Device

	totalMem    int64
	reservedMem int64 // memory pinned for local use (VMs + host overhead)

	// served maps the controller's buffer IDs to the local regions backing
	// the memory this server lends.
	served map[BufferID]*rdma.MemoryRegion
	// scavenged holds the regions lent through AS_get_free_mem, keyed by
	// rkey: the controller assigns buffer IDs only after the callback
	// returns, so the rkey is the one name both sides share.
	scavenged map[uint32]*rdma.MemoryRegion
	// pendingReclaim tombstones buffer IDs the controller reclaimed while
	// their delegation was still in flight (announced but not yet recorded
	// in served); delegate drops them instead of recording stale entries.
	pendingReclaim map[BufferID]struct{}
	// specs remembers the spec of every served buffer (for re-registration).
	servedBytes int64

	// used maps buffer IDs to handles for the remote buffers this server
	// consumes.
	used map[BufferID]*RemoteBuffer

	// qps caches one queue pair per remote host; all of them complete into
	// cq, which WriteRemote and ReadRemote reap after every verb.
	qps map[ServerID]*rdma.QueuePair
	cq  *rdma.CompletionQueue

	// mirrorWrites counts asynchronous local-storage mirror writes (fault
	// tolerance for reclaim; Section 4.3 footnote 3).
	mirrorWrites uint64
	reclaimsSeen uint64

	// resolve maps a host ID to its RDMA device (set through the Rack wiring).
	resolve func(ServerID) *rdma.Device

	nextWR uint64
}

// RemoteBuffer is a usable handle on a remote memory buffer: the user server
// reads and writes it with one-sided verbs through the agent.
type RemoteBuffer struct {
	Buffer
	agent *Agent
	// gen is the generation of the controller that issued the buffer. A
	// rebuilt controller restarts ID numbering, so a release is only safe
	// when the generations still match.
	gen uint64
}

// AgentConfig configures an Agent.
type AgentConfig struct {
	ID         ServerID
	Controller *GlobalController
	Device     *rdma.Device
	TotalMem   int64
	// ReservedMem is kept for local consumption and never lent.
	ReservedMem int64
	// ResolveDevice maps a server ID to its RDMA device so the agent can
	// connect queue pairs to remote hosts.
	ResolveDevice func(ServerID) *rdma.Device
}

// NewAgent creates and registers an agent with the global controller.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Controller == nil {
		return nil, fmt.Errorf("memctl: agent %s needs a controller", cfg.ID)
	}
	if cfg.TotalMem <= 0 {
		return nil, fmt.Errorf("memctl: agent %s needs positive memory", cfg.ID)
	}
	if cfg.ReservedMem < 0 || cfg.ReservedMem > cfg.TotalMem {
		return nil, fmt.Errorf("memctl: agent %s reserved memory %d outside [0,%d]", cfg.ID, cfg.ReservedMem, cfg.TotalMem)
	}
	a := &Agent{
		id:             cfg.ID,
		controller:     cfg.Controller,
		device:         cfg.Device,
		totalMem:       cfg.TotalMem,
		reservedMem:    cfg.ReservedMem,
		served:         make(map[BufferID]*rdma.MemoryRegion),
		scavenged:      make(map[uint32]*rdma.MemoryRegion),
		pendingReclaim: make(map[BufferID]struct{}),
		used:           make(map[BufferID]*RemoteBuffer),
		qps:            make(map[ServerID]*rdma.QueuePair),
		cq:             rdma.NewCompletionQueue(),
		resolve:        cfg.ResolveDevice,
	}
	if err := cfg.Controller.RegisterServer(cfg.ID, cfg.TotalMem, a, a); err != nil {
		return nil, err
	}
	return a, nil
}

// ID returns the server ID the agent runs on.
func (a *Agent) ID() ServerID { return a.id }

// ControllerBufferSize returns the rack-wide buffer size the agent's
// controller hands out (consumers size grant requests with it).
func (a *Agent) ControllerBufferSize() int64 { return a.controller.BufferSize() }

// FreeMemory returns the memory the agent could lend right now.
func (a *Agent) FreeMemory() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.freeMemoryLocked()
}

func (a *Agent) freeMemoryLocked() int64 {
	return a.totalMem - a.reservedMem - a.servedBytes
}

// SetReservedMemory updates the memory pinned for local consumption.
func (a *Agent) SetReservedMemory(bytes int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if bytes < 0 || bytes > a.totalMem {
		return fmt.Errorf("memctl: reserved memory %d outside [0,%d]", bytes, a.totalMem)
	}
	a.reservedMem = bytes
	return nil
}

// ServedBuffers returns the number of buffers this server is lending.
func (a *Agent) ServedBuffers() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.served)
}

// UsedBuffers returns the number of remote buffers this server is using.
func (a *Agent) UsedBuffers() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.used)
}

// MirrorWrites returns the number of asynchronous local-storage mirror writes.
func (a *Agent) MirrorWrites() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.mirrorWrites
}

// ReclaimsSeen returns how many US_reclaim notifications the agent handled.
func (a *Agent) ReclaimsSeen() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reclaimsSeen
}

// buildSpecs slices n uniform buffers out of the agent's memory and
// registers an RDMA region for each, returning the specs to send to the
// controller and the regions (indexed in the same order). It takes no locks
// beyond the fabric's own, so callers may invoke it with or without a.mu.
func (a *Agent) buildSpecs(n int64) ([]BufferSpec, []*rdma.MemoryRegion, error) {
	bufSize := a.controller.BufferSize()
	specs := make([]BufferSpec, 0, n)
	regions := make([]*rdma.MemoryRegion, 0, n)
	for i := int64(0); i < n; i++ {
		var rkey uint32
		var mr *rdma.MemoryRegion
		if a.device != nil {
			var err error
			mr, err = a.device.RegisterMemory(int(bufSize), rdma.AccessFlags{RemoteRead: true, RemoteWrite: true})
			if err != nil {
				a.dropRegions(regions)
				return nil, nil, err
			}
			rkey = mr.RKey()
		}
		specs = append(specs, BufferSpec{Offset: i * bufSize, Size: bufSize, RKey: rkey})
		regions = append(regions, mr)
	}
	return specs, regions, nil
}

// dropRegions deregisters regions built for a delegation that failed.
func (a *Agent) dropRegions(regions []*rdma.MemoryRegion) {
	if a.device == nil {
		return
	}
	for _, mr := range regions {
		if mr != nil {
			a.device.DeregisterMemory(mr)
		}
	}
}

// reserveLend carves up to wantBytes of free memory into whole buffers and
// reserves them in the served accounting, returning the buffer count. The
// reservation keeps a concurrent scavenge (ASGetFreeMem) from lending the
// same bytes while the delegation round-trips to the controller.
func (a *Agent) reserveLend(wantBytes int64) int64 {
	bufSize := a.controller.BufferSize()
	a.mu.Lock()
	defer a.mu.Unlock()
	free := a.freeMemoryLocked()
	if wantBytes > free {
		wantBytes = free
	}
	n := wantBytes / bufSize
	if n < 0 {
		n = 0
	}
	a.servedBytes += n * bufSize
	return n
}

// unreserveLend rolls back a reservation made by reserveLend.
func (a *Agent) unreserveLend(n int64) {
	bufSize := a.controller.BufferSize()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.servedBytes -= n * bufSize
	if a.servedBytes < 0 {
		a.servedBytes = 0
	}
}

// delegate reserves, registers and announces up to wantBytes of free memory
// through the given controller entry point (GotoZombie or DelegateActive).
func (a *Agent) delegate(wantBytes int64, announce func([]BufferSpec) ([]BufferID, error)) (int, error) {
	n := a.reserveLend(wantBytes)
	if n == 0 {
		return 0, nil
	}
	specs, regions, err := a.buildSpecs(n)
	if err != nil {
		a.unreserveLend(n)
		return 0, err
	}
	ids, err := announce(specs)
	if err != nil {
		a.dropRegions(regions)
		a.unreserveLend(n)
		return 0, err
	}
	a.mu.Lock()
	for i, id := range ids {
		var mr *rdma.MemoryRegion
		if i < len(regions) {
			mr = regions[i]
		}
		if _, gone := a.pendingReclaim[id]; gone {
			// A concurrent WakeAndReclaim already took this buffer back from
			// the controller; recording it now would leave a stale served
			// entry and leak its region.
			delete(a.pendingReclaim, id)
			if a.device != nil && mr != nil {
				a.device.DeregisterMemory(mr)
			}
			continue
		}
		a.served[id] = mr
	}
	a.mu.Unlock()
	// Every spec has a positive size, so the controller accepted all of them
	// and the reservation made in reserveLend is exact.
	return len(ids), nil
}

// DelegateAndGoZombie computes the server's free memory, organises it into
// buffers, registers them with the RDMA device and announces the transition
// to Sz via GS_goto_zombie. It returns the number of buffers lent.
func (a *Agent) DelegateAndGoZombie() (int, error) {
	a.mu.Lock()
	free := a.freeMemoryLocked()
	a.mu.Unlock()
	n, err := a.delegate(free, func(specs []BufferSpec) ([]BufferID, error) {
		return a.controller.GotoZombie(a.id, specs)
	})
	if err != nil {
		return n, err
	}
	if n == 0 {
		// Nothing to lend (tiny or fully-reserved server): still announce the
		// Sz transition so the controller tracks the role.
		if _, err := a.controller.GotoZombie(a.id, nil); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// DelegateWhileActive lends free memory while the server stays active.
// keepBytes of free memory are held back for local headroom.
func (a *Agent) DelegateWhileActive(keepBytes int64) (int, error) {
	a.mu.Lock()
	lendable := a.freeMemoryLocked() - keepBytes
	a.mu.Unlock()
	if lendable <= 0 {
		return 0, nil
	}
	return a.delegate(lendable, func(specs []BufferSpec) ([]BufferID, error) {
		return a.controller.DelegateActive(a.id, specs)
	})
}

// WakeAndReclaim reclaims nbBuffers of the memory this server had lent (all
// of them when nbBuffers is negative — including buffers the controller
// scavenged from it while active, which the agent does not track itself).
// The controller notifies any user servers first; on return the memory is
// local again.
func (a *Agent) WakeAndReclaim(nbBuffers int) (int, error) {
	bufs, err := a.controller.ReclaimBuffers(a.id, nbBuffers)
	if err != nil {
		return 0, err
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	bufSize := a.controller.BufferSize()
	for _, b := range bufs {
		if mr, ok := a.served[b.ID]; ok {
			if a.device != nil && mr != nil {
				a.device.DeregisterMemory(mr)
			}
			delete(a.served, b.ID)
		} else if mr, ok := a.scavenged[b.RKey]; ok {
			// Lent through AS_get_free_mem: the region was never filed under
			// a buffer ID, only under its rkey.
			if a.device != nil && mr != nil {
				a.device.DeregisterMemory(mr)
			}
			delete(a.scavenged, b.RKey)
		} else {
			// A delegation announced this buffer but has not recorded it yet;
			// tombstone the ID so delegate drops it instead of resurrecting a
			// buffer the controller no longer knows.
			a.pendingReclaim[b.ID] = struct{}{}
		}
		a.servedBytes -= bufSize
	}
	if a.servedBytes < 0 {
		a.servedBytes = 0
	}
	return len(bufs), nil
}

// USReclaim implements ReclaimNotifier: the controller reclaims buffers this
// server was using. The agent "transfers the backup copy of the data to other
// remote locations" — modelled as mirror writes — and drops the handles.
func (a *Agent) USReclaim(ids []BufferID) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reclaimsSeen++
	for _, id := range ids {
		if _, ok := a.used[id]; ok {
			// The data is recovered from the asynchronous local mirror; count
			// one mirror read-back per buffer.
			a.mirrorWrites++
			delete(a.used, id)
		}
	}
	return nil
}

// ASGetFreeMem implements FreeMemoryProvider: an active server offers half of
// its free memory when the controller scavenges for a guaranteed allocation.
// It is invoked by the controller with the controller's lock held, so it only
// takes a.mu (see the lock discipline note on Agent).
func (a *Agent) ASGetFreeMem() []BufferSpec {
	a.mu.Lock()
	defer a.mu.Unlock()
	bufSize := a.controller.BufferSize()
	n := (a.freeMemoryLocked() / 2) / bufSize
	specs, regions, err := a.buildSpecs(n)
	if err != nil {
		return nil
	}
	// Track them as served immediately; the controller will add them to its
	// database as active buffers. The controller assigns IDs only after this
	// callback returns, so the regions are filed by rkey for WakeAndReclaim
	// to find.
	a.servedBytes += int64(len(specs)) * bufSize
	for i := range specs {
		if regions[i] != nil {
			a.scavenged[specs[i].RKey] = regions[i]
		}
	}
	return specs
}

// RequestExt requests a guaranteed RAM Extension allocation of memSize bytes
// and returns handles for the allocated remote buffers.
func (a *Agent) RequestExt(memSize int64) ([]*RemoteBuffer, error) {
	bufs, err := a.controller.AllocExt(a.id, memSize)
	if err != nil {
		return nil, err
	}
	return a.adopt(bufs), nil
}

// RequestSwap requests a best-effort swap allocation of memSize bytes. The
// returned handles may cover less than memSize.
func (a *Agent) RequestSwap(memSize int64) ([]*RemoteBuffer, error) {
	bufs, err := a.controller.AllocSwap(a.id, memSize)
	if err != nil {
		return nil, err
	}
	return a.adopt(bufs), nil
}

// Retarget points the agent at a rebuilt controller after a fail-over and
// re-attaches its reclaim/scavenge callbacks to the rebuilt server record
// (Rebuild replays the membership log with nil callbacks). The caller must
// quiesce the agent first: Retarget is part of the promotion sequence, not a
// concurrent operation.
func (a *Agent) Retarget(g *GlobalController) error {
	if g == nil {
		return fmt.Errorf("memctl: agent %s cannot retarget to a nil controller", a.id)
	}
	if err := g.AttachCallbacks(a.id, a, a); err != nil {
		return fmt.Errorf("memctl: agent %s retarget: %w", a.id, err)
	}
	a.mu.Lock()
	a.controller = g
	a.mu.Unlock()
	return nil
}

// ReleaseHandles returns remote buffers that may belong to several different
// agents — e.g. a VM whose remote memory mixes home-rack buffers with
// cross-rack borrows — grouping them by owning agent in first-seen order.
func ReleaseHandles(handles []*RemoteBuffer) error {
	var order []*Agent
	groups := make(map[*Agent][]*RemoteBuffer)
	for _, h := range handles {
		if h == nil || h.agent == nil {
			continue
		}
		if _, seen := groups[h.agent]; !seen {
			order = append(order, h.agent)
		}
		groups[h.agent] = append(groups[h.agent], h)
	}
	for _, a := range order {
		if err := a.ReleaseBuffers(groups[a]); err != nil {
			return err
		}
	}
	return nil
}

// ReleaseBuffers returns remote buffers to the controller. Handles issued by
// a controller that has since failed over are dropped instead of released:
// the rebuilt database reconstructed the lent memory as free and restarted
// ID numbering, so a stale handle's ID may name someone else's allocation.
func (a *Agent) ReleaseBuffers(handles []*RemoteBuffer) error {
	ids := make([]BufferID, 0, len(handles))
	a.mu.Lock()
	ctrl := a.controller
	gen := ctrl.Generation()
	for _, h := range handles {
		delete(a.used, h.ID)
		if h.gen != 0 && h.gen != gen {
			continue
		}
		ids = append(ids, h.ID)
	}
	a.mu.Unlock()
	if len(ids) == 0 {
		return nil
	}
	return ctrl.Release(a.id, ids)
}

// adopt wraps allocated buffers into handles and records them as used.
func (a *Agent) adopt(bufs []Buffer) []*RemoteBuffer {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*RemoteBuffer, 0, len(bufs))
	for _, b := range bufs {
		h := &RemoteBuffer{Buffer: b, agent: a, gen: a.controller.Generation()}
		a.used[b.ID] = h
		out = append(out, h)
	}
	return out
}

// UsedBufferHandles returns the handles of all remote buffers in use, sorted
// by buffer ID.
func (a *Agent) UsedBufferHandles() []*RemoteBuffer {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*RemoteBuffer, 0, len(a.used))
	for _, h := range a.used {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// qpFor returns (creating if needed) a connected queue pair to the host.
func (a *Agent) qpFor(host ServerID) (*rdma.QueuePair, error) {
	if a.device == nil || a.resolve == nil {
		return nil, fmt.Errorf("memctl: agent %s has no RDMA wiring", a.id)
	}
	if qp, ok := a.qps[host]; ok {
		return qp, nil
	}
	remote := a.resolve(host)
	if remote == nil {
		return nil, fmt.Errorf("memctl: cannot resolve RDMA device of %s", host)
	}
	qp := a.device.CreateQueuePair(a.cq)
	peer := remote.CreateQueuePair(rdma.NewCompletionQueue())
	if err := rdma.Connect(qp, peer); err != nil {
		return nil, err
	}
	a.qps[host] = qp
	return qp, nil
}

// WriteRemote writes data into the remote buffer at the given offset using a
// one-sided RDMA WRITE, returning the simulated latency. Every remote write
// is also mirrored asynchronously to local storage for fault tolerance.
func (rb *RemoteBuffer) WriteRemote(offset int64, data []byte) (int64, error) {
	a := rb.agent
	a.mu.Lock()
	qp, err := a.qpFor(rb.Host)
	if err != nil {
		a.mu.Unlock()
		return 0, err
	}
	a.nextWR++
	wr := a.nextWR
	a.mirrorWrites++ // asynchronous local mirror (does not add latency)
	a.mu.Unlock()
	if offset < 0 || offset+int64(len(data)) > rb.Size {
		return 0, fmt.Errorf("memctl: write outside buffer %d bounds", rb.ID)
	}
	lat, err := qp.Write(wr, data, rb.RKey, int(offset))
	a.reap()
	return lat, err
}

// ReadRemote reads length bytes from the remote buffer at offset into dst.
func (rb *RemoteBuffer) ReadRemote(offset int64, dst []byte) (int64, error) {
	a := rb.agent
	a.mu.Lock()
	qp, err := a.qpFor(rb.Host)
	if err != nil {
		a.mu.Unlock()
		return 0, err
	}
	a.nextWR++
	wr := a.nextWR
	a.mu.Unlock()
	if offset < 0 || offset+int64(len(dst)) > rb.Size {
		return 0, fmt.Errorf("memctl: read outside buffer %d bounds", rb.ID)
	}
	lat, err := qp.Read(wr, dst, rb.RKey, int(offset), len(dst))
	a.reap()
	return lat, err
}

// reap empties the agent's completion queue. The verb has already returned its
// status and latency, so the completions (a failed verb's included) are
// discarded; initiators sharing the agent may reap each other's, which is
// harmless for the same reason. No poll cost is charged: the one-sided
// latency the verb returned is the whole price of a remote page op, and the
// planes above account exactly that.
func (a *Agent) reap() {
	var wcs [4]rdma.WorkCompletion
	for a.cq.Poll(wcs[:]) == len(wcs) {
	}
}

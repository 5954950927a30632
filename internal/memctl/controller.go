package memctl

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// ReclaimNotifier is implemented by remote memory manager agents. The
// controller calls USReclaim when buffers a user server depends on are being
// taken back by their owner; the agent must relocate the affected data (it
// keeps an asynchronously-mirrored copy on local storage) before the call
// returns.
type ReclaimNotifier interface {
	// USReclaim informs the agent that the listed buffers are no longer
	// available. This is the paper's US_reclaim(buff_IDs).
	USReclaim(ids []BufferID) error
}

// FreeMemoryProvider is implemented by agents of active servers; the
// controller uses it to scavenge additional remote memory from active servers
// when the zombie pool is exhausted. This is the paper's AS_get_free_mem().
type FreeMemoryProvider interface {
	// ASGetFreeMem returns buffer descriptors for memory the active server is
	// willing to lend right now (may be empty).
	ASGetFreeMem() []BufferSpec
}

// BufferSpec describes a buffer a server offers to lend.
type BufferSpec struct {
	Offset int64
	Size   int64
	RKey   uint32
}

// ServerRole is the controller's view of a server's power role.
type ServerRole int

// Server roles as the controller tracks them.
const (
	RoleActive ServerRole = iota // S0, may use and serve memory
	RoleZombie                   // Sz, serves memory only
	RoleDown                     // S3/S4/S5, serves nothing
)

// String names the role.
func (r ServerRole) String() string {
	switch r {
	case RoleActive:
		return "active"
	case RoleZombie:
		return "zombie"
	default:
		return "down"
	}
}

// serverRecord is the controller's per-server state.
type serverRecord struct {
	id       ServerID
	role     ServerRole
	totalMem int64
	agent    ReclaimNotifier
	provider FreeMemoryProvider
}

// Operation is one mirrored state-changing operation, streamed to the
// secondary controller for transparent high availability.
type Operation struct {
	Seq    uint64
	Kind   string
	Server ServerID
	IDs    []BufferID
	Bytes  int64
	// Buffers are the records a lending files (goto_zombie and
	// delegate_active, scavenged buffers included), IDs and rkeys as lent.
	Buffers []Buffer
}

// Mirror receives the synchronous operation stream of the controller. The
// secondary controller implements it; tests may substitute their own.
type Mirror interface {
	Apply(op Operation)
}

// GlobalController is the rack's global memory controller (global-mem-ctr).
// It owns the buffer database and implements the allocation protocol.
type GlobalController struct {
	mu sync.Mutex

	bufferSize int64
	db         *bufferDB
	servers    map[ServerID]*serverRecord
	mirror     Mirror
	seq        uint64
	// gen identifies this controller instance. A rebuilt controller (after a
	// fail-over) lists the lent memory as free under the primary's IDs, so a
	// handle issued by a dead primary can name a buffer granted again since;
	// agents compare the handle's generation against their controller's to
	// drop such stale handles instead of releasing someone else's allocation.
	gen uint64

	stats ControllerStats
}

// ControllerStats aggregates protocol activity counters.
type ControllerStats struct {
	GotoZombieCalls uint64
	ReclaimCalls    uint64
	AllocExtCalls   uint64
	AllocSwapCalls  uint64
	USReclaims      uint64
	BuffersLent     uint64
	BuffersReturned uint64
}

// Option configures a GlobalController.
type Option func(*GlobalController)

// WithBufferSize overrides the rack-wide buffer size.
func WithBufferSize(size int64) Option {
	return func(g *GlobalController) {
		if size > 0 {
			g.bufferSize = size
		}
	}
}

// WithMirror attaches a mirror (normally the secondary controller).
func WithMirror(m Mirror) Option {
	return func(g *GlobalController) { g.mirror = m }
}

// NewGlobalController creates a controller with an empty buffer database.
func NewGlobalController(opts ...Option) *GlobalController {
	g := &GlobalController{
		bufferSize: DefaultBufferSize,
		db:         &bufferDB{},
		servers:    make(map[ServerID]*serverRecord),
		gen:        controllerGen.Add(1),
	}
	for _, o := range opts {
		o(g)
	}
	return g
}

// controllerGen hands every controller instance a distinct generation.
var controllerGen atomic.Uint64

// Generation returns the controller instance's generation. Buffer handles
// remember the generation that issued them; a mismatch means the issuing
// primary died and the handle's ID may name a different allocation in the
// rebuilt database.
func (g *GlobalController) Generation() uint64 { return g.gen }

// BufferSize returns the rack-wide buffer size.
func (g *GlobalController) BufferSize() int64 { return g.bufferSize }

// Stats returns a snapshot of the protocol counters.
func (g *GlobalController) Stats() ControllerStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// RegisterServer adds a server to the rack. Initially every server is active
// (Section 4.2: "Initially all servers are designated active").
func (g *GlobalController) RegisterServer(id ServerID, totalMem int64, agent ReclaimNotifier, provider FreeMemoryProvider) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.servers[id]; ok {
		return fmt.Errorf("memctl: server %s already registered", id)
	}
	if totalMem <= 0 {
		return fmt.Errorf("memctl: server %s needs positive memory", id)
	}
	g.applyLocked(Operation{Kind: "register", Server: id, Bytes: totalMem})
	g.servers[id].agent, g.servers[id].provider = agent, provider
	return nil
}

// AttachCallbacks re-attaches a server's reclaim notifier and free-memory
// provider to its record. A controller rebuilt from the secondary's operation
// log knows the membership but not the live agent objects; each agent calls
// this (through Agent.Retarget) when it re-establishes its channel after a
// fail-over.
func (g *GlobalController) AttachCallbacks(id ServerID, agent ReclaimNotifier, provider FreeMemoryProvider) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	rec, ok := g.servers[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownServer, id)
	}
	rec.agent = agent
	rec.provider = provider
	return nil
}

// UnregisterServer removes a server and every buffer it serves. Buffers in
// use by other servers are reclaimed first (their agents are notified).
func (g *GlobalController) UnregisterServer(id ServerID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.servers[id]; !ok {
		return ErrUnknownServer
	}
	served := g.db.where(func(b *Buffer) bool { return b.Host == id })
	g.notifyUsersLocked(served)
	g.applyLocked(Operation{Kind: "unregister", Server: id, IDs: bufferIDs(served)})
	return nil
}

// Role returns the controller's view of a server's role.
func (g *GlobalController) Role(id ServerID) (ServerRole, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rec, ok := g.servers[id]
	if !ok {
		return RoleDown, ErrUnknownServer
	}
	return rec.role, nil
}

// Servers returns all registered server IDs, sorted.
func (g *GlobalController) Servers() []ServerID {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]ServerID, 0, len(g.servers))
	for id := range g.servers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Zombies returns the IDs of servers currently in the zombie role, sorted.
func (g *GlobalController) Zombies() []ServerID {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []ServerID
	for id, rec := range g.servers {
		if rec.role == RoleZombie {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GotoZombie is GS_goto_zombie(buffers): the server's agent announces its
// transition to Sz and lends the listed memory buffers. The controller
// records them as zombie buffers.
func (g *GlobalController) GotoZombie(host ServerID, buffers []BufferSpec) ([]BufferID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.servers[host]; !ok {
		return nil, ErrUnknownServer
	}
	g.stats.GotoZombieCalls++
	return bufferIDs(g.lendLocked("goto_zombie", host, buffers)), nil
}

// DelegateActive records buffers lent by a server that stays active (the
// implementation "also allows for serving and using remote memory from other
// active servers").
func (g *GlobalController) DelegateActive(host ServerID, buffers []BufferSpec) ([]BufferID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.servers[host]; !ok {
		return nil, ErrUnknownServer
	}
	return bufferIDs(g.lendLocked("delegate_active", host, buffers)), nil
}

// lendLocked files the buffers host lends through kind (goto_zombie or
// delegate_active) under fresh IDs and returns the new records, which are the
// table's tail.
func (g *GlobalController) lendLocked(kind string, host ServerID, specs []BufferSpec) []*Buffer {
	typ := ActiveBuffer
	if kind == "goto_zombie" {
		typ = ZombieBuffer
	}
	recs := make([]Buffer, 0, len(specs))
	for _, spec := range specs {
		if spec.Size > 0 {
			id := g.db.nextID + BufferID(len(recs)) + 1
			recs = append(recs, Buffer{ID: id, Host: host, Offset: spec.Offset, Size: spec.Size, Type: typ, RKey: spec.RKey})
		}
	}
	g.applyLocked(Operation{Kind: kind, Server: host, Buffers: recs})
	return g.db.recs[len(g.db.recs)-len(recs):]
}

// applyLocked applies a membership, lending or reclaim operation to the
// controller's state and mirrors it. The primary and a controller rebuilt from
// the mirrored log share it, so a fail-over restores exactly the lent records
// and removes exactly the reclaimed IDs.
func (g *GlobalController) applyLocked(op Operation) {
	switch op.Kind {
	case "register":
		g.servers[op.Server] = &serverRecord{id: op.Server, role: RoleActive, totalMem: op.Bytes}
	case "unregister":
		g.db.remove(op.IDs)
		delete(g.servers, op.Server)
	case "goto_zombie":
		// Any buffer the host was already serving as an active server becomes
		// a zombie buffer (higher allocation priority).
		g.servers[op.Server].role = RoleZombie
		g.db.retype(op.Server, ZombieBuffer)
	case "reclaim":
		g.db.remove(op.IDs)
		// The host becomes active again once it reclaims memory.
		g.servers[op.Server].role = RoleActive
		g.db.retype(op.Server, ActiveBuffer)
	}
	for _, b := range op.Buffers {
		g.db.add(b)
	}
	g.record(op)
}

// Reclaim is GS_reclaim(nbBuffers): a server waking from Sz reclaims
// nbBuffers of the memory it had lent (everything it serves when nbBuffers
// is negative, including buffers scavenged while it was active). Unallocated
// buffers are returned first; if more are needed, buffers allocated to other
// servers are reclaimed with US_reclaim. The reclaimed buffers are removed
// from the database and their records returned: buffers lent through
// AS_get_free_mem get their IDs after the callback returns, so the rkey is
// the only key under which the lending agent can file (and later deregister)
// the backing RDMA region.
func (g *GlobalController) Reclaim(host ServerID, nbBuffers int) ([]Buffer, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.servers[host]; !ok {
		return nil, ErrUnknownServer
	}
	g.stats.ReclaimCalls++
	served := g.db.where(func(b *Buffer) bool { return b.Host == host })
	if nbBuffers < 0 || nbBuffers > len(served) {
		nbBuffers = len(served)
	}
	// Unallocated first, then allocated ones, notifying their users.
	var chosen []*Buffer
	for _, allocated := range []bool{false, true} {
		for _, b := range served {
			if len(chosen) < nbBuffers && b.Allocated() == allocated {
				chosen = append(chosen, b)
			}
		}
	}
	g.notifyUsersLocked(chosen)
	g.stats.BuffersReturned += uint64(len(chosen))
	g.applyLocked(Operation{Kind: "reclaim", Server: host, IDs: bufferIDs(chosen)})
	return copies(chosen), nil
}

// notifyUsersLocked groups the allocated buffers by user and invokes each
// user agent's USReclaim callback.
func (g *GlobalController) notifyUsersLocked(bufs []*Buffer) {
	byUser := make(map[ServerID][]BufferID)
	var users []ServerID
	for _, b := range bufs {
		if !b.Allocated() {
			continue
		}
		if _, ok := byUser[b.User]; !ok {
			users = append(users, b.User)
		}
		byUser[b.User] = append(byUser[b.User], b.ID)
	}
	slices.Sort(users)
	for _, u := range users {
		g.stats.USReclaims++
		if rec, ok := g.servers[u]; ok && rec.agent != nil {
			// The agent relocates its data (from the local mirror) before we
			// drop the buffer.
			_ = rec.agent.USReclaim(byUser[u])
		}
	}
}

// AllocExt is GS_alloc_ext(memSize): a guaranteed RAM Extension allocation.
// Admission control ensures the sum of guarantees never exceeds the rack's
// delegated memory; within that envelope the allocation must be fulfilled,
// scavenging active servers if needed. Zombie buffers are preferred. The
// returned buffers may come from multiple servers (failure containment).
func (g *GlobalController) AllocExt(user ServerID, memSize int64) ([]Buffer, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.servers[user]; !ok {
		return nil, ErrUnknownServer
	}
	g.stats.AllocExtCalls++
	need := buffersFor(memSize, g.bufferSize)
	if need == 0 {
		return nil, nil
	}
	// Admission control: guaranteed allocations must fit in the delegated pool.
	delegated := func(*Buffer) bool { return true }
	want := int64(need)*g.bufferSize + g.db.bytes(func(b *Buffer) bool { return b.Guaranteed })
	if short := want - g.db.bytes(delegated); short > 0 {
		// Try to scavenge more memory from active servers before rejecting.
		g.scavengeActiveLocked(short, user)
		if want > g.db.bytes(delegated) {
			return nil, ErrAdmissionControl
		}
	}
	got, err := g.allocateLocked(user, need, true)
	if err != nil {
		return nil, err
	}
	g.record(Operation{Kind: "alloc_ext", Server: user, IDs: bufferIDs(got), Bytes: memSize})
	return copies(got), nil
}

// AllocSwap is GS_alloc_swap(memSize): a best-effort allocation backing an
// explicit swap device. The returned memory may be less than requested.
func (g *GlobalController) AllocSwap(user ServerID, memSize int64) ([]Buffer, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.servers[user]; !ok {
		return nil, ErrUnknownServer
	}
	g.stats.AllocSwapCalls++
	got, _ := g.allocateLocked(user, buffersFor(memSize, g.bufferSize), false)
	g.record(Operation{Kind: "alloc_swap", Server: user, IDs: bufferIDs(got), Bytes: memSize})
	return copies(got), nil
}

// allocateLocked hands out up to need free buffers to user, zombie buffers
// first. When guaranteed is true and the free pool is short, it scavenges
// active servers (never the requester itself); if the allocation still cannot
// be fulfilled it fails without allocating anything. Best-effort (swap)
// allocations only consume what is already free: fast swap is not part of the
// VM's SLA, so the controller does not disturb active servers for it.
func (g *GlobalController) allocateLocked(user ServerID, need int, guaranteed bool) ([]*Buffer, error) {
	pick := func() []*Buffer {
		free := g.db.where(func(b *Buffer) bool { return !b.Allocated() && b.Type == ZombieBuffer })
		return append(free, g.db.where(func(b *Buffer) bool { return !b.Allocated() && b.Type == ActiveBuffer })...)
	}
	free := pick()
	if guaranteed && len(free) < need {
		g.scavengeActiveLocked(int64(need-len(free))*g.bufferSize, user)
		free = pick()
	}
	if guaranteed && len(free) < need {
		return nil, ErrNotEnoughMemory
	}
	got := free[:min(need, len(free))]
	for _, b := range got {
		b.User, b.Guaranteed = user, guaranteed
		g.stats.BuffersLent++
	}
	return got, nil
}

// scavengeActiveLocked asks active servers (other than exclude) for
// additional lendable memory until at least wantBytes of new buffers have
// been added (or providers run out). This is the AS_get_free_mem() path; the
// scavenged buffers are mirrored as an active delegation.
func (g *GlobalController) scavengeActiveLocked(wantBytes int64, exclude ServerID) {
	if wantBytes <= 0 {
		return
	}
	ids := make([]ServerID, 0, len(g.servers))
	for id := range g.servers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var added int64
	for _, id := range ids {
		if added >= wantBytes {
			return
		}
		rec := g.servers[id]
		if id == exclude || rec.role != RoleActive || rec.provider == nil {
			continue
		}
		for _, b := range g.lendLocked("delegate_active", id, rec.provider.ASGetFreeMem()) {
			added += b.Size
		}
	}
}

// Release returns buffers a user no longer needs to the free pool. A buffer
// that is already free or gone is skipped, so a repeated release changes
// nothing.
func (g *GlobalController) Release(user ServerID, ids []BufferID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, id := range ids {
		b := g.db.get(id)
		if b == nil || !b.Allocated() {
			continue
		}
		if b.User != user {
			return fmt.Errorf("memctl: server %s cannot release buffer %d owned by %s", user, id, b.User)
		}
		b.User, b.Guaranteed = "", false
		g.stats.BuffersReturned++
	}
	g.record(Operation{Kind: "release", Server: user, IDs: ids})
	return nil
}

// TransferBuffers moves the ownership of allocated buffers from one user
// server to another without touching the data. This is the ownership-pointer
// update of the ZombieStack migration protocol (Section 5.3): the VM's remote
// memory does not move; only the record of which server uses it changes. A
// guarantee stays on its grant.
func (g *GlobalController) TransferBuffers(from, to ServerID, ids []BufferID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.servers[to]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownServer, to)
	}
	for _, id := range ids {
		b := g.db.get(id)
		if b == nil {
			return fmt.Errorf("memctl: buffer %d does not exist", id)
		}
		if b.User != from {
			return fmt.Errorf("memctl: buffer %d is used by %s, not %s", id, b.User, from)
		}
	}
	for _, id := range ids {
		g.db.get(id).User = to
	}
	g.record(Operation{Kind: "transfer", Server: to, IDs: ids})
	return nil
}

// LRUZombie is GS_get_lru_zombie(): the zombie server with the minimum number
// of allocated buffers, i.e. the cheapest one to wake up because the least
// zombie memory has to be reclaimed.
func (g *GlobalController) LRUZombie() (ServerID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	best := ServerID("")
	bestCount := -1
	ids := make([]ServerID, 0, len(g.servers))
	for id := range g.servers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if g.servers[id].role != RoleZombie {
			continue
		}
		c := len(g.db.where(func(b *Buffer) bool { return b.Host == id && b.Allocated() }))
		if bestCount == -1 || c < bestCount {
			best, bestCount = id, c
		}
	}
	if best == "" {
		return "", ErrNoZombie
	}
	return best, nil
}

// FreeMemory returns the unallocated remote memory in bytes.
func (g *GlobalController) FreeMemory() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.db.bytes(func(b *Buffer) bool { return !b.Allocated() })
}

// BuffersOf returns copies of the buffers currently used by a server.
func (g *GlobalController) BuffersOf(user ServerID) []Buffer {
	g.mu.Lock()
	defer g.mu.Unlock()
	return copies(g.db.where(func(b *Buffer) bool { return b.User == user }))
}

// BuffersServedBy returns copies of the buffers served by a host.
func (g *GlobalController) BuffersServedBy(host ServerID) []Buffer {
	g.mu.Lock()
	defer g.mu.Unlock()
	return copies(g.db.where(func(b *Buffer) bool { return b.Host == host }))
}

// CheckInvariants validates the buffer database (used by tests).
func (g *GlobalController) CheckInvariants() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.db.checkInvariants()
}

// record assigns a sequence number and mirrors the operation.
func (g *GlobalController) record(op Operation) {
	g.seq++
	op.Seq = g.seq
	if g.mirror != nil {
		g.mirror.Apply(op)
	}
}

// buffersFor returns how many buffers of size bufSize cover memSize bytes.
func buffersFor(memSize, bufSize int64) int {
	if memSize <= 0 || bufSize <= 0 {
		return 0
	}
	n := memSize / bufSize
	if memSize%bufSize != 0 {
		n++
	}
	return int(n)
}

func bufferIDs(bufs []*Buffer) []BufferID {
	out := make([]BufferID, len(bufs))
	for i, b := range bufs {
		out[i] = b.ID
	}
	return out
}

// copies returns the records by value, so callers never alias the table.
func copies(bufs []*Buffer) []Buffer {
	out := make([]Buffer, len(bufs))
	for i, b := range bufs {
		out[i] = *b
	}
	return out
}

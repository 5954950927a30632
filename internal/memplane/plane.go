package memplane

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/chaos"
	"repro/internal/memctl"
	"repro/internal/obs"
	"repro/internal/rdma"
)

// DefaultPageSize matches the guest page size used everywhere else.
const DefaultPageSize int64 = 4096

// Default charges. Local accesses model a page-sized memcpy; a timed-out
// remote operation burns a full retransmission window before the initiator
// gives up.
const (
	DefaultLocalNs   int64 = 100
	DefaultTimeoutNs int64 = 1_000_000
)

// Errors returned by the data plane.
var (
	ErrRemoteTimeout = errors.New("memplane: remote operation timed out")
	ErrBadAddress    = errors.New("memplane: address outside the plane's address space")
	ErrClosed        = errors.New("memplane: plane is closed")
)

// Config parameterises a Plane.
type Config struct {
	// VM names the address space.
	VM string
	// LocalBytes sizes the local arena backing the fast path; allocations
	// overflow to remote grants once it is full.
	LocalBytes int64
	// AddressBytes bounds the VM-visible address space.
	AddressBytes int64

	// Agent is the growth path: overflow allocations request buffers through
	// its guaranteed GS_alloc_ext entry point, one controller buffer per
	// round. Optional when Buffers is enough.
	Agent *memctl.Agent
	// Buffers seeds the allocator with already-granted buffers.
	Buffers []*memctl.RemoteBuffer
	// SeedOffset is where the plane starts carving each of Buffers: the rows
	// below it belong to the VM's RAM Ext paging store, which pages into the
	// same buffers. A page-size multiple; buffers the plane grows through
	// Agent are carved whole.
	SeedOffset int64

	// Transport serves the remote path; InProcessTransport if nil.
	Transport Transport
	// Cost is read by nothing: the transports price every hop. It is kept
	// only because the benchmark module still sets it.
	Cost rdma.CostModel

	// Chaos, when set, degrades remote charges during FabricDegrade windows.
	Chaos *chaos.Plan
	// Now returns the simulation time in seconds for chaos window lookups.
	Now func() int64

	// Obs, when set, attaches the plane to an observability bundle: per-op
	// counters, an op-latency histogram, and trace events for every
	// read/write, fabric hop, timeout and re-home, stamped with the plane's
	// cumulative simulated charge so exports are byte-stable. Nil keeps the
	// data path allocation-free.
	Obs *obs.Obs
}

// Stats counts the plane's traffic. Every field is deterministic for a given
// op sequence, which is what lets the differential tests demand bit-identical
// values across transports.
type Stats struct {
	// Reads/Writes count plane-level operations; BytesRead/BytesWritten the
	// bytes they carried.
	Reads        uint64
	Writes       uint64
	BytesRead    uint64
	BytesWritten uint64
	// LocalOps and RemoteOps count page-granular accesses on each path.
	LocalOps  uint64
	RemoteOps uint64
	// RemoteBytesRead/Written are the bytes that crossed the fabric.
	RemoteBytesRead    uint64
	RemoteBytesWritten uint64
	// ChargedNs = LocalNs + RemoteNs + TimeoutNs charges + RehomeNs.
	ChargedNs int64
	LocalNs   int64
	RemoteNs  int64
	// Timeouts and ShortReads count chaos surfacing: operations that hit a
	// crashed host, and reads that returned fewer bytes than asked.
	Timeouts   uint64
	ShortReads uint64
	TimeoutNs  int64
	// MirrorWrites counts remote writes journalled to the local mirror.
	MirrorWrites uint64
	// Re-homing traffic after a crash.
	RehomedPages uint64
	RehomedBytes uint64
	RehomeNs     int64
}

// Plane is a VM's remote-memory data plane: an address space whose pages live
// either in a local arena (fast path) or in memctl-granted buffers on other
// servers (remote path through a Transport). Reads of never-written pages
// return zeros without allocating; writes allocate local-first and overflow
// to remote grants once the arena is full.
type Plane struct {
	mu    sync.Mutex
	cfg   Config
	table *PageTable
	alloc *allocator

	// page is Rehome's reusable one-page buffer.
	page []byte

	crashed map[memctl.ServerID]bool
	closed  bool

	stats Stats

	// obs is the resolved observability handle, nil on unobserved planes so
	// every emission site is one pointer test and no allocation (see obs.go).
	obs *planeObs
}

// New builds a plane.
func New(cfg Config) (*Plane, error) {
	if cfg.VM == "" {
		return nil, fmt.Errorf("memplane: plane needs a VM name")
	}
	if cfg.LocalBytes < 0 {
		return nil, fmt.Errorf("memplane: negative local size %d", cfg.LocalBytes)
	}
	if cfg.LocalBytes%DefaultPageSize != 0 {
		return nil, fmt.Errorf("memplane: local size %d is not a multiple of the page size %d", cfg.LocalBytes, DefaultPageSize)
	}
	if cfg.AddressBytes <= 0 || cfg.AddressBytes%DefaultPageSize != 0 {
		return nil, fmt.Errorf("memplane: address space %d is not a positive multiple of the page size %d", cfg.AddressBytes, DefaultPageSize)
	}
	if cfg.SeedOffset < 0 || cfg.SeedOffset%DefaultPageSize != 0 {
		return nil, fmt.Errorf("memplane: seed offset %d is not a non-negative multiple of the page size %d", cfg.SeedOffset, DefaultPageSize)
	}
	if cfg.Agent == nil && len(cfg.Buffers) == 0 && cfg.LocalBytes == 0 {
		return nil, fmt.Errorf("memplane: plane has no local arena, no buffers and no agent to grow through")
	}
	if cfg.Transport == nil {
		cfg.Transport = InProcessTransport{}
	}
	return &Plane{
		cfg:     cfg,
		table:   newPageTable(cfg.VM),
		alloc:   newAllocator(cfg.LocalBytes, cfg.Agent, cfg.Buffers, cfg.SeedOffset),
		crashed: make(map[memctl.ServerID]bool),
		obs:     newPlaneObs(cfg.Obs),
	}, nil
}

// VM returns the plane's address-space name.
func (p *Plane) VM() string { return p.cfg.VM }

// Table returns the plane's page table.
func (p *Plane) Table() *PageTable { return p.table }

// Stats returns a snapshot of the traffic counters.
func (p *Plane) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// AllocStats returns a snapshot of the allocator's footprint.
func (p *Plane) AllocStats() AllocStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.alloc.stats
}

// ResidentBytes returns the host memory materialised under the local arena.
// Remote pages live in the granted rdma regions, which the fabric counts.
func (p *Plane) ResidentBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.alloc.arena.Resident()
}

// CrashHost marks a serving host crashed: every remote operation against its
// frames now times out deterministically until ReviveHost (or until the pages
// are re-homed).
func (p *Plane) CrashHost(host memctl.ServerID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashed[host] = true
}

// ReviveHost clears a crash mark.
func (p *Plane) ReviveHost(host memctl.ServerID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.crashed, host)
}

// fabricFactor returns the chaos degradation multiplier at the current time.
func (p *Plane) fabricFactor() float64 {
	if p.cfg.Chaos == nil {
		return 1
	}
	var now int64
	if p.cfg.Now != nil {
		now = p.cfg.Now()
	}
	return p.cfg.Chaos.FabricFactorAt(now)
}

// degrade applies a chaos factor to a fabric charge; the arithmetic is shared
// by every transport so degraded charges stay bit-identical across them.
func degrade(ns int64, factor float64) int64 {
	if factor > 1 {
		return int64(float64(ns) * factor)
	}
	return ns
}

// charge books ns into the running totals.
func (p *Plane) charge(ns int64) {
	p.stats.ChargedNs += ns
}

// Write copies src into the address space at addr, allocating pages as
// needed. It returns the bytes written and the simulated charge. A remote
// frame on a crashed host surfaces ErrRemoteTimeout after a partial write.
func (p *Plane) Write(addr int64, src []byte) (int, int64, error) {
	return p.run(addr, len(src), func(page, off int64, span []byte) (int64, error) {
		return p.pageWrite(page, off, span)
	}, src, true)
}

// Read copies len(dst) bytes from the address space at addr into dst. Pages
// never written read as zeros without allocating. A remote frame on a crashed
// host surfaces ErrRemoteTimeout, making the read short.
func (p *Plane) Read(addr int64, dst []byte) (int, int64, error) {
	return p.run(addr, len(dst), func(page, off int64, span []byte) (int64, error) {
		return p.pageRead(page, off, span)
	}, dst, false)
}

// run walks the page spans of [addr, addr+n) applying op to each, charging
// and accounting as it goes. It returns the bytes completed before the first
// error (the "short read" surface).
func (p *Plane) run(addr int64, n int, op func(page, off int64, span []byte) (int64, error), buf []byte, write bool) (int, int64, error) {
	if addr < 0 {
		return 0, 0, fmt.Errorf("%w: negative address %d", ErrBadAddress, addr)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, 0, ErrClosed
	}
	if int64(n) > p.cfg.AddressBytes-addr {
		return 0, 0, fmt.Errorf("%w: %d bytes at %d exceed %d", ErrBadAddress, n, addr, p.cfg.AddressBytes)
	}
	if write {
		p.stats.Writes++
	} else {
		p.stats.Reads++
	}
	ps := DefaultPageSize
	done := 0
	var total int64
	for done < n {
		cur := addr + int64(done)
		page := cur / ps
		off := cur % ps
		span := ps - off
		if rem := int64(n - done); span > rem {
			span = rem
		}
		ns, err := op(page, off, buf[done:done+int(span)])
		total += ns
		p.charge(ns)
		if err != nil {
			p.account(done, write)
			p.obs.observeOp(p.stats.ChargedNs, write, done, total)
			return done, total, err
		}
		done += int(span)
	}
	p.account(done, write)
	p.obs.observeOp(p.stats.ChargedNs, write, done, total)
	return done, total, nil
}

// account books the completed byte count of one plane-level op.
func (p *Plane) account(n int, write bool) {
	if write {
		p.stats.BytesWritten += uint64(n)
	} else {
		p.stats.BytesRead += uint64(n)
	}
}

// pageWrite writes one span within a page, allocating its frame if missing;
// a fresh frame on a crashed host goes back unmapped, so the page keeps
// reading as zeros, not as the frame's stale bytes, after a revive or re-home.
func (p *Plane) pageWrite(page, off int64, src []byte) (int64, error) {
	frame, ok := p.table.frame(page)
	fresh := !ok
	if fresh {
		var err error
		if frame, err = p.alloc.alloc(); err != nil {
			return 0, err
		}
		if frame.Kind == FrameRemote && p.crashed[frame.Host] {
			p.alloc.unalloc(frame)
			return p.timeout(frame, "write")
		}
		if err := p.table.Map(page, frame); err != nil {
			p.alloc.unalloc(frame)
			return 0, err
		}
	}
	if frame.Kind == FrameLocal {
		if err := p.alloc.arena.WriteAt(src, frame.LocalOff+off); err != nil {
			return 0, fmt.Errorf("memplane: write of %s: %w", frame, err)
		}
		p.stats.LocalOps++
		p.stats.LocalNs += DefaultLocalNs
		return DefaultLocalNs, nil
	}
	if p.crashed[frame.Host] {
		return p.timeout(frame, "write")
	}
	// A freshly-mapped remote frame may hold stale bytes from a previous
	// tenant; a partial first write therefore writes the whole page (zeros
	// patched with the payload) so unwritten parts read back as zeros.
	writeOff, payload := off, src
	if fresh && (off != 0 || int64(len(src)) != DefaultPageSize) {
		full := make([]byte, DefaultPageSize)
		copy(full[off:], src)
		writeOff, payload = 0, full
	}
	ns, err := p.cfg.Transport.WriteRemote(frame, writeOff, payload)
	if err != nil {
		return 0, err
	}
	ns = degrade(ns, p.fabricFactor())
	p.stats.RemoteOps++
	p.stats.RemoteNs += ns
	p.stats.RemoteBytesWritten += uint64(len(payload))
	p.stats.MirrorWrites++
	p.obs.observeHop(p.stats.ChargedNs+ns, frame.Host, "write", ns)
	return ns, nil
}

// pageRead reads one span within a page; unmapped pages read as zeros.
func (p *Plane) pageRead(page, off int64, dst []byte) (int64, error) {
	frame, ok := p.table.frame(page)
	if !ok {
		for i := range dst {
			dst[i] = 0
		}
		p.stats.LocalOps++
		p.stats.LocalNs += DefaultLocalNs
		return DefaultLocalNs, nil
	}
	if frame.Kind == FrameLocal {
		if err := p.alloc.arena.ReadAt(dst, frame.LocalOff+off); err != nil {
			return 0, fmt.Errorf("memplane: read of %s: %w", frame, err)
		}
		p.stats.LocalOps++
		p.stats.LocalNs += DefaultLocalNs
		return DefaultLocalNs, nil
	}
	if p.crashed[frame.Host] {
		p.stats.ShortReads++
		ns, err := p.timeout(frame, "read")
		return ns, err
	}
	ns, err := p.cfg.Transport.ReadRemote(frame, off, dst)
	if err != nil {
		return 0, err
	}
	ns = degrade(ns, p.fabricFactor())
	p.stats.RemoteOps++
	p.stats.RemoteNs += ns
	p.stats.RemoteBytesRead += uint64(len(dst))
	p.obs.observeHop(p.stats.ChargedNs+ns, frame.Host, "read", ns)
	return ns, nil
}

// timeout books a deterministic timed-out remote operation.
func (p *Plane) timeout(frame Frame, op string) (int64, error) {
	p.stats.Timeouts++
	p.stats.TimeoutNs += DefaultTimeoutNs
	p.obs.observeTimeout(p.stats.ChargedNs+DefaultTimeoutNs, frame.Host, op)
	return DefaultTimeoutNs, fmt.Errorf("%w: %s of %s (host crashed)", ErrRemoteTimeout, op, frame)
}

// RehomeReport summarises one migration.
type RehomeReport struct {
	// Pages and Bytes are the migrated volume; Ns the fabric charge of the
	// migration writes.
	Pages int
	Bytes int64
	Ns    int64
}

// Rehome migrates every page served by the given (crashed) host onto freshly
// granted frames elsewhere, reading each back from the frame it leaves (the
// model's local mirror replay, so uncharged) and writing it through the
// transport. Pages are migrated in ascending order so the traffic is
// deterministic. The crash mark on the host is left in place; after Rehome
// returns no live page references it any more.
func (p *Plane) Rehome(host memctl.ServerID) (RehomeReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return RehomeReport{}, ErrClosed
	}
	var rep RehomeReport
	avoid := map[memctl.ServerID]bool{host: true}
	for other := range p.crashed {
		avoid[other] = true
	}
	if p.page == nil {
		p.page = make([]byte, DefaultPageSize)
	}
	for _, page := range p.table.PagesOn(host) {
		old, _ := p.table.frame(page)
		if _, err := p.cfg.Transport.ReadRemote(old, 0, p.page); err != nil {
			return rep, fmt.Errorf("memplane: replaying page %d off %s: %w", page, old, err)
		}
		frame, err := p.alloc.allocRemote(avoid)
		if err != nil {
			return rep, err
		}
		ns, err := p.cfg.Transport.WriteRemote(frame, 0, p.page)
		if err != nil {
			p.alloc.unalloc(frame)
			return rep, err
		}
		ns = degrade(ns, p.fabricFactor())
		if _, err := p.table.Remap(page, frame); err != nil {
			p.alloc.unalloc(frame)
			return rep, err
		}
		p.alloc.discard(old)
		rep.Pages++
		rep.Bytes += DefaultPageSize
		rep.Ns += ns
		p.stats.RehomedPages++
		p.stats.RehomedBytes += uint64(DefaultPageSize)
		p.stats.RehomeNs += ns
		p.charge(ns)
	}
	p.obs.observeRehome(p.stats.ChargedNs, host, rep)
	return rep, nil
}

// Close releases the plane's granted buffers back to the controller. The
// plane rejects further operations.
func (p *Plane) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	return p.alloc.close()
}

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
	// VM names the address space (and the local arena).
	VM string
	// LocalBytes sizes the local arena backing the fast path.
	LocalBytes int64
	// SoftLimitBytes caps how much of the arena is used before allocations
	// overflow to remote grants; defaults to LocalBytes.
	SoftLimitBytes int64
	// PageSize is the translation granularity; DefaultPageSize if 0.
	PageSize int64
	// AddressBytes bounds the VM-visible address space; 0 means unbounded.
	AddressBytes int64

	// Agent is the growth path: overflow allocations request buffers through
	// its guaranteed GS_alloc_ext entry point. Optional when Buffers is
	// enough.
	Agent *memctl.Agent
	// Buffers seeds the allocator with already-granted buffers.
	Buffers []*memctl.RemoteBuffer
	// GrantBytes is the request size of one growth round; the controller's
	// buffer size if 0.
	GrantBytes int64

	// Transport serves the remote path; InProcessTransport if nil.
	Transport Transport
	// Cost prices timeouts and the ledger cross-check; the rdma default if
	// zero.
	Cost rdma.CostModel
	// LocalNs is the charge of one local page access; DefaultLocalNs if 0.
	LocalNs int64
	// TimeoutNs is the charge of one timed-out remote operation;
	// DefaultTimeoutNs if 0.
	TimeoutNs int64

	// Chaos, when set, degrades remote charges during FabricDegrade windows.
	Chaos *chaos.Plan
	// Now returns the simulation time in seconds for chaos window lookups.
	Now func() int64

	// Table, when set, shares a page table with other planes (the aliasing
	// invariant then spans all of them). A private table is built if nil.
	Table *PageTable

	// RecordLatencies keeps the per-operation charge series for percentile
	// reporting (membench); off by default to bound memory.
	RecordLatencies bool

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
	// MirrorWrites counts local-mirror patches (crash recovery journal).
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
// to remote grants past the soft limit.
type Plane struct {
	mu     sync.Mutex
	cfg    Config
	table  *PageTable
	alloc  *allocator
	shared bool

	// pages is the VM's index inside table, resolved once so a page op looks
	// its frame up by page number alone.
	pages vmIndex

	// mirror keeps a local copy of every remotely-written page (the paper's
	// asynchronous local-storage mirror), which is what re-homing replays.
	mirror map[int64][]byte

	crashed map[memctl.ServerID]bool
	closed  bool

	stats     Stats
	latencies []int64

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
	if cfg.PageSize <= 0 {
		cfg.PageSize = DefaultPageSize
	}
	if cfg.LocalBytes%cfg.PageSize != 0 {
		return nil, fmt.Errorf("memplane: local size %d is not a multiple of the page size %d", cfg.LocalBytes, cfg.PageSize)
	}
	if cfg.AddressBytes < 0 {
		return nil, fmt.Errorf("memplane: negative address space %d", cfg.AddressBytes)
	}
	if cfg.Agent == nil && len(cfg.Buffers) == 0 && cfg.LocalBytes == 0 {
		return nil, fmt.Errorf("memplane: plane has no local arena, no buffers and no agent to grow through")
	}
	if cfg.Transport == nil {
		cfg.Transport = InProcessTransport{}
	}
	if cfg.Cost == (rdma.CostModel{}) {
		cfg.Cost = rdma.DefaultCostModel()
	}
	if cfg.LocalNs <= 0 {
		cfg.LocalNs = DefaultLocalNs
	}
	if cfg.TimeoutNs <= 0 {
		cfg.TimeoutNs = DefaultTimeoutNs
	}
	if cfg.GrantBytes <= 0 {
		if cfg.Agent != nil {
			cfg.GrantBytes = cfg.Agent.ControllerBufferSize()
		} else {
			cfg.GrantBytes = memctl.DefaultBufferSize
		}
	}
	table := cfg.Table
	shared := table != nil
	if table == nil {
		table = NewPageTable(cfg.PageSize)
	} else if table.PageSize() != cfg.PageSize {
		return nil, fmt.Errorf("memplane: shared table page size %d != plane page size %d", table.PageSize(), cfg.PageSize)
	}
	return &Plane{
		cfg:     cfg,
		table:   table,
		pages:   table.index(cfg.VM),
		shared:  shared,
		alloc:   newAllocator(cfg.VM, cfg.PageSize, cfg.LocalBytes, cfg.SoftLimitBytes, cfg.Agent, cfg.GrantBytes, cfg.Buffers),
		mirror:  make(map[int64][]byte),
		crashed: make(map[memctl.ServerID]bool),
		obs:     newPlaneObs(cfg.Obs),
	}, nil
}

// VM returns the plane's address-space name.
func (p *Plane) VM() string { return p.cfg.VM }

// PageSize returns the translation granularity.
func (p *Plane) PageSize() int64 { return p.cfg.PageSize }

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
func (p *Plane) ResidentBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.alloc.arena.Resident()
}

// Latencies returns the recorded per-operation charges (RecordLatencies).
func (p *Plane) Latencies() []int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int64, len(p.latencies))
	copy(out, p.latencies)
	return out
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

// recordLatency appends one plane-level op's total charge to the series.
func (p *Plane) recordLatency(ns int64) {
	if p.cfg.RecordLatencies {
		p.latencies = append(p.latencies, ns)
	}
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
	if p.cfg.AddressBytes > 0 && addr+int64(n) > p.cfg.AddressBytes {
		return 0, 0, fmt.Errorf("%w: [%d,%d) exceeds %d", ErrBadAddress, addr, addr+int64(n), p.cfg.AddressBytes)
	}
	if write {
		p.stats.Writes++
	} else {
		p.stats.Reads++
	}
	ps := p.cfg.PageSize
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
			p.recordLatency(total)
			p.obs.observeOp(p.stats.ChargedNs, write, done, total)
			return done, total, err
		}
		done += int(span)
	}
	p.account(done, write)
	p.recordLatency(total)
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

// pageWrite writes one span within a page, allocating its frame if missing.
func (p *Plane) pageWrite(page, off int64, src []byte) (int64, error) {
	frame, ok := p.table.lookup(p.pages, page)
	fresh := false
	if !ok {
		var err error
		frame, err = p.alloc.alloc()
		if err != nil {
			return 0, err
		}
		if err := p.table.Map(p.cfg.VM, page, frame); err != nil {
			p.alloc.free(frame)
			return 0, err
		}
		fresh = true
	}
	if frame.Kind == FrameLocal {
		if err := p.alloc.arena.WriteAt(src, frame.LocalOff+off); err != nil {
			return 0, fmt.Errorf("memplane: write of %s: %w", frame, err)
		}
		p.stats.LocalOps++
		p.stats.LocalNs += p.cfg.LocalNs
		return p.cfg.LocalNs, nil
	}
	if p.crashed[frame.Host] {
		return p.timeout(frame, "write")
	}
	// A freshly-mapped remote frame may hold stale bytes from a previous
	// tenant; a partial first write therefore writes the whole page (zeros
	// patched with the payload) so unwritten parts read back as zeros.
	writeOff, payload := off, src
	if fresh && (off != 0 || int64(len(src)) != p.cfg.PageSize) {
		full := make([]byte, p.cfg.PageSize)
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
	p.patchMirror(page, writeOff, payload)
	p.obs.observeHop(p.stats.ChargedNs+ns, frame.Host, "write", ns)
	return ns, nil
}

// pageRead reads one span within a page; unmapped pages read as zeros.
func (p *Plane) pageRead(page, off int64, dst []byte) (int64, error) {
	frame, ok := p.table.lookup(p.pages, page)
	if !ok {
		for i := range dst {
			dst[i] = 0
		}
		p.stats.LocalOps++
		p.stats.LocalNs += p.cfg.LocalNs
		return p.cfg.LocalNs, nil
	}
	if frame.Kind == FrameLocal {
		if err := p.alloc.arena.ReadAt(dst, frame.LocalOff+off); err != nil {
			return 0, fmt.Errorf("memplane: read of %s: %w", frame, err)
		}
		p.stats.LocalOps++
		p.stats.LocalNs += p.cfg.LocalNs
		return p.cfg.LocalNs, nil
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
	if !p.cfg.Transport.MovesBytes() {
		// The ledger transport moved nothing; serve the bytes from the mirror
		// so reads still return the last write.
		p.readMirror(page, off, dst)
	}
	return ns, nil
}

// timeout books a deterministic timed-out remote operation.
func (p *Plane) timeout(frame Frame, op string) (int64, error) {
	p.stats.Timeouts++
	p.stats.TimeoutNs += p.cfg.TimeoutNs
	p.obs.observeTimeout(p.stats.ChargedNs+p.cfg.TimeoutNs, frame.Host, op)
	return p.cfg.TimeoutNs, fmt.Errorf("%w: %s of %s (host crashed)", ErrRemoteTimeout, op, frame)
}

// patchMirror journals a remote write into the local mirror page.
func (p *Plane) patchMirror(page, off int64, src []byte) {
	m, ok := p.mirror[page]
	if !ok {
		m = make([]byte, p.cfg.PageSize)
		p.mirror[page] = m
	}
	copy(m[off:], src)
	p.stats.MirrorWrites++
}

// readMirror serves a read from the mirror (ledger transport only).
func (p *Plane) readMirror(page, off int64, dst []byte) {
	m, ok := p.mirror[page]
	if !ok {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	copy(dst, m[off:off+int64(len(dst))])
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
// granted frames elsewhere, replaying the local mirror through the transport.
// Pages are migrated in ascending order so the traffic is deterministic. The
// crash mark on the host is left in place; after Rehome returns no live page
// references it any more.
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
	for _, page := range p.table.PagesOn(p.cfg.VM, host) {
		frame, err := p.alloc.allocRemote(avoid)
		if err != nil {
			return rep, err
		}
		data, ok := p.mirror[page]
		if !ok {
			data = make([]byte, p.cfg.PageSize)
		}
		ns, err := p.cfg.Transport.WriteRemote(frame, 0, data)
		if err != nil {
			p.alloc.free(frame)
			return rep, err
		}
		ns = degrade(ns, p.fabricFactor())
		old, err := p.table.Remap(p.cfg.VM, page, frame)
		if err != nil {
			p.alloc.free(frame)
			return rep, err
		}
		p.alloc.discard(old)
		rep.Pages++
		rep.Bytes += p.cfg.PageSize
		rep.Ns += ns
		p.stats.RehomedPages++
		p.stats.RehomedBytes += uint64(p.cfg.PageSize)
		p.stats.RehomeNs += ns
		p.charge(ns)
	}
	p.obs.observeRehome(p.stats.ChargedNs, host, rep)
	return rep, nil
}

// Free unmaps a page and returns its frame to the allocator, dropping any
// mirrored data. Freeing an unmapped page is a no-op.
func (p *Plane) Free(addr int64) error {
	if addr < 0 {
		return fmt.Errorf("%w: negative address %d", ErrBadAddress, addr)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	page := addr / p.cfg.PageSize
	f, err := p.table.Unmap(p.cfg.VM, page)
	if err != nil {
		if errors.Is(err, ErrNotMapped) {
			return nil
		}
		return err
	}
	if f.Kind == FrameLocal {
		// Scrub so a re-allocation of the frame reads as zeros.
		if err := p.alloc.arena.Zero(f.LocalOff, p.cfg.PageSize); err != nil {
			return fmt.Errorf("memplane: scrub of %s: %w", f, err)
		}
	}
	delete(p.mirror, page)
	if f.Kind == FrameRemote && p.crashed[f.Host] {
		p.alloc.discard(f)
	} else {
		p.alloc.free(f)
	}
	return nil
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
	p.table.drop(p.cfg.VM)
	return p.alloc.close()
}

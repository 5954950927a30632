package rdma

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/pagestore"
)

// Common errors returned by the fabric.
var (
	ErrDeviceDown       = errors.New("rdma: device is down")
	ErrRemoteNotServing = errors.New("rdma: remote memory path is not serving")
	ErrInvalidKey       = errors.New("rdma: invalid remote key")
	ErrOutOfBounds      = errors.New("rdma: access outside registered region")
	ErrQPNotConnected   = errors.New("rdma: queue pair is not connected")
	ErrNoReceivePosted  = errors.New("rdma: no receive work request posted")
	ErrRegionExists     = errors.New("rdma: memory region already registered")
)

// CostModel carries the latency and bandwidth parameters of the fabric. All
// latencies are in nanoseconds; bandwidth in bytes per second.
type CostModel struct {
	// OneSidedLatencyNs is the base latency of an RDMA READ or WRITE
	// (queue-pair processing + switch hop + PCIe/DMA on the target).
	OneSidedLatencyNs int64
	// TwoSidedLatencyNs is the base latency of a SEND/RECV pair, which
	// additionally involves the remote CPU posting and reaping work requests.
	TwoSidedLatencyNs int64
	// SwitchHopNs is added per switch traversal.
	SwitchHopNs int64
	// BandwidthBytesPerSec bounds the payload transfer rate.
	BandwidthBytesPerSec float64
	// InterRackHopNs is the extra one-way latency of leaving the rack: the
	// ToR uplink, the spine switch and the longer cable run. It is charged —
	// on top of two extra SwitchHopNs traversals — to every operation that
	// involves an uplink device (see Fabric.AttachUplinkDevice), which is how
	// the fleet layer prices cross-rack remote memory borrows.
	InterRackHopNs int64
}

// DefaultCostModel returns FDR-Infiniband-like parameters: ~2 microseconds
// one-sided latency, ~5 microseconds for a SEND/RECV pair involving the remote
// CPU, 56 Gb/s link bandwidth.
func DefaultCostModel() CostModel {
	return CostModel{
		OneSidedLatencyNs:    2_000,
		TwoSidedLatencyNs:    5_000,
		SwitchHopNs:          300,
		BandwidthBytesPerSec: 7e9, // 56 Gb/s
		InterRackHopNs:       1_500,
	}
}

// TransferNs returns the simulated time to move size bytes one way, including
// the base latency and a switch hop.
func (c CostModel) TransferNs(base int64, size int) int64 {
	t := base + c.SwitchHopNs
	if c.BandwidthBytesPerSec > 0 && size > 0 {
		t += int64(float64(size) / c.BandwidthBytesPerSec * 1e9)
	}
	return t
}

// CrossRackTransferNs prices the same transfer when it leaves the rack: the
// intra-rack cost plus two extra switch traversals (source ToR uplink and
// destination ToR downlink) and the inter-rack hop premium.
func (c CostModel) CrossRackTransferNs(base int64, size int) int64 {
	return c.TransferNs(base, size) + 2*c.SwitchHopNs + c.InterRackHopNs
}

// Stats aggregates fabric traffic counters.
type Stats struct {
	Reads        uint64
	Writes       uint64
	Sends        uint64
	BytesRead    uint64
	BytesWritten uint64
	BytesSent    uint64
	SimulatedNs  int64
	FailedOps    uint64
	// InterRackOps, InterRackBytes and InterRackNs account the subset of the
	// traffic that crossed a rack boundary (operations involving an uplink
	// device), so a fleet can tell local disaggregation from borrowed memory.
	InterRackOps   uint64
	InterRackBytes uint64
	InterRackNs    int64
}

// Fabric is the rack switch: it connects devices and accounts traffic.
type Fabric struct {
	mu      sync.Mutex
	model   CostModel
	devices map[string]*Device
	stats   Stats
	nextKey uint32
}

// NewFabric creates a fabric with the given cost model.
func NewFabric(model CostModel) *Fabric {
	return &Fabric{model: model, devices: make(map[string]*Device), nextKey: 1}
}

// Model returns the fabric cost model.
func (f *Fabric) Model() CostModel { return f.model }

// Stats returns a snapshot of the traffic counters.
func (f *Fabric) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Device returns the named device, or nil.
func (f *Fabric) Device(name string) *Device {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.devices[name]
}

// Devices returns the number of attached devices.
func (f *Fabric) Devices() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.devices)
}

// ResidentBytes returns the host memory materialised under the regions
// registered on the fabric's devices: the bytes borrowers have actually
// stored in lent memory, as opposed to the bytes lent. Devices keep a running
// count, so this costs one addition per device however many regions exist.
func (f *Fabric) ResidentBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var total int64
	for _, d := range f.devices {
		total += d.resident
	}
	return total
}

// AttachDevice creates and registers a device (one per host NIC).
func (f *Fabric) AttachDevice(name string) (*Device, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.devices[name]; ok {
		return nil, fmt.Errorf("rdma: device %q already attached", name)
	}
	d := &Device{
		name:    name,
		fabric:  f,
		serving: true,
		up:      true,
		regions: make(map[uint32]*MemoryRegion),
	}
	f.devices[name] = d
	return d, nil
}

// AttachUplinkDevice creates and registers a device that represents a NIC in
// ANOTHER rack reaching this fabric through the datacenter spine. Every
// operation it initiates (or terminates) is priced with the inter-rack hop
// premium of the cost model and accounted in the InterRack* stats. The fleet
// layer attaches one uplink device per borrower rack to a lender rack's
// fabric to model cross-rack remote memory.
func (f *Fabric) AttachUplinkDevice(name string) (*Device, error) {
	d, err := f.AttachDevice(name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	d.interRack = true
	f.mu.Unlock()
	return d, nil
}

// InterRack reports whether the device reaches this fabric from another rack.
func (d *Device) InterRack() bool {
	d.fabric.mu.Lock()
	defer d.fabric.mu.Unlock()
	return d.interRack
}

func (f *Fabric) allocKey() uint32 {
	f.nextKey++
	return f.nextKey
}

func (f *Fabric) addTime(ns int64) {
	f.stats.SimulatedNs += ns
}

// Device is an RDMA NIC attached to the fabric.
type Device struct {
	name   string
	fabric *Fabric

	// up models the NIC function: posting new work requires an up device.
	up bool
	// serving models the memory path: DRAM + memory controller + PCIe to the
	// NIC. A zombie host has up=false (its driver is suspended with the CPU)
	// but serving=true, so it can be the TARGET of one-sided verbs while it
	// cannot INITIATE them.
	serving bool
	// interRack marks an uplink device: a NIC that belongs to another rack
	// and reaches this fabric through the spine (see AttachUplinkDevice).
	interRack bool

	regions map[uint32]*MemoryRegion
	// resident sums the regions' materialised bytes (see
	// Fabric.ResidentBytes): grown by verbs that write, shrunk on deregister.
	resident int64
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// SetUp marks the NIC able (or unable) to initiate work requests.
func (d *Device) SetUp(up bool) {
	d.fabric.mu.Lock()
	defer d.fabric.mu.Unlock()
	d.up = up
}

// Up reports whether the NIC can initiate work.
func (d *Device) Up() bool {
	d.fabric.mu.Lock()
	defer d.fabric.mu.Unlock()
	return d.up
}

// SetServing marks the device's memory path able (or unable) to serve
// one-sided operations. The rack manager calls this on Sz enter/exit and S3
// enter (Sz keeps serving true, S3 sets it false).
func (d *Device) SetServing(serving bool) {
	d.fabric.mu.Lock()
	defer d.fabric.mu.Unlock()
	d.serving = serving
}

// Serving reports whether the memory path serves one-sided operations.
func (d *Device) Serving() bool {
	d.fabric.mu.Lock()
	defer d.fabric.mu.Unlock()
	return d.serving
}

// MemoryRegion is a registered buffer addressable by remote keys. Its bytes
// live in a sparse store: registering a region reserves its address range
// and costs no host memory until a verb writes into it.
type MemoryRegion struct {
	device *Device
	lkey   uint32
	rkey   uint32
	store  *pagestore.Store
	// remoteWritable / remoteReadable carry the access flags.
	remoteReadable bool
	remoteWritable bool
}

// LKey returns the local key of the region.
func (m *MemoryRegion) LKey() uint32 { return m.lkey }

// RKey returns the remote key of the region.
func (m *MemoryRegion) RKey() uint32 { return m.rkey }

// Len returns the region size in bytes.
func (m *MemoryRegion) Len() int { return int(m.store.Len()) }

// ReadAt copies the region's bytes at [off, off+len(dst)) into dst: local
// access by the owning host, which reads its own memory without a verb.
func (m *MemoryRegion) ReadAt(dst []byte, off int64) error {
	f := m.device.fabric
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := m.store.ReadAt(dst, off); err != nil {
		return ErrOutOfBounds
	}
	return nil
}

// AccessFlags describe the remote permissions of a memory region.
type AccessFlags struct {
	RemoteRead  bool
	RemoteWrite bool
}

// RegisterMemory registers size bytes with the device and returns the region.
func (d *Device) RegisterMemory(size int, access AccessFlags) (*MemoryRegion, error) {
	if size <= 0 {
		return nil, fmt.Errorf("rdma: memory region size must be positive, got %d", size)
	}
	d.fabric.mu.Lock()
	defer d.fabric.mu.Unlock()
	mr := &MemoryRegion{
		device:         d,
		lkey:           d.fabric.allocKey(),
		rkey:           d.fabric.allocKey(),
		store:          pagestore.New(int64(size)),
		remoteReadable: access.RemoteRead,
		remoteWritable: access.RemoteWrite,
	}
	d.regions[mr.rkey] = mr
	return mr, nil
}

// DeregisterMemory removes a region; subsequent remote access fails.
func (d *Device) DeregisterMemory(mr *MemoryRegion) {
	d.fabric.mu.Lock()
	defer d.fabric.mu.Unlock()
	if d.regions[mr.rkey] == mr {
		delete(d.regions, mr.rkey)
		d.resident -= mr.store.Resident()
	}
}

// Regions returns the number of registered regions.
func (d *Device) Regions() int {
	d.fabric.mu.Lock()
	defer d.fabric.mu.Unlock()
	return len(d.regions)
}

// lookupRegion finds a region by remote key (fabric lock held).
func (d *Device) lookupRegion(rkey uint32) (*MemoryRegion, bool) {
	mr, ok := d.regions[rkey]
	return mr, ok
}

// WorkCompletion is the result of a posted work request, delivered through a
// CompletionQueue.
type WorkCompletion struct {
	// WRID is the caller-chosen work request identifier.
	WRID uint64
	// Op names the verb ("READ", "WRITE", "SEND", "RECV").
	Op string
	// Status is nil on success.
	Status error
	// ByteLen is the payload size.
	ByteLen int
	// LatencyNs is the simulated completion latency.
	LatencyNs int64
	// Payload carries received data for RECV completions.
	Payload []byte
}

// CompletionQueue collects work completions for polling. It is unbounded: a
// completion stays queued until whoever owns the queue reaps it with Poll, so
// an owner that posts verbs for as long as it lives must also poll.
type CompletionQueue struct {
	mu sync.Mutex
	// entries[head:] are the pending completions, oldest first. Slots before
	// head have been reaped and cleared. Poll slides the pending ones back to
	// the front once they are no more than the reaped prefix (always, when it
	// drains the queue), so a queue that is polled keeps one backing array of
	// at most twice its deepest backlog.
	entries []WorkCompletion
	head    int
	polls   uint64
}

// NewCompletionQueue returns an empty completion queue.
func NewCompletionQueue() *CompletionQueue { return &CompletionQueue{} }

func (cq *CompletionQueue) push(wc WorkCompletion) {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	cq.entries = append(cq.entries, wc)
}

// Poll moves up to len(dst) pending completions, oldest first, into dst and
// returns how many it moved (the ibv_poll_cq shape). It costs time
// proportional to the completions reaped and allocates nothing. It models the
// polling clients of the paper's RPC layer.
func (cq *CompletionQueue) Poll(dst []WorkCompletion) int {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	cq.polls++
	n := copy(dst, cq.entries[cq.head:])
	// Clear the vacated slots: the array outlives them and must not pin a
	// RECV payload or a status error the caller has already taken.
	clear(cq.entries[cq.head : cq.head+n])
	cq.head += n
	if pending := cq.entries[cq.head:]; len(pending) <= cq.head {
		kept := copy(cq.entries, pending)
		clear(pending)
		cq.entries, cq.head = cq.entries[:kept], 0
	}
	return n
}

// Polls returns how many times the queue was polled.
func (cq *CompletionQueue) Polls() uint64 {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	return cq.polls
}

// Depth returns the number of pending completions.
func (cq *CompletionQueue) Depth() int {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	return len(cq.entries) - cq.head
}

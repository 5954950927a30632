package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/memctl"
	"repro/internal/memplane"
	"repro/internal/rdma"
)

// memRack is membench's miniature rack, built from the benchmark's own code:
// a fabric, a controller, one agent per server; server 0 hosts the VM and the
// zombies delegate their memory and keep the device path serving.
type memRack struct {
	fabric  *rdma.Fabric
	ctr     *memctl.GlobalController
	user    *memctl.Agent
	agents  []*memctl.Agent
	devices map[string]*rdma.Device
}

func newMemRack(servers, zombies int, memBytes int64) (*memRack, error) {
	r := &memRack{
		fabric:  rdma.NewFabric(rdma.DefaultCostModel()),
		ctr:     memctl.NewGlobalController(),
		devices: make(map[string]*rdma.Device),
	}
	resolve := func(id memctl.ServerID) *rdma.Device { return r.devices[string(id)] }
	for i := 0; i < servers; i++ {
		name := fmt.Sprintf("server-%02d", i)
		dev, err := r.fabric.AttachDevice(name)
		if err != nil {
			return nil, err
		}
		r.devices[name] = dev
		reserved := int64(0)
		if i == 0 {
			reserved = memBytes
		}
		agent, err := memctl.NewAgent(memctl.AgentConfig{
			ID: memctl.ServerID(name), Controller: r.ctr, Device: dev,
			TotalMem: memBytes, ReservedMem: reserved, ResolveDevice: resolve,
		})
		if err != nil {
			return nil, err
		}
		r.agents = append(r.agents, agent)
		if i == 0 {
			r.user = agent
		} else if i <= zombies {
			if _, err := agent.DelegateAndGoZombie(); err != nil {
				return nil, err
			}
			dev.SetUp(false)
			dev.SetServing(true)
		}
	}
	return r, nil
}

// tracedTransport wraps a memplane.Transport: every remote page op of a
// sampled plane op becomes a memplane.transport span. The in-process
// transport underneath is the memctl handle and the rdma verb, so the span is
// booked to memctl and the ladder splits the verb's share off.
type tracedTransport struct {
	memplane.Transport
	tr  *tracer
	cur *spanRef
}

func (t tracedTransport) WriteRemote(f memplane.Frame, off int64, src []byte) (int64, error) {
	sp := t.tr.child(*t.cur, layerMemctl, "memplane.transport")
	ns, err := t.Transport.WriteRemote(f, off, src)
	t.tr.end(sp)
	return ns, err
}

func (t tracedTransport) ReadRemote(f memplane.Frame, off int64, dst []byte) (int64, error) {
	sp := t.tr.child(*t.cur, layerMemctl, "memplane.transport")
	ns, err := t.Transport.ReadRemote(f, off, dst)
	t.tr.end(sp)
	return ns, err
}

const (
	memPage      = 4096
	memBigOp     = 64 << 10
	memSchedLen  = 1 << 16
	memPayloads  = 256
	memServerMiB = 128
	memLocalMiB  = 8
	memSpanMiB   = 64
)

// memOp is one schedule entry. cost is the simulated charge the cost model
// owes for it, fixed once every page is mapped.
type memOp struct {
	addr  int64
	n     int32
	write bool
	buf   uint8
	cost  int64
}

// memTransfer: seeded unaligned reads and writes straight on one plane.
//
// memctl never reaps the completions its queue pairs post, so a plane's
// completion queue grows with every remote page op: after some seconds the
// collector scans hundreds of MiB of completions and the op rate drifts with
// it. The workload therefore rebuilds its rack between the parts of the
// window (recycle, untimed): every part measures the same few seconds of a
// fresh plane, and each retired plane is verified before it is dropped.
type memTransfer struct {
	tr       *tracer
	cur      spanRef // the sampled op's span, read by tracedTransport
	plane    *memplane.Plane
	span     int64
	sched    []memOp
	payloads [][]byte
	scratch  []byte
	sink     []byte // keeps gen's slicing from being optimised away
	prefill  []byte // what every 64 KiB block of the span holds after pre-write
	warm     int    // ops [0, warm) ran during set-up
	rate     float64

	planeFrom int   // index of the first op the current plane ran
	next      int   // index of the next op
	charged0  int64 // the current plane's ChargedNs after pre-write
	failed    int   // failed checks of retired planes
	notes     map[string]any
}

func setupMemTransfer(e *env) (instance, error) {
	m := &memTransfer{tr: e.tr, cur: noSpan, span: memSpanMiB << 20, scratch: make([]byte, memBigOp), notes: map[string]any{}}
	rng := rand.New(rand.NewSource(e.seed))
	m.payloads = make([][]byte, memPayloads)
	for i := range m.payloads {
		m.payloads[i] = make([]byte, memBigOp)
		rng.Read(m.payloads[i])
	}
	m.prefill = make([]byte, memBigOp)
	rng.Read(m.prefill)
	if err := m.build(); err != nil {
		return nil, err
	}

	model := rdma.DefaultCostModel()
	m.sched = make([]memOp, memSchedLen)
	for i := range m.sched {
		op := memOp{n: memPage, write: rng.Float64() < 0.6, buf: uint8(rng.Intn(memPayloads))}
		if rng.Float64() < 0.15 {
			op.n = memBigOp
		}
		op.addr = rng.Int63n(m.span - int64(op.n) + 1)
		for a, end := op.addr, op.addr+int64(op.n); a < end; {
			chunk := min(memPage-a%memPage, end-a)
			frame, ok := m.plane.Table().Lookup("bench", a/memPage)
			switch {
			case !ok:
				return nil, fmt.Errorf("page %d unmapped after pre-write", a/memPage)
			case frame.Remote():
				op.cost += model.TransferNs(model.OneSidedLatencyNs, int(chunk))
			default:
				op.cost += memplane.DefaultLocalNs
			}
			a += chunk
		}
		m.sched[i] = op
	}

	m.warm = e.scaled(20000, 200)
	t0 := time.Now()
	for i := 0; i < m.warm; i++ {
		if _, err := m.op(0, i, noSpan); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	m.rate = float64(m.warm) / time.Since(t0).Seconds()
	return m, nil
}

// build wires a fresh rack and plane and pre-writes every page, so the window
// never allocates a frame: the first 8 MiB land in the local arena, the rest
// in the zombies' buffers, the same layout every time.
func (m *memTransfer) build() error {
	rack, err := newMemRack(3, 2, memServerMiB<<20)
	if err != nil {
		return err
	}
	cfg := memplane.Config{
		VM: "bench", LocalBytes: memLocalMiB << 20, AddressBytes: m.span,
		Agent: rack.user, Cost: rack.fabric.Model(),
	}
	if m.tr != nil {
		cfg.Transport = tracedTransport{Transport: memplane.InProcessTransport{}, tr: m.tr, cur: &m.cur}
	}
	if m.plane, err = memplane.New(cfg); err != nil {
		return err
	}
	for off := int64(0); off < m.span; off += memBigOp {
		if _, _, err := m.plane.Write(off, m.prefill); err != nil {
			return fmt.Errorf("pre-write at %d: %w", off, err)
		}
	}
	m.charged0 = m.plane.Stats().ChargedNs
	m.planeFrom = m.next
	return nil
}

func (m *memTransfer) clients() int        { return 1 }
func (m *memTransfer) start() []int        { return []int{m.warm} }
func (m *memTransfer) opRateHint() float64 { return m.rate }
func (m *memTransfer) classes() []string {
	return []string{"write_4k", "read_4k", "write_64k", "read_64k"}
}

func (m *memTransfer) op(c, i int, sp spanRef) (int, error) {
	op := &m.sched[i%memSchedLen]
	class := 0
	if op.n == memBigOp {
		class = 2
	}
	m.cur = sp
	m.next = i + 1
	if op.write {
		_, _, err := m.plane.Write(op.addr, m.payloads[op.buf][:op.n])
		return class, err
	}
	_, _, err := m.plane.Read(op.addr, m.scratch[:op.n])
	return class + 1, err
}

// gen is the generator's share of an op: fetching the schedule entry and
// slicing a pre-filled payload. No byte is written per op.
func (m *memTransfer) gen(c, i int) {
	op := &m.sched[i%memSchedLen]
	if op.write {
		m.sink = m.payloads[op.buf][:op.n]
	}
}

// checkPlane reads the current plane's whole span back against a shadow and
// checks its charge against the cost model. The shadow is the pre-write
// pattern overlaid with the plane's last memSchedLen writes: the schedule is
// cyclic, so every byte any op ever wrote is written again, last, within the
// final cycle.
func (m *memTransfer) checkPlane() error {
	shadow := make([]byte, m.span)
	for off := int64(0); off < m.span; off += memBigOp {
		copy(shadow[off:], m.prefill)
	}
	for i := max(m.planeFrom, m.next-memSchedLen); i < m.next; i++ {
		if op := &m.sched[i%memSchedLen]; op.write {
			copy(shadow[op.addr:], m.payloads[op.buf][:op.n])
		}
	}
	var want int64
	for i := m.planeFrom; i < m.next; i++ {
		want += m.sched[i%memSchedLen].cost
	}
	if got := m.plane.Stats().ChargedNs - m.charged0; got != want {
		m.failed++
		m.notes["charge_mismatch"] = fmt.Sprintf("ops [%d,%d): plane charged %d ns, cost model sums to %d ns", m.planeFrom, m.next, got, want)
	}
	check := make([]byte, memBigOp)
	for off := int64(0); off < m.span; off += memBigOp {
		if _, _, err := m.plane.Read(off, check); err != nil {
			return fmt.Errorf("verify read at %d: %w", off, err)
		}
		if !bytes.Equal(check, shadow[off:off+memBigOp]) {
			m.failed++
			m.notes["readback_mismatch"] = fmt.Sprintf("ops [%d,%d): first differing 64 KiB block at %d", m.planeFrom, m.next, off)
			break
		}
	}
	return nil
}

// recycle verifies and retires the current plane and builds a fresh one.
func (m *memTransfer) recycle() error {
	if err := m.checkPlane(); err != nil {
		return err
	}
	// Drop the retired rack before building the next one, so the two never
	// sit in the heap together and the peak does not depend on when the
	// collector would have run.
	_ = m.plane.Close()
	m.plane = nil
	runtime.GC()
	return m.build()
}

func (m *memTransfer) verify() (int, map[string]any, error) {
	if err := m.checkPlane(); err != nil {
		return m.failed, m.notes, err
	}
	st := m.plane.Stats()
	m.notes["last_plane_local_page_ops"], m.notes["last_plane_remote_page_ops"] = st.LocalOps, st.RemoteOps
	return m.failed, m.notes, nil
}

func (m *memTransfer) close() { _ = m.plane.Close() }

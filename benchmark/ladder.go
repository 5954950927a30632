package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/acpi"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hypervisor"
	"repro/internal/memctl"
	"repro/internal/memplane"
	"repro/internal/metrics"
	"repro/internal/pagepolicy"
	"repro/internal/rdma"
	"repro/internal/vm"
	"repro/internal/workload"
)

// metricSet collects per-layer metric values by name. The probes keep their
// times as float64 nanoseconds so a mean over many ops keeps its fraction.
type metricSet map[string]float64

func (m metricSet) ns(name string, ns float64) { m[name] = ns }
func (m metricSet) us(name string, ns float64) { m[name] = ns / 1e3 }
func (m metricSet) ms(name string, ns float64) { m[name] = ns / 1e6 }

// since returns the nanoseconds elapsed since t0.
func since(t0 time.Time) float64 { return float64(time.Since(t0)) }

// per runs f n times and returns the mean nanoseconds of one call.
func per(n int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return since(t0) / float64(n)
}

// ratio is a/b, or 0 when b is 0, so every emitted value stays finite.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ladder is what the serving-stack probes learned: for every route class, how
// one request's handler time splits over the layers below the gateway. There
// is no seam between gateway, fleet, core, memctl and rdma to hang a span on,
// so the same seeded ops are replayed directly against each level and a
// layer's self time is its level minus the level below.
type ladder struct {
	// self[route][layer] is the mean self time of one request, ns.
	self [numRoutes]map[layerID]float64
}

func (l *ladder) set(route int, layer layerID, ns float64) { l.self[route][layer] = max(0, ns) }

// split distributes the handler time of one route class over the layers in
// proportion to the ladder's self times.
func (l *ladder) split(route int, handlerNs float64, into []float64) {
	var sum float64
	for _, ns := range l.self[route] {
		sum += ns
	}
	if sum <= 0 {
		into[layerGateway] += handlerNs
		return
	}
	for layer, ns := range l.self[route] {
		into[layer] += handlerNs * ns / sum
	}
}

// probeBoard is the default board with another DRAM size. With the default
// 1 GiB host reservation a 2 GiB board lends 1 GiB in sixteen 64 MiB buffers,
// which is the session the serving workloads create.
func probeBoard(memBytes uint64) acpi.BoardSpec {
	b := acpi.DefaultBoardSpec()
	b.MemoryBytes = memBytes
	return b
}

func probeVMs(prefix string, n int, bytes int64) []vm.VM {
	specs := make([]vm.VM, n)
	for i := range specs {
		specs[i] = vm.New(fmt.Sprintf("%s-vm-%d", prefix, i), bytes, bytes*3/4)
		specs[i].VCPUs = 1
	}
	return specs
}

// runServingLadder measures the gateway routes over loopback and then replays
// the same ops against fleet, core, hypervisor/memplane, memctl and rdma
// directly. lt records the probe's own spans, flagged ladder in the trace
// file.
func runServingLadder(e *env, lt *tracer, m metricSet) (*ladder, error) {
	lad := &ladder{}
	for r := range lad.self {
		lad.self[r] = make(map[layerID]float64)
	}
	handler, err := probeGateway(e, lt, m)
	if err != nil {
		return nil, fmt.Errorf("gateway probe: %w", err)
	}
	unit, err := probeRDMAAndMemctl(e, lt, m)
	if err != nil {
		return nil, fmt.Errorf("memctl/rdma probe: %w", err)
	}
	if err := probeFleetAndCore(e, lt, m, lad, unit); err != nil {
		return nil, fmt.Errorf("fleet/core probe: %w", err)
	}
	if err := probeBatchSpeedup(e, m); err != nil {
		return nil, fmt.Errorf("fleet batch probe: %w", err)
	}
	if err := probeHypervisor(e, m); err != nil {
		return nil, fmt.Errorf("hypervisor probe: %w", err)
	}
	if err := probeMemplane(e, m, unit); err != nil {
		return nil, fmt.Errorf("memplane probe: %w", err)
	}
	// The gateway's own share of a request is what the handler took beyond the
	// fleet-level replay of the same op.
	for r := 0; r < numRoutes; r++ {
		var below float64
		for _, ns := range lad.self[r] {
			below += ns
		}
		lad.set(r, layerGateway, handler[r]-below)
	}
	return lad, nil
}

// probeGateway drives a probe gateway with one client through a fixed number
// of session lifecycles and steady requests, and returns the mean handler
// time per route.
func probeGateway(e *env, lt *tracer, m metricSet) (handler [numRoutes]float64, err error) {
	h, err := startGateway(&env{seed: e.seed, scale: e.scale, clients: 1, tr: lt})
	if err != nil {
		return handler, err
	}
	defer h.close()
	var scratch bytes.Buffer
	var issued [numRoutes]int
	req := int32(0)
	root := func() spanRef { req++; return lt.root(req, layerHarness, "probe") }

	// Whole lifecycles, each with its share of steady requests in the middle,
	// so one session serves all six routes.
	lifecycles := e.scaled(5, 1)
	steady := e.scaled(600, 40) / lifecycles
	rng := rand.New(rand.NewSource(e.seed))
	for i := 0; i < lifecycles; i++ {
		sp := root()
		sess, err := h.createSession(&issued, &scratch, sp)
		lt.end(sp)
		if err != nil {
			return handler, err
		}
		calls := append(steadySchedule(rng, h.base, sess, steady),
			call{routeDelete, http.MethodDelete, h.base + "/v1/fleets/" + sess.id, nil})
		for _, c := range calls {
			issued[c.route]++
			sp := root()
			err := h.do(c, sp, &scratch)
			lt.end(sp)
			if err != nil {
				return handler, err
			}
		}
	}

	att := attribute(lt.recorded())
	var total int
	for r, name := range gatewayRoutes {
		total += issued[r]
		rt, hd := att.find(layerNet, name), att.find(layerGateway, name)
		if rt == nil || hd == nil {
			return handler, fmt.Errorf("no spans for route %s", name)
		}
		slices.Sort(rt.durs)
		m.us("gateway."+name+".p50_us", float64(metrics.NearestRank(rt.durs, 50)))
		m.us("gateway."+name+".p99_us", float64(metrics.NearestRank(rt.durs, 99)))
		handler[r] = hd.durNs / float64(len(hd.durs))
		m.us("gateway."+name+".handler_us", handler[r])
		if r == routeReport {
			m["gateway.net_share.report"] = 1 - ratio(hd.durNs, rt.durNs)
		}
	}
	m["gateway.requests"] = float64(total)
	return handler, nil
}

// unitCosts are the per-op times of the two bottom layers, which the levels
// above multiply by the number of remote page ops they issued.
type unitCosts struct {
	handleNs float64 // one 4 KiB one-sided op through a memctl handle
	verbNs   float64 // the rdma verb under it
}

// probeRDMAAndMemctl measures registration, the 4 KiB verbs, and the memctl
// control path on a miniature rack.
func probeRDMAAndMemctl(e *env, lt *tracer, m metricSet) (unitCosts, error) {
	var unit unitCosts
	fabric := rdma.NewFabric(rdma.DefaultCostModel())
	devA, err := fabric.AttachDevice("probe-a")
	if err != nil {
		return unit, err
	}
	devB, err := fabric.AttachDevice("probe-b")
	if err != nil {
		return unit, err
	}
	rw := rdma.AccessFlags{RemoteRead: true, RemoteWrite: true}

	// Registration. "fresh": the heap was just scavenged, so the regions are
	// zeroed onto pages the OS has to fault in again; "reused": the same spans
	// are taken while still resident, so only the zeroing remains.
	const regions, regionBytes = 4, 64 << 20
	var registered int64
	register := func() (float64, error) {
		mrs := make([]*rdma.MemoryRegion, 0, regions)
		t0 := time.Now()
		for i := 0; i < regions; i++ {
			mr, err := devB.RegisterMemory(regionBytes, rw)
			if err != nil {
				return 0, err
			}
			mrs = append(mrs, mr)
			registered += regionBytes
		}
		ns := since(t0)
		for _, mr := range mrs {
			devB.DeregisterMemory(mr)
		}
		return ns * float64(1<<30) / float64(regions*regionBytes), nil
	}
	debug.FreeOSMemory()
	fresh, err := register()
	if err != nil {
		return unit, err
	}
	runtime.GC()
	reused, err := register()
	if err != nil {
		return unit, err
	}
	m.ms("rdma.register_fresh_ms_per_gib", fresh)
	m.ms("rdma.register_reused_ms_per_gib", reused)
	lt.ladder(layerRDMA, "register_fresh_per_gib", fresh)
	lt.ladder(layerRDMA, "register_reused_per_gib", reused)

	// The 4 KiB verbs over a connected queue pair.
	mr, err := devB.RegisterMemory(1<<20, rw)
	if err != nil {
		return unit, err
	}
	registered += 1 << 20
	qa, qb := devA.CreateQueuePair(rdma.NewCompletionQueue()), devB.CreateQueuePair(rdma.NewCompletionQueue())
	if err := rdma.Connect(qa, qb); err != nil {
		return unit, err
	}
	page := make([]byte, memPage)
	verbs := e.scaled(20000, 200)
	var opErr error
	i := 0
	wr := per(verbs, func() {
		i++
		if _, err := qa.Write(uint64(i), page, mr.RKey(), (i%256)*memPage); err != nil {
			opErr = err
		}
	})
	rd := per(verbs, func() {
		i++
		if _, err := qa.Read(uint64(i), page, mr.RKey(), (i%256)*memPage, memPage); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return unit, opErr
	}
	m.ns("rdma.write_4k_ns", wr)
	m.ns("rdma.read_4k_ns", rd)
	m["rdma.bytes_registered"] = float64(registered)
	unit.verbNs = (wr + rd) / 2
	lt.ladder(layerRDMA, "write_4k", wr)
	lt.ladder(layerRDMA, "read_4k", rd)

	// memctl: delegate, grant, release and wake on the membench rack shape.
	const serverBytes = 256 << 20
	rack, err := newMemRack(3, 0, serverBytes)
	if err != nil {
		return unit, err
	}
	z1, z2 := rack.agents[1], rack.agents[2]
	t0 := time.Now()
	if _, err := z1.DelegateAndGoZombie(); err != nil {
		return unit, err
	}
	if _, err := z2.DelegateAndGoZombie(); err != nil {
		return unit, err
	}
	delegate := since(t0) * float64(1<<30) / float64(2*serverBytes)
	m.ms("memctl.delegate_ms_per_gib", delegate)
	lt.ladder(layerMemctl, "delegate_per_gib", delegate)
	for _, name := range []string{"server-01", "server-02"} {
		rack.devices[name].SetUp(false)
		rack.devices[name].SetServing(true)
	}
	rounds := e.scaled(50, 5)
	var granted int
	var grant, release float64
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		bufs, err := rack.user.RequestExt(2 * memctl.DefaultBufferSize)
		t1 := time.Now()
		if err != nil {
			return unit, err
		}
		granted += len(bufs)
		if err := rack.user.ReleaseBuffers(bufs); err != nil {
			return unit, err
		}
		grant += float64(t1.Sub(t0))
		release += since(t1)
	}
	m.us("memctl.request_ext_us", grant/float64(rounds))
	m.us("memctl.release_us", release/float64(rounds))
	m["memctl.buffers_granted"] = float64(granted)

	bufs, err := rack.user.RequestExt(memctl.DefaultBufferSize)
	if err != nil {
		return unit, err
	}
	i = 0
	unit.handleNs = per(verbs, func() {
		i++
		off := int64(i%256) * memPage
		if i%2 == 0 {
			_, opErr = bufs[0].WriteRemote(off, page)
		} else {
			_, opErr = bufs[0].ReadRemote(off, page)
		}
	})
	if opErr != nil {
		return unit, opErr
	}
	lt.ladder(layerMemctl, "handle_4k", unit.handleNs)
	if err := rack.user.ReleaseBuffers(bufs); err != nil {
		return unit, err
	}
	rack.devices["server-01"].SetUp(true)
	t0 = time.Now()
	if _, err := z1.WakeAndReclaim(-1); err != nil {
		return unit, err
	}
	m.ms("memctl.wake_reclaim_ms", since(t0))
	return unit, nil
}

// probeFleetAndCore replays the session's ops on a fleet.Fleet and then on a
// bare core.Rack of the same shape, and fills the ladder.
func probeFleetAndCore(e *env, lt *tracer, m metricSet, lad *ladder, unit unitCosts) error {
	rackCfg := core.Config{Servers: 3, Board: probeBoard(2 << 30)}
	const vmBytes = 3 << 29 // 1.5 GiB, as the sessions place
	reps := e.scaled(3, 1)

	// Construction, level by level. Every build starts from a collected heap
	// so both levels zero the same already-resident spans, and the median over
	// the repetitions is kept.
	var f *fleet.Fleet
	var fleetNew, fleetPush, fleetPlace, fleetDestroy, coreNew, corePush, coreCreate []float64
	for r := 0; r < reps; r++ {
		runtime.GC()
		t0 := time.Now()
		nf, err := fleet.New(fleet.Config{Racks: 1, Rack: rackCfg, Workers: 1})
		if err != nil {
			return err
		}
		t1 := time.Now()
		names := nf.Rack(0).Servers()
		if err := nf.PushToZombie(0, names[len(names)-1]); err != nil {
			return err
		}
		t2 := time.Now()
		placements, err := nf.PlaceVMs(probeVMs(fmt.Sprintf("f%d", r), 2, vmBytes), core.CreateVMOptions{})
		if err != nil {
			return err
		}
		t3 := time.Now()
		for _, p := range placements {
			if p.Err != "" || p.RemoteBytes <= 0 {
				return fmt.Errorf("fleet probe placement %s: err %q, remote %d", p.VM, p.Err, p.RemoteBytes)
			}
		}
		fleetNew = append(fleetNew, float64(t1.Sub(t0)))
		fleetPush = append(fleetPush, float64(t2.Sub(t1)))
		fleetPlace = append(fleetPlace, float64(t3.Sub(t2)))
		if r < reps-1 {
			t4 := time.Now()
			for _, p := range placements {
				if err := nf.DestroyVM(p.VM); err != nil {
					return err
				}
			}
			fleetDestroy = append(fleetDestroy, since(t4)/2)
		} else {
			f = nf
		}

		runtime.GC()
		cfg := rackCfg
		cfg.NamePrefix = "rack-00/"
		t0 = time.Now()
		nr, err := core.NewRack(cfg)
		if err != nil {
			return err
		}
		t1 = time.Now()
		names = nr.Servers()
		if err := nr.PushToZombie(names[len(names)-1]); err != nil {
			return err
		}
		t2 = time.Now()
		for _, spec := range probeVMs(fmt.Sprintf("c%d", r), 2, vmBytes) {
			if _, err := nr.CreateVM(spec, core.CreateVMOptions{}); err != nil {
				return err
			}
		}
		coreNew = append(coreNew, float64(t1.Sub(t0)))
		corePush = append(corePush, float64(t2.Sub(t1)))
		coreCreate = append(coreCreate, since(t2))
	}
	fNew, fPush, fPlace := medianF(fleetNew), medianF(fleetPush), medianF(fleetPlace)
	cNew, cPush, cCreate := medianF(coreNew), medianF(corePush), medianF(coreCreate)
	m.ms("fleet.new_ms", fNew)
	m.ms("fleet.push_zombie_ms", fPush)
	m.us("fleet.place_us", fPlace)
	m.ms("core.new_rack_ms", cNew)
	m.ms("core.push_zombie_ms", cPush)
	m.us("core.create_vm_us", cCreate/2)
	lt.ladder(layerFleet, "create", fNew+fPush)
	lt.ladder(layerFleet, "place", fPlace)
	lt.ladder(layerCore, "create", cNew+cPush)
	lt.ladder(layerCore, "place", cCreate)

	// The steady requests on the last fleet: level 1 is fleet.RunWorkloads.
	vms := []string{fmt.Sprintf("f%d-vm-0", reps-1), fmt.Sprintf("f%d-vm-1", reps-1)}
	rng := rand.New(rand.NewSource(e.seed))
	ops := e.scaled(120, 10)
	pagingReqs := make([]fleet.WorkloadRequest, ops)
	dataReqs := make([]fleet.WorkloadRequest, ops/3+1)
	for i := range pagingReqs {
		pagingReqs[i] = fleet.WorkloadRequest{VM: vms[rng.Intn(2)], Kind: workload.MicroBench, Iterations: 1, Seed: rng.Int63n(1000) + 1}
	}
	for i := range dataReqs {
		dataReqs[i] = fleet.WorkloadRequest{VM: vms[rng.Intn(2)], Kind: workload.DataCaching, Iterations: 1, Seed: rng.Int63n(1000) + 1, DataBytes: steadyDataMiB << 20}
	}
	var runErr string
	runAll := func(reqs []fleet.WorkloadRequest) float64 {
		i := 0
		return per(len(reqs), func() {
			if res := f.RunWorkloads(reqs[i : i+1]); res[0].Err != "" {
				runErr = res[0].Err
			}
			i++
		})
	}
	runAll(dataReqs) // builds both planes and maps the span's pages
	fleetPaging := runAll(pagingReqs)
	fleetData := runAll(dataReqs)
	if runErr != "" {
		return fmt.Errorf("fleet probe workload: %s", runErr)
	}
	fleetReport := per(ops, func() {
		_ = f.FreeRemoteMemory()
		_ = f.TotalEnergyJoules()
		_ = f.BorrowLedger()
	})
	m.us("fleet.run_paging_us", fleetPaging)
	m.us("fleet.run_data_us", fleetData)
	m.us("fleet.report_us", fleetReport)
	lt.ladder(layerFleet, "wl_paging", fleetPaging)
	lt.ladder(layerFleet, "wl_data", fleetData)
	lt.ladder(layerFleet, "report", fleetReport)

	// Level 2: the rack under the fleet, same requests.
	rack := f.Rack(0)
	var coreErr error
	i := 0
	corePaging := per(len(pagingReqs), func() {
		r := pagingReqs[i]
		if _, err := rack.RunWorkload(r.VM, r.Kind, r.Iterations, r.Seed); err != nil {
			coreErr = err
		}
		i++
	})
	coreReport := per(ops, func() {
		_ = rack.FreeRemoteMemory()
		_ = rack.TotalEnergyJoules()
	})
	coreMemplaneOf := per(ops, func() {
		if _, err := rack.MemplaneOf(vms[0]); err != nil {
			coreErr = err
		}
	})
	if coreErr != nil {
		return coreErr
	}
	m.us("core.run_workload_us", corePaging)
	m.us("core.memplane_of_us", coreMemplaneOf)
	lt.ladder(layerCore, "wl_paging", corePaging)
	lt.ladder(layerCore, "report", coreReport)

	// Level 3: what the rack's replay does per request. Paging: the stream
	// and the RAM Ext accesses; data: the plane ops of the same stream.
	guest, err := rack.VM(vms[0])
	if err != nil {
		return err
	}
	before := guest.Paging.Stats()
	i = 0
	hypPaging := per(len(pagingReqs), func() {
		r := pagingReqs[i]
		i++
		stream, err := workload.NewStream(workload.ProfileOf(r.Kind), guest.Paging.Pages(), r.Iterations, r.Seed)
		if err != nil {
			coreErr = err
			return
		}
		for {
			a, ok := stream.Next()
			if !ok {
				break
			}
			if _, err := guest.Paging.Access(a.Page, a.Write); err != nil {
				coreErr = err
			}
		}
	})
	after := guest.Paging.Stats()
	// A demotion writes a page to the remote store and a promotion reads one
	// back: each is one op through a memctl handle.
	remotePerPaging := float64(after.Demotions+after.Promotions-before.Demotions-before.Promotions) / float64(len(pagingReqs))
	lt.ladder(layerHypervisor, "wl_paging", hypPaging)

	plane, err := rack.MemplaneOf(vms[0])
	if err != nil {
		return err
	}
	pbefore := plane.Stats()
	buf := make([]byte, memPage)
	i = 0
	planeData := per(len(dataReqs), func() {
		r := dataReqs[i]
		i++
		stream, err := workload.NewStream(workload.ProfileOf(r.Kind), int(r.DataBytes/memPage), r.Iterations, r.Seed)
		if err != nil {
			coreErr = err
			return
		}
		for {
			a, ok := stream.Next()
			if !ok {
				break
			}
			if a.Write {
				_, _, err = plane.Write(int64(a.Page)*memPage, buf)
			} else {
				_, _, err = plane.Read(int64(a.Page)*memPage, buf)
			}
			if err != nil {
				coreErr = err
			}
		}
	})
	if coreErr != nil {
		return coreErr
	}
	remotePerData := float64(plane.Stats().RemoteOps-pbefore.RemoteOps) / float64(len(dataReqs))
	lt.ladder(layerMemplane, "wl_data", planeData)

	t0 := time.Now()
	if err := f.DestroyVM(vms[0]); err != nil {
		return err
	}
	m.us("fleet.destroy_vm_us", medianF(append(fleetDestroy, since(t0))))
	t0 = time.Now()
	if err := rack.DestroyVM(vms[1]); err != nil {
		return err
	}
	m.us("core.destroy_vm_us", since(t0))

	// The ladder: level minus the level below, per request of each route.
	lad.set(routeReport, layerFleet, fleetReport-coreReport)
	lad.set(routeReport, layerCore, coreReport)

	memctlPaging, rdmaPaging := remotePerPaging*(unit.handleNs-unit.verbNs), remotePerPaging*unit.verbNs
	lad.set(routePaging, layerFleet, fleetPaging-corePaging)
	lad.set(routePaging, layerCore, corePaging-hypPaging)
	lad.set(routePaging, layerHypervisor, hypPaging-memctlPaging-rdmaPaging)
	lad.set(routePaging, layerMemctl, memctlPaging)
	lad.set(routePaging, layerRDMA, rdmaPaging)

	memctlData, rdmaData := remotePerData*(unit.handleNs-unit.verbNs), remotePerData*unit.verbNs
	lad.set(routeData, layerFleet, fleetData-planeData-coreMemplaneOf)
	lad.set(routeData, layerCore, coreMemplaneOf)
	lad.set(routeData, layerMemplane, planeData-memctlData-rdmaData)
	lad.set(routeData, layerMemctl, memctlData)
	lad.set(routeData, layerRDMA, rdmaData)

	// The session's zombie lends 1 GiB: one GiB delegated, one GiB registered.
	delegateNs, registerNs := m["memctl.delegate_ms_per_gib"]*1e6, m["rdma.register_reused_ms_per_gib"]*1e6
	lad.set(routeCreate, layerFleet, fNew+fPush-cNew-cPush)
	lad.set(routeCreate, layerCore, cNew+cPush-delegateNs)
	lad.set(routeCreate, layerMemctl, delegateNs-registerNs)
	lad.set(routeCreate, layerRDMA, registerNs)

	grantNs := 2 * m["memctl.request_ext_us"] * 1e3 // one grant per placed VM
	lad.set(routePlace, layerFleet, fPlace-cCreate)
	lad.set(routePlace, layerCore, cCreate-grantNs)
	lad.set(routePlace, layerMemctl, grantNs)
	// Delete only unlinks the session; what it frees is the collector's work.
	return nil
}

// probeBatchSpeedup times one 8-request batch over 4 racks at Workers=nproc
// against Workers=1. The racks are small (256 MiB boards lending 128 MiB) so
// the probe does not cost a gigabyte per rack.
func probeBatchSpeedup(e *env, m metricSet) error {
	var times [2]float64
	for k, workers := range []int{1, e.clients} {
		f, err := fleet.New(fleet.Config{Racks: 4, Workers: workers, Rack: core.Config{
			Servers: 3, Board: probeBoard(256 << 20), BufferSize: 16 << 20, HostReservedBytes: 128 << 20,
		}})
		if err != nil {
			return err
		}
		for ri := 0; ri < f.Racks(); ri++ {
			names := f.Rack(ri).Servers()
			if err := f.PushToZombie(ri, names[len(names)-1]); err != nil {
				return err
			}
		}
		placements, err := f.PlaceVMs(probeVMs("b", 8, 160<<20), core.CreateVMOptions{})
		if err != nil {
			return err
		}
		var reqs []fleet.WorkloadRequest
		for i, p := range placements {
			if p.Err != "" {
				return fmt.Errorf("placement %s: %s", p.VM, p.Err)
			}
			reqs = append(reqs, fleet.WorkloadRequest{VM: p.VM, Kind: workload.MicroBench, Iterations: 2, Seed: int64(i + 1)})
		}
		var runErr string
		times[k] = per(e.scaled(6, 2), func() {
			for _, res := range f.RunWorkloads(reqs) {
				if res.Err != "" {
					runErr = res.Err
				}
			}
		})
		if runErr != "" {
			return fmt.Errorf("batch: %s", runErr)
		}
	}
	m["fleet.batch_speedup"] = ratio(times[0], times[1])
	return nil
}

// probeHypervisor replays a paging stream on a RAM Ext context whose remote
// store only charges latency, so the number is the hypervisor's and the
// page policy's alone.
func probeHypervisor(e *env, m metricSet) error {
	const pages = workload.DefaultSimPages
	paging, err := hypervisor.NewRAMExt(hypervisor.Config{
		Pages: pages, LocalFrames: pages * 2 / 3,
		Policy: pagepolicy.NewMixed(pagepolicy.DefaultCost(), pagepolicy.DefaultMixedWindow),
		Remote: hypervisor.NewInfinibandStore(pages),
	})
	if err != nil {
		return err
	}
	// The same streams twice: drained, then replayed into the paging context.
	replay := func(access func(workload.Access) error) (ns float64, accesses int, err error) {
		t0 := time.Now()
		for it, iters := 0, e.scaled(8, 1); it < iters; it++ {
			stream, err := workload.NewStream(workload.ProfileOf(workload.MicroBench), pages, 1, e.seed+int64(it))
			if err != nil {
				return 0, 0, err
			}
			for {
				a, ok := stream.Next()
				if !ok {
					break
				}
				accesses++
				if err := access(a); err != nil {
					return 0, 0, err
				}
			}
		}
		return since(t0), accesses, nil
	}
	next, accesses, err := replay(func(workload.Access) error { return nil })
	if err != nil {
		return err
	}
	both, _, err := replay(func(a workload.Access) error {
		_, err := paging.Access(a.Page, a.Write)
		return err
	})
	if err != nil {
		return err
	}
	st := paging.Stats()
	m.ns("workload.stream_next_ns", ratio(next, float64(accesses)))
	m.ns("hypervisor.access_ns", ratio(max(0, both-next), float64(accesses)))
	m["hypervisor.fault_ratio"] = ratio(float64(st.MajorFaults), float64(st.Accesses))
	return nil
}

// probeMemplane measures one page op on each path and transport, plus the
// deterministic statistics of a fixed-length mem_transfer schedule.
func probeMemplane(e *env, m metricSet, unit unitCosts) error {
	const span = 16 << 20
	ops := e.scaled(20000, 200)
	page := make([]byte, memPage)
	pageOps := func(p *memplane.Plane, ops int) (float64, error) {
		defer p.Close()
		for off := int64(0); off < span; off += memPage { // map every page first
			if _, _, err := p.Write(off, page); err != nil {
				return 0, err
			}
		}
		var opErr error
		i := 0
		ns := per(ops, func() {
			i++
			addr := int64(i*7919%(span/memPage)) * memPage
			if i%5 < 3 {
				_, _, opErr = p.Write(addr, page)
			} else {
				_, _, opErr = p.Read(addr, page)
			}
		})
		return ns, opErr
	}

	rack, err := newMemRack(3, 2, 64<<20)
	if err != nil {
		return err
	}
	t0 := time.Now()
	local, err := memplane.New(memplane.Config{VM: "local", LocalBytes: span, AddressBytes: span, Agent: rack.user})
	if err != nil {
		return err
	}
	m.ms("memplane.new_ms", since(t0))
	localNs, err := pageOps(local, ops)
	if err != nil {
		return err
	}
	m.ns("memplane.local_op_ns", localNs)

	inproc, err := memplane.New(memplane.Config{VM: "inproc", AddressBytes: span, Agent: rack.user})
	if err != nil {
		return err
	}
	inprocNs, err := pageOps(inproc, ops)
	if err != nil {
		return err
	}
	m.ns("memplane.remote_op_ns.inproc", inprocNs)
	m.ns("memplane.self_ns_per_op", max(0, inprocNs-unit.handleNs))

	ledger, err := memplane.New(memplane.Config{
		VM: "ledger", AddressBytes: span, Agent: rack.user, Transport: memplane.LedgerTransport{Model: rack.fabric.Model()},
	})
	if err != nil {
		return err
	}
	ledgerNs, err := pageOps(ledger, ops)
	if err != nil {
		return err
	}
	m.ns("memplane.remote_op_ns.ledger", ledgerNs)

	// TCP addresses buffers by ID on the server, so the plane is seeded with
	// every buffer up front, as membench does.
	bufs, err := rack.user.RequestExt(span)
	if err != nil {
		return err
	}
	srv, err := memplane.NewTCPServer()
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.Register(bufs...)
	tcp, err := memplane.DialTCP(srv.Addr())
	if err != nil {
		return err
	}
	defer tcp.Close()
	tcpPlane, err := memplane.New(memplane.Config{VM: "tcp", AddressBytes: span, Buffers: bufs, Transport: tcp})
	if err != nil {
		return err
	}
	// A TCP op is a loopback round trip, tens of times slower: fewer of them.
	tcpNs, err := pageOps(tcpPlane, max(ops/10, 100))
	if err != nil {
		return err
	}
	m.ns("memplane.remote_op_ns.tcp", tcpNs)

	// The mem_transfer schedule at a fixed length: its path mix and charge
	// are functions of the seed alone.
	inst, err := setupMemTransfer(&env{seed: e.seed, scale: e.scale, clients: 1})
	if err != nil {
		return err
	}
	mt := inst.(*memTransfer)
	defer mt.close()
	before := mt.plane.Stats()
	for i := mt.warm; i < mt.warm+ops; i++ {
		if _, err := mt.op(0, i, noSpan); err != nil {
			return err
		}
	}
	st := mt.plane.Stats()
	remote, localOps := float64(st.RemoteOps-before.RemoteOps), float64(st.LocalOps-before.LocalOps)
	m["memplane.remote_ratio"] = ratio(remote, remote+localOps)
	m["memplane.charged_ns_per_op"] = float64(st.ChargedNs-before.ChargedNs) / float64(ops)
	return nil
}

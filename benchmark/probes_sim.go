package main

import (
	"bytes"
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/autopilot"
	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/dcsim"
	"repro/internal/energy"
	"repro/internal/ident"
	"repro/internal/memplane"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// mallocs returns the process's cumulative allocation count and bytes.
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// simShares is what the simulator probes learned that the share computation
// of scenario_matrix needs: no seam separates the oracle's epoch loop from
// the online loop inside RunChaos, so its part is measured beside it.
type simShares struct {
	// oracleShareOfAutopilot is the part of a matrix cell's autopilot-booked
	// time (RunChaos minus the planner spans) that dcsim.Oracle spends.
	oracleShareOfAutopilot float64
}

// runSimProbes measures trace, consolidation, autopilot, dcsim, chaos,
// scenario, ident and obs with fixed op counts, so the counts among them
// repeat exactly for a seed.
func runSimProbes(e *env, lt *tracer, m metricSet) (simShares, error) {
	var sh simShares
	hp := energy.Profiles()[0]
	spec := consolidation.DefaultServerSpec()

	// trace: generate, encode, import, stream.
	tasks := e.scaled(20000, 300)
	t0 := time.Now()
	tr, err := trace.GenerateFamily("serverless", trace.FamilyParams{Machines: 200, HorizonSec: dayHorizonSec, Tasks: tasks, Seed: e.seed})
	if err != nil {
		return sh, err
	}
	m.ms("trace.generate_ms", since(t0))
	var gz bytes.Buffer
	t0 = time.Now()
	if err := tr.EncodeCSV(&gz, true); err != nil {
		return sh, err
	}
	m["trace.encode_tasks_per_s"] = ratio(float64(tasks), since(t0)/1e9)
	_, b0 := mallocs()
	t0 = time.Now()
	imp, err := trace.Import(bytes.NewReader(gz.Bytes()), trace.ImportOptions{Name: tr.Name, Machines: tr.Machines, HorizonSec: tr.HorizonSec})
	if err != nil {
		return sh, err
	}
	importNs := since(t0)
	_, b1 := mallocs()
	m["trace.import_tasks_per_s"] = ratio(float64(len(imp.Tasks)), importNs/1e9)
	m["trace.import_alloc_b_per_task"] = ratio(float64(b1-b0), float64(len(imp.Tasks)))
	lt.ladder(layerTrace, "import", importNs)
	t0 = time.Now()
	events := 0
	for s := trace.NewStream(tr); ; events++ {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	m["trace.stream_events_per_s"] = ratio(float64(events), since(t0)/1e9)

	// consolidation: one Plan call per planner on a fixed population.
	vms := make([]consolidation.VMDemand, 0, 1000)
	for _, t := range tr.Tasks[:min(1000, len(tr.Tasks))] {
		vms = append(vms, consolidation.VMDemand{
			ID: t.VMID(), BookedCPU: t.BookedCPU, BookedMemGiB: t.BookedMemGiB, UsedCPU: t.UsedCPU, UsedMemGiB: t.UsedMemGiB,
		})
	}
	slices.SortFunc(vms, func(a, b consolidation.VMDemand) int { return cmp.Compare(a.ID, b.ID) })
	for _, pol := range consolidation.Contenders() {
		ns := per(e.scaled(2000, 20), func() { _ = pol.Plan(vms, spec, 400) })
		m.us("consolidation.plan_us."+pol.Name(), ns)
		lt.ladder(layerConsolidation, "plan."+pol.Name(), ns)
	}

	// autopilot: the three policies on the imported trace, once plain for time
	// and allocations, once wrapped for the self share and the exact counts.
	var runSum float64
	var planCalls, ticks int
	for _, pol := range onlinePolicies {
		cfg := autopilot.Config{Trace: imp, Machine: hp, ServerSpec: spec, TickSec: 300, Policy: pol.mk(consolidation.NewZombieStack())}
		a0, _ := mallocs()
		t0 := time.Now()
		if _, err := autopilot.Run(cfg); err != nil {
			return sh, err
		}
		ns := since(t0)
		a1, _ := mallocs()
		runSum += ns
		m.ms("autopilot.run_ms."+pol.name, ns)
		lt.ladder(layerAutopilot, "run."+pol.name, ns)

		pt := newTracer(1 << 14)
		run := pt.root(0, layerAutopilot, "autopilot.run")
		cur := run
		cfg.Policy = newTracedPolicy(pt, &cur, pol.mk, consolidation.NewZombieStack())
		cfg.OnTick = func(autopilot.TickEvent) { ticks++ }
		if _, err := autopilot.Run(cfg); err != nil {
			return sh, err
		}
		pt.end(run)
		att := attribute(pt.recorded())
		if agg := att.find(layerConsolidation, "consolidation.plan"); agg != nil {
			planCalls += len(agg.durs)
		}
		if pol.name == "ewma" {
			m["autopilot.allocs_per_task"] = ratio(float64(a1-a0), float64(len(imp.Tasks)))
			m["autopilot.self_share"] = ratio(att.layerNs[layerAutopilot], att.rootNs)
		}
	}
	m["autopilot.tasks_per_s"] = ratio(float64(len(onlinePolicies)*len(imp.Tasks)), runSum/1e9)
	m["autopilot.ticks"] = float64(ticks)
	m["consolidation.plan_calls"] = float64(planCalls)

	// dcsim: sequential against sharded, balanced against gang-skewed.
	traces, err := offlineTraces(e.scaled(800, 20), e.scaled(12000, 200), e.seed)
	if err != nil {
		return sh, err
	}
	var epochs int
	var seqSum float64
	var seqAllocs uint64
	for k, name := range []string{"google", "mlbatch"} {
		cfg := dcsim.Config{Trace: traces[k], Policy: consolidation.NewZombieStack(), Machine: hp, ServerSpec: spec, TransitionCosts: true}
		a0, _ := mallocs()
		t0 := time.Now()
		res, err := dcsim.Run(cfg)
		if err != nil {
			return sh, err
		}
		seq := since(t0)
		a1, _ := mallocs()
		cfg.Workers = e.clients
		t0 = time.Now()
		if _, err := dcsim.Run(cfg); err != nil {
			return sh, err
		}
		par := since(t0)
		m.ms("dcsim.run_seq_ms."+name, seq)
		m.ms("dcsim.run_par_ms."+name, par)
		m["dcsim.par_speedup."+name] = ratio(seq, par)
		lt.ladder(layerDCSim, "run_seq."+name, seq)
		lt.ladder(layerDCSim, "run_par."+name, par)
		epochs += res.Epochs
		seqSum += seq
		seqAllocs += a1 - a0
	}
	m["dcsim.epochs"] = float64(epochs)
	m["dcsim.epochs_per_s"] = ratio(float64(epochs), seqSum/1e9)
	m["dcsim.allocs_per_epoch"] = ratio(float64(seqAllocs), float64(epochs))

	// chaos, and one matrix cell taken apart: RunChaos is a fault-free and a
	// faulted Regret, and each Regret is an online run plus one oracle run.
	probePacks, err := scenario.FamilyPacks(trace.FamilyParams{
		Machines: e.scaled(100, 20), HorizonSec: dayHorizonSec, Tasks: e.scaled(3000, 200), Seed: e.seed,
	})
	if err != nil {
		return sh, err
	}
	pack := probePacks[0]
	var plan *chaos.Plan
	m.us("chaos.scenario_build_us", per(e.scaled(200, 10), func() {
		plan, err = chaos.Scenario("light", pack.Trace.HorizonSec, pack.Trace.Machines, e.seed)
	}))
	if err != nil {
		return sh, err
	}
	cell := func(policy autopilot.Policy) autopilot.Config {
		return autopilot.Config{Trace: pack.Trace, Policy: policy, Machine: hp, ServerSpec: spec, TickSec: 300}
	}
	t0 = time.Now()
	if _, err := autopilot.Regret(cell(autopilot.NewReactive(consolidation.NewNeat()))); err != nil {
		return sh, err
	}
	regret := since(t0)
	pt := newTracer(1 << 14)
	run := pt.root(0, layerAutopilot, "autopilot.runchaos")
	cur := run
	if _, err := autopilot.RunChaos(cell(newTracedPolicy(pt, &cur, onlinePolicies[0].mk, consolidation.NewNeat())), plan); err != nil {
		return sh, err
	}
	pt.end(run)
	cellAtt := attribute(pt.recorded())
	m["chaos.run_overhead_ratio"] = ratio(cellAtt.rootNs, regret)

	var oracleSelf, oracleFaultFree float64
	for _, faulted := range []bool{false, true} {
		ot := newTracer(1 << 12)
		oracle := ot.root(0, layerDCSim, "dcsim.oracle")
		cfg := dcsim.Config{
			Trace: pack.Trace, Policy: tracedPlanner{Policy: consolidation.NewNeat(), tr: ot, cur: &oracle},
			Machine: hp, ServerSpec: spec, ConsolidationPeriodSec: 300,
		}
		if faulted {
			cfg.Trace, cfg.Chaos = plan.PerturbTrace(pack.Trace), plan
		}
		if _, err := dcsim.Oracle(cfg); err != nil {
			return sh, err
		}
		ot.end(oracle)
		att := attribute(ot.recorded())
		oracleSelf += att.layerNs[layerDCSim]
		if !faulted {
			oracleFaultFree = att.rootNs
		}
		lt.ladder(layerDCSim, "oracle", att.rootNs)
	}
	m["dcsim.oracle_share_of_regret"] = ratio(oracleFaultFree, regret)
	sh.oracleShareOfAutopilot = min(1, ratio(oracleSelf, cellAtt.layerNs[layerAutopilot]))

	// scenario: the grid on the pool against one worker, and per-cell times
	// from the benchmark's own loop.
	cfg := scenario.MatrixConfig{Packs: probePacks, Policies: matrixPolicies, ChaosScenario: "light", ChaosSeed: e.seed, Workers: 1}
	t0 = time.Now()
	if _, err := scenario.Run(cfg); err != nil {
		return sh, err
	}
	one := since(t0)
	cfg.Workers = e.clients
	t0 = time.Now()
	if _, err := scenario.Run(cfg); err != nil {
		return sh, err
	}
	m["scenario.pool_speedup"] = ratio(one, since(t0))
	cells, busy, err := timeCells(probePacks, e.seed, e.clients)
	if err != nil {
		return sh, err
	}
	slices.Sort(cells)
	m.ms("scenario.cell_p50_ms", float64(metrics.NearestRank(cells, 50)))
	m.ms("scenario.cell_max_ms", float64(cells[len(cells)-1]))
	var busySum, busyMax float64
	for _, b := range busy {
		busySum += float64(b)
		busyMax = max(busyMax, float64(b))
	}
	m["scenario.pool_imbalance"] = ratio(busyMax, busySum/float64(len(busy))) - 1

	probeIdent(e, m)
	return sh, probeObs(e, m, imp, hp)
}

// timeCells runs the matrix cells on a pool shaped like scenario.Run's and
// returns every cell's duration and every worker's busy time.
func timeCells(packs []scenario.Pack, seed int64, workers int) (cells []int64, busy []int64, err error) {
	n := len(packs) * len(matrixPolicies)
	cells = make([]int64, n)
	busy = make([]int64, min(workers, n))
	errs := make([]error, n)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := range busy {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range work {
				pack := packs[i/len(matrixPolicies)]
				t0 := time.Now()
				plan, err := chaos.Scenario("light", pack.Trace.HorizonSec, pack.Trace.Machines, seed)
				if err == nil {
					_, err = autopilot.RunChaos(autopilot.Config{
						Trace: pack.Trace, Policy: onlinePolicies[i%len(matrixPolicies)].mk(consolidation.NewNeat()),
						Machine: energy.Profiles()[0], ServerSpec: consolidation.DefaultServerSpec(), TickSec: 300,
					}, plan)
				}
				errs[i] = err
				cells[i] = int64(time.Since(t0))
				busy[w] += cells[i]
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return cells, busy, nil
}

// probeIdent times interning and lookup on a registry the size of a fleet's.
func probeIdent(e *env, m metricSet) {
	names := make([]string, 4096)
	for i := range names {
		names[i] = fmt.Sprintf("rack-%02d/server-%04d", i%64, i)
	}
	reg := ident.NewRegistry()
	i := 0
	m.ns("ident.intern_ns", per(len(names), func() { reg.Intern(names[i]); i++ }))
	i = 0
	m.ns("ident.lookup_ns", per(e.scaled(200000, 1000), func() { reg.Lookup(names[i%len(names)]); i++ }))
}

// probeObs prices the observability layer: one emission with the bundle off
// and on, and the two end-to-end ratios ROADMAP item 5 budgets.
func probeObs(e *env, m metricSet, tr *trace.Trace, machine *energy.MachineProfile) error {
	n := e.scaled(200000, 1000)
	var off *obs.Trace
	m.ns("obs.disabled_emit_ns", per(n, func() { off.Emit("bench", "op", obs.F("i", 1)) }))
	on := obs.NewTrace(4096, obs.StepClock())
	m.ns("obs.enabled_emit_ns", per(n, func() { on.Emit("bench", "op", obs.F("i", 1)) }))

	runOnline := func(o *obs.Obs) (float64, error) {
		t0 := time.Now()
		_, err := autopilot.Run(autopilot.Config{
			Trace: tr, Policy: autopilot.NewReactive(consolidation.NewZombieStack()), Machine: machine,
			ServerSpec: consolidation.DefaultServerSpec(), TickSec: 300, Obs: o,
		})
		return since(t0), err
	}
	plain, err := runOnline(nil)
	if err != nil {
		return err
	}
	watched, err := runOnline(obs.New(obs.Options{TraceCapacity: 4096}))
	if err != nil {
		return err
	}
	m["obs.overhead_ratio.online_replay"] = ratio(watched, plain)

	runPlane := func(o *obs.Obs) (float64, error) {
		rack, err := newMemRack(3, 2, 64<<20)
		if err != nil {
			return 0, err
		}
		p, err := memplane.New(memplane.Config{VM: "obs", LocalBytes: 1 << 20, AddressBytes: 8 << 20, Agent: rack.user, Obs: o})
		if err != nil {
			return 0, err
		}
		defer p.Close()
		page := make([]byte, memPage)
		var opErr error
		i := 0
		ns := per(e.scaled(20000, 200), func() {
			i++
			if _, _, err := p.Write(int64(i*7919%2048)*memPage, page); err != nil {
				opErr = err
			}
		})
		return ns, opErr
	}
	plainOp, err := runPlane(nil)
	if err != nil {
		return err
	}
	watchedOp, err := runPlane(obs.New(obs.Options{TraceCapacity: 4096}))
	if err != nil {
		return err
	}
	m["obs.overhead_ratio.mem_transfer"] = ratio(watchedOp, plainOp)
	return nil
}

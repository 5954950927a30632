package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/autopilot"
	"repro/internal/chaos"
	"repro/internal/consolidation"
	"repro/internal/dcsim"
	"repro/internal/energy"
	"repro/internal/scenario"
	"repro/internal/trace"
)

const dayHorizonSec = 24 * 3600

// digest hashes a rendering of simulated results. Host time never enters it,
// so two commits that do not change the model must print the same digest.
func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v\n", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// passDigests collects the digest of every pass and checks they all agree
// with each other and with the reference computed after the window.
type passDigests struct {
	mu   sync.Mutex
	seen []string
}

func (p *passDigests) add(d string) {
	p.mu.Lock()
	p.seen = append(p.seen, d)
	p.mu.Unlock()
}

// check returns how many passes disagreed with the reference.
func (p *passDigests) check(reference string) (failed int, notes map[string]any) {
	notes = map[string]any{"sim_digest": reference, "passes": len(p.seen)}
	for i, d := range p.seen {
		if d != reference {
			failed++
			notes[fmt.Sprintf("pass_%d_digest", i)] = d
		}
	}
	return failed, notes
}

// tracedPlanner wraps a consolidation.Policy so every Plan call becomes a
// consolidation.plan span under whatever span the owner has made current. It
// is safe for the concurrent Plan calls of a sharded dcsim run: the current
// span is only read.
type tracedPlanner struct {
	consolidation.Policy
	tr  *tracer
	cur *spanRef
}

func (p tracedPlanner) Plan(vms []consolidation.VMDemand, spec consolidation.ServerSpec, total int) consolidation.FleetPlan {
	sp := p.tr.child(*p.cur, layerConsolidation, "consolidation.plan")
	plan := p.Policy.Plan(vms, spec, total)
	p.tr.end(sp)
	return plan
}

// tracedPolicy wraps an autopilot.Policy: Decide becomes an autopilot.decide
// span, and while it runs the planner's spans nest under it. The online loop
// is single-threaded, so swapping the current span needs no lock. Clone keeps
// RunChaos's per-run fresh instances wrapped.
type tracedPolicy struct {
	inner   autopilot.Policy
	planner tracedPlanner
}

func newTracedPolicy(tr *tracer, cur *spanRef, mk func(consolidation.Policy) autopilot.Policy, base consolidation.Policy) autopilot.Policy {
	planner := tracedPlanner{Policy: base, tr: tr, cur: cur}
	return &tracedPolicy{inner: mk(planner), planner: planner}
}

func (p *tracedPolicy) Name() string                  { return p.inner.Name() }
func (p *tracedPolicy) Planner() consolidation.Policy { return p.planner }

func (p *tracedPolicy) Decide(obs autopilot.Observation) consolidation.FleetPlan {
	outer := *p.planner.cur
	sp := p.planner.tr.child(outer, layerAutopilot, "autopilot.decide")
	*p.planner.cur = sp
	plan := p.inner.Decide(obs)
	*p.planner.cur = outer
	p.planner.tr.end(sp)
	return plan
}

func (p *tracedPolicy) Clone() autopilot.Policy {
	inner := p.inner
	if c, ok := inner.(interface{ Clone() autopilot.Policy }); ok {
		inner = c.Clone()
	}
	return &tracedPolicy{inner: inner, planner: p.planner}
}

// onlinePolicies are the three online policies every online workload runs.
var onlinePolicies = []struct {
	name string
	mk   func(consolidation.Policy) autopilot.Policy
}{
	{"reactive", func(b consolidation.Policy) autopilot.Policy { return autopilot.NewReactive(b) }},
	{"hysteresis", func(b consolidation.Policy) autopilot.Policy { return autopilot.NewHysteresis(b) }},
	{"ewma", func(b consolidation.Policy) autopilot.Policy { return autopilot.NewPredictiveEWMA(b) }},
}

// onlineReplay: import a gzip CSV trace and replay it under three policies.
type onlineReplay struct {
	tr      *tracer
	orig    *trace.Trace
	gz      []byte
	machine *energy.MachineProfile
	digests passDigests
}

func setupOnlineReplay(e *env) (instance, error) {
	tasks := e.scaled(100000, 500)
	tr, err := trace.GenerateFamily("serverless", trace.FamilyParams{
		Machines: 200, HorizonSec: dayHorizonSec, Tasks: tasks, Seed: e.seed,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tr.EncodeCSV(&buf, true); err != nil {
		return nil, err
	}
	return &onlineReplay{tr: e.tr, orig: tr, gz: buf.Bytes(), machine: energy.Profiles()[0]}, nil
}

func (o *onlineReplay) clients() int      { return 1 }
func (o *onlineReplay) classes() []string { return []string{"pass"} }
func (o *onlineReplay) start() []int      { return []int{0} }
func (o *onlineReplay) gen(c, i int)      {}
func (o *onlineReplay) close()            {}

// replay runs the three policies on a trace and digests their results.
func (o *onlineReplay) replay(tr *trace.Trace, sp spanRef) (string, error) {
	results := make([]any, 0, len(onlinePolicies)+1)
	results = append(results, len(tr.Tasks))
	for _, pol := range onlinePolicies {
		cfg := autopilot.Config{
			Trace: tr, Machine: o.machine, ServerSpec: consolidation.DefaultServerSpec(), TickSec: 300,
		}
		run := o.tr.child(sp, layerAutopilot, "autopilot.run")
		if run.id >= 0 {
			cur := run
			cfg.Policy = newTracedPolicy(o.tr, &cur, pol.mk, consolidation.NewZombieStack())
		} else {
			cfg.Policy = pol.mk(consolidation.NewZombieStack())
		}
		res, err := autopilot.Run(cfg)
		o.tr.end(run)
		if err != nil {
			return "", fmt.Errorf("autopilot %s: %w", pol.name, err)
		}
		results = append(results, res)
	}
	return digest(results...), nil
}

func (o *onlineReplay) op(c, i int, sp spanRef) (int, error) {
	imp := o.tr.child(sp, layerTrace, "trace.import")
	tr, err := trace.Import(bytes.NewReader(o.gz), trace.ImportOptions{
		Name: o.orig.Name, Machines: o.orig.Machines, HorizonSec: o.orig.HorizonSec,
	})
	o.tr.end(imp)
	if err != nil {
		return 0, err
	}
	if len(tr.Tasks) != len(o.orig.Tasks) {
		return 0, fmt.Errorf("imported %d tasks, encoded %d", len(tr.Tasks), len(o.orig.Tasks))
	}
	d, err := o.replay(tr, sp)
	if err != nil {
		return 0, err
	}
	o.digests.add(d)
	return 0, nil
}

// verify replays the trace that never went through the codec: every pass must
// have produced the same simulated results from the imported copy.
func (o *onlineReplay) verify() (int, map[string]any, error) {
	ref, err := o.replay(o.orig, noSpan)
	if err != nil {
		return 0, nil, err
	}
	failed, notes := o.digests.check(ref)
	notes["tasks_imported"] = len(o.orig.Tasks)
	return failed, notes, nil
}

// offlineCompare: the Figure 10 contenders on a balanced and a gang-skewed
// trace, transition costs on, epoch accounting sharded over nproc workers.
type offlineCompare struct {
	tr      *tracer
	traces  []*trace.Trace
	workers int
	digests passDigests
}

// offlineTraces generates the google-like (modified: memory-heavy) trace and
// the mlbatch family trace on the same envelope.
func offlineTraces(machines, tasks int, seed int64) ([]*trace.Trace, error) {
	gcfg := trace.ModifiedConfig()
	gcfg.Machines, gcfg.Tasks, gcfg.HorizonSec, gcfg.Seed = machines, tasks, dayHorizonSec, seed
	google, err := trace.Generate(gcfg)
	if err != nil {
		return nil, err
	}
	ml, err := trace.GenerateFamily("mlbatch", trace.FamilyParams{
		Machines: machines, HorizonSec: dayHorizonSec, Tasks: tasks, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return []*trace.Trace{google, ml}, nil
}

func setupOfflineCompare(e *env) (instance, error) {
	traces, err := offlineTraces(e.scaled(1300, 20), e.scaled(20000, 200), e.seed)
	if err != nil {
		return nil, err
	}
	return &offlineCompare{tr: e.tr, traces: traces, workers: e.clients}, nil
}

func (o *offlineCompare) clients() int      { return 1 }
func (o *offlineCompare) classes() []string { return []string{"pass"} }
func (o *offlineCompare) start() []int      { return []int{0} }
func (o *offlineCompare) gen(c, i int)      {}
func (o *offlineCompare) close()            {}

// compare is the pass: every contender on every machine for both traces. The
// untraced pass goes through dcsim.CompareOpts, the entry point users call;
// the traced pass runs the same grid itself so it can wrap each policy.
func (o *offlineCompare) compare(workers int, sp spanRef) (string, error) {
	var all []any
	for _, tr := range o.traces {
		if sp.id < 0 {
			cmp, err := dcsim.CompareOpts(tr, energy.Profiles(), consolidation.DefaultServerSpec(),
				dcsim.CompareOptions{Workers: workers, TransitionCosts: true})
			if err != nil {
				return "", err
			}
			for _, r := range cmp.Results {
				all = append(all, r)
			}
			continue
		}
		for _, m := range energy.Profiles() {
			for _, pol := range consolidation.Contenders() {
				run := o.tr.child(sp, layerDCSim, "dcsim.run")
				res, err := dcsim.Run(dcsim.Config{
					Trace: tr, Policy: tracedPlanner{Policy: pol, tr: o.tr, cur: &run}, Machine: m,
					ServerSpec: consolidation.DefaultServerSpec(), Workers: workers, TransitionCosts: true,
				})
				o.tr.end(run)
				if err != nil {
					return "", err
				}
				all = append(all, res)
			}
		}
	}
	return digest(all...), nil
}

func (o *offlineCompare) op(c, i int, sp spanRef) (int, error) {
	d, err := o.compare(o.workers, sp)
	if err != nil {
		return 0, err
	}
	o.digests.add(d)
	return 0, nil
}

// verify recomputes the grid on the sequential engine: the sharded passes
// must have been bit-identical to it.
func (o *offlineCompare) verify() (int, map[string]any, error) {
	ref, err := o.compare(0, noSpan)
	if err != nil {
		return 0, nil, err
	}
	failed, notes := o.digests.check(ref)
	return failed, notes, nil
}

// scenarioMatrix: five families x three online policies under light chaos.
type scenarioMatrix struct {
	tr      *tracer
	packs   []scenario.Pack
	seed    int64
	workers int
	digests passDigests
}

var matrixPolicies = []string{"reactive", "hysteresis", "ewma"}

func setupScenarioMatrix(e *env) (instance, error) {
	packs, err := scenario.FamilyPacks(trace.FamilyParams{
		Machines: e.scaled(400, 20), HorizonSec: dayHorizonSec, Tasks: e.scaled(20000, 200), Seed: e.seed,
	})
	if err != nil {
		return nil, err
	}
	return &scenarioMatrix{tr: e.tr, packs: packs, seed: e.seed, workers: e.clients}, nil
}

func (s *scenarioMatrix) clients() int      { return 1 }
func (s *scenarioMatrix) classes() []string { return []string{"pass"} }
func (s *scenarioMatrix) start() []int      { return []int{0} }
func (s *scenarioMatrix) gen(c, i int)      {}
func (s *scenarioMatrix) close()            {}

func (s *scenarioMatrix) config(workers int) scenario.MatrixConfig {
	return scenario.MatrixConfig{
		Packs: s.packs, Policies: matrixPolicies, ChaosScenario: "light", ChaosSeed: s.seed, Workers: workers,
	}
}

// tracedCells is the benchmark's own cell loop: the same grid, pool shape and
// per-cell calls as scenario.Run, with a span per cell and wrapped policies.
// It renders through scenario.Matrix so its digest equals the untraced one.
func (s *scenarioMatrix) tracedCells(sp spanRef) (string, error) {
	cfg := s.config(s.workers)
	m := &scenario.Matrix{ChaosScenario: cfg.ChaosScenario, ChaosSeed: cfg.ChaosSeed}
	for _, pack := range s.packs {
		for _, pol := range matrixPolicies {
			m.Cells = append(m.Cells, scenario.Cell{Scenario: pack.Name, Policy: pol})
		}
	}
	errs := make([]error, len(m.Cells))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(s.workers, len(m.Cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = s.tracedCell(&m.Cells[i], s.packs[i/len(matrixPolicies)], onlinePolicies[i%len(matrixPolicies)].mk, sp)
			}
		}()
	}
	for i := range m.Cells {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return "", err
		}
	}
	return digest(m.Render()), nil
}

func (s *scenarioMatrix) tracedCell(cell *scenario.Cell, pack scenario.Pack, mk func(consolidation.Policy) autopilot.Policy, sp spanRef) error {
	cellSpan := s.tr.child(sp, layerScenario, "scenario.cell")
	defer s.tr.end(cellSpan)
	build := s.tr.child(cellSpan, layerChaos, "chaos.scenario")
	plan, err := chaos.Scenario("light", pack.Trace.HorizonSec, pack.Trace.Machines, s.seed)
	s.tr.end(build)
	if err != nil {
		return err
	}
	run := s.tr.child(cellSpan, layerAutopilot, "autopilot.runchaos")
	cur := run
	report, err := autopilot.RunChaos(autopilot.Config{
		Trace:      pack.Trace,
		Policy:     newTracedPolicy(s.tr, &cur, mk, consolidation.NewNeat()),
		Machine:    energy.Profiles()[0],
		ServerSpec: consolidation.DefaultServerSpec(),
		TickSec:    300,
	}, plan)
	s.tr.end(run)
	if err != nil {
		return fmt.Errorf("cell %s/%s: %w", cell.Scenario, cell.Policy, err)
	}
	cell.Report = report
	return nil
}

func (s *scenarioMatrix) op(c, i int, sp spanRef) (int, error) {
	var d string
	if sp.id >= 0 {
		var err error
		if d, err = s.tracedCells(sp); err != nil {
			return 0, err
		}
	} else {
		m, err := scenario.Run(s.config(s.workers))
		if err != nil {
			return 0, err
		}
		d = digest(m.Render())
	}
	s.digests.add(d)
	return 0, nil
}

// verify reruns the grid on one worker: the pooled passes must match it.
func (s *scenarioMatrix) verify() (int, map[string]any, error) {
	m, err := scenario.Run(s.config(1))
	if err != nil {
		return 0, nil, err
	}
	failed, notes := s.digests.check(digest(m.Render()))
	notes["cells"] = len(m.Cells)
	return failed, notes, nil
}

package zombieland

// This file is the benchmark harness: one benchmark per table and figure of
// the paper's evaluation (the experiment functions in experiments.go do the
// work), plus ablation benchmarks for the repository's main design
// choices and micro-benchmarks of the hot paths (RDMA verbs, policy
// eviction, the page-fault handler).
//
// Key result values are attached to every benchmark as custom metrics
// (b.ReportMetric), so `go test -bench=.` regenerates the numbers the paper
// reports; the cmd/ tools print the same results as formatted tables.

import (
	"runtime"
	"testing"

	"repro/internal/acpi"
	"repro/internal/consolidation"
	"repro/internal/core"
	"repro/internal/dcsim"
	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/hypervisor"
	"repro/internal/memctl"
	"repro/internal/memplane"
	"repro/internal/pagepolicy"
	"repro/internal/rdma"
	"repro/internal/swapdev"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// --------------------------------------------------------------- Figures 1-4

func BenchmarkFig1EnergyProportionality(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := Figure1("HP", 101)
		if err != nil {
			b.Fatal(err)
		}
		gap = res.Points[0].Actual - res.Points[0].Ideal
	}
	b.ReportMetric(gap*100, "idle-gap-%Emax")
}

func BenchmarkFig2AWSDemandTrend(b *testing.B) {
	var growth float64
	for i := 0; i < b.N; i++ {
		res := Figure2()
		growth = res.Points[len(res.Points)-1].Ratio / res.Points[0].Ratio
	}
	b.ReportMetric(growth, "demand-growth-x")
}

func BenchmarkFig3SupplyTrend(b *testing.B) {
	var decline float64
	for i := 0; i < b.N; i++ {
		res := Figure3()
		decline = res.Points[len(res.Points)-1].Ratio / res.Points[0].Ratio
	}
	b.ReportMetric(decline, "supply-ratio-final")
}

func BenchmarkFig4RackArchitectures(b *testing.B) {
	var serverCentric, zombie float64
	for i := 0; i < b.N; i++ {
		res := Figure4()
		serverCentric = res.Energies[energy.ServerCentric]
		zombie = res.Energies[energy.ZombieDisaggregation]
	}
	b.ReportMetric(serverCentric, "server-centric-Emax")
	b.ReportMetric(zombie, "zombie-Emax")
}

// ----------------------------------------------------------------- Figure 8

func BenchmarkFig8ReplacementPolicies(b *testing.B) {
	var best string
	for i := 0; i < b.N; i++ {
		res, err := Figure8(1)
		if err != nil {
			b.Fatal(err)
		}
		best = res.BestPolicy()
	}
	if best != "mixed" {
		b.Logf("best policy = %q (the paper reports mixed)", best)
	}
	b.ReportMetric(boolMetric(best == "mixed"), "mixed-is-best")
}

// ------------------------------------------------------------------ Table 1

func BenchmarkTable1RAMExtPenalty(b *testing.B) {
	var micro50, spark50 float64
	for i := 0; i < b.N; i++ {
		res, err := Table1(1)
		if err != nil {
			b.Fatal(err)
		}
		micro50, _ = res.Penalty(MicroBench, 50)
		spark50, _ = res.Penalty(SparkSQL, 50)
	}
	b.ReportMetric(micro50, "micro-50%-penalty-%")
	b.ReportMetric(spark50, "spark-50%-penalty-%")
}

// ------------------------------------------------------------------ Table 2

func BenchmarkTable2SwapTechnologies(b *testing.B) {
	var re, esd, hdd float64
	for i := 0; i < b.N; i++ {
		res, err := Table2(1)
		if err != nil {
			b.Fatal(err)
		}
		re, _ = res.Penalty(Elasticsearch, 50, "v1-RE")
		esd, _ = res.Penalty(Elasticsearch, 50, "v2-ESD")
		hdd, _ = res.Penalty(Elasticsearch, 50, "v2-LSSD")
	}
	b.ReportMetric(re, "elastic-50%-ramext-%")
	b.ReportMetric(esd, "elastic-50%-remote-swap-%")
	b.ReportMetric(hdd, "elastic-50%-hdd-swap-%")
}

// ----------------------------------------------------------------- Figure 9

func BenchmarkFig9Migration(b *testing.B) {
	var nativeAt20, zombieAt20 float64
	for i := 0; i < b.N; i++ {
		res, err := Figure9()
		if err != nil {
			b.Fatal(err)
		}
		nativeAt20 = res.Points[0].VanillaSec
		zombieAt20 = res.Points[0].ZombieSec
	}
	b.ReportMetric(nativeAt20, "native-20%wss-sec")
	b.ReportMetric(zombieAt20, "zombiestack-20%wss-sec")
}

// ------------------------------------------------------------------ Table 3

func BenchmarkTable3StateEnergy(b *testing.B) {
	var hpSz, dellSz float64
	for i := 0; i < b.N; i++ {
		res := Table3()
		hp := res.Rows["HP"]
		dell := res.Rows["Dell"]
		hpSz = hp[len(hp)-1]
		dellSz = dell[len(dell)-1]
	}
	b.ReportMetric(hpSz, "hp-sz-%Emax")
	b.ReportMetric(dellSz, "dell-sz-%Emax")
}

// ---------------------------------------------------------------- Figure 10

func BenchmarkFig10DatacenterEnergy(b *testing.B) {
	cfg := Fig10Config{Machines: 80, Tasks: 800, HorizonSec: 6 * 3600, Seed: 42}
	var neat, oasis, zombie float64
	for i := 0; i < b.N; i++ {
		res, err := Figure10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		neat, _ = res.Saving("google-like-modified", "HP", "neat")
		oasis, _ = res.Saving("google-like-modified", "HP", "oasis")
		zombie, _ = res.Saving("google-like-modified", "HP", "zombiestack")
	}
	b.ReportMetric(neat, "neat-saving-%")
	b.ReportMetric(oasis, "oasis-saving-%")
	b.ReportMetric(zombie, "zombiestack-saving-%")
}

// ----------------------------------------------------- dcsim engine benches

// BenchmarkDCSimSweep measures the scenario-sweep harness on the Figure 10
// grid (scaled down to benchmark size); the two traces are opened once,
// outside the timed loop.
func BenchmarkDCSimSweep(b *testing.B) {
	cfg := dcsim.SweepConfig{
		Policies:        consolidation.Contenders(),
		Machines:        energy.Profiles(),
		PeriodsSec:      []int64{300},
		TransitionCosts: []bool{false, true},
		ServerSpec:      consolidation.DefaultServerSpec(),
		SweepWorkers:    runtime.GOMAXPROCS(0),
	}
	for _, modified := range []bool{false, true} {
		tr, err := GenerateTrace(modified, 80, 800, 6*3600, 42)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Traces = append(cfg.Traces, tr)
	}
	b.ResetTimer()
	var runs int
	for i := 0; i < b.N; i++ {
		res, err := dcsim.Sweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		runs = len(res.Runs)
	}
	b.ReportMetric(float64(runs), "scenarios")
}

// ---------------------------------------------------------------- Ablations

// BenchmarkAblationBufferSize ablates the rack-wide BUFF_SIZE: smaller
// buffers mean more bookkeeping per allocated byte, larger buffers mean
// coarser reclaim. The benchmark measures the controller's allocate/release
// throughput at each size.
func BenchmarkAblationBufferSize(b *testing.B) {
	for _, size := range []int64{16 << 20, 64 << 20, 256 << 20} {
		b.Run(byteSizeName(size), func(b *testing.B) {
			ctr := memctl.NewGlobalController(memctl.WithBufferSize(size))
			if err := ctr.RegisterServer("zombie", 1<<40, nil, nil); err != nil {
				b.Fatal(err)
			}
			if err := ctr.RegisterServer("user", 1<<40, nil, nil); err != nil {
				b.Fatal(err)
			}
			specs := make([]memctl.BufferSpec, (8<<30)/size)
			for i := range specs {
				specs[i] = memctl.BufferSpec{Offset: int64(i) * size, Size: size}
			}
			if _, err := ctr.GotoZombie("zombie", specs); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bufs, err := ctr.AllocExt("user", 2<<30)
				if err != nil {
					b.Fatal(err)
				}
				ids := make([]memctl.BufferID, len(bufs))
				for j, buf := range bufs {
					ids[j] = buf.ID
				}
				if err := ctr.Release("user", ids); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(specs)), "buffers-per-8GiB")
		})
	}
}

// BenchmarkAblationMixedWindow ablates the Mixed policy's clock window x: a
// tiny window degenerates to FIFO, a huge one to Clock. The metric is the
// micro-benchmark execution time at 40% local memory.
func BenchmarkAblationMixedWindow(b *testing.B) {
	machine := PaperVM()
	for _, window := range []int{1, 5, 32, 256} {
		b.Run(windowName(window), func(b *testing.B) {
			var exec float64
			for i := 0; i < b.N; i++ {
				runner := workload.NewRunner()
				pol := pagepolicy.NewMixed(pagepolicy.DefaultCost(), window)
				res, err := runner.RunRAMExt(workload.MicroBench, machine, 0.4, pol, nil)
				if err != nil {
					b.Fatal(err)
				}
				exec = res.ExecTimeNs / 1e6
			}
			b.ReportMetric(exec, "exec-ms-40%local")
		})
	}
}

// BenchmarkAblationAllocationPriority ablates the zombie-first allocation
// rule: with both zombie and active buffers available, it reports the share
// of allocations served from zombie memory (the design keeps active servers'
// memory as a reserve).
func BenchmarkAblationAllocationPriority(b *testing.B) {
	var zombieShare float64
	for i := 0; i < b.N; i++ {
		ctr := memctl.NewGlobalController(memctl.WithBufferSize(64 << 20))
		_ = ctr.RegisterServer("zombie", 1<<40, nil, nil)
		_ = ctr.RegisterServer("active", 1<<40, nil, nil)
		_ = ctr.RegisterServer("user", 1<<40, nil, nil)
		specs := make([]memctl.BufferSpec, 32)
		for j := range specs {
			specs[j] = memctl.BufferSpec{Offset: int64(j) << 26, Size: 64 << 20}
		}
		if _, err := ctr.GotoZombie("zombie", specs); err != nil {
			b.Fatal(err)
		}
		if _, err := ctr.DelegateActive("active", specs); err != nil {
			b.Fatal(err)
		}
		bufs, err := ctr.AllocSwap("user", 16*64<<20)
		if err != nil {
			b.Fatal(err)
		}
		fromZombie := 0
		for _, buf := range bufs {
			if buf.Type == memctl.ZombieBuffer {
				fromZombie++
			}
		}
		zombieShare = float64(fromZombie) / float64(len(bufs)) * 100
	}
	b.ReportMetric(zombieShare, "zombie-share-%")
}

// BenchmarkAblationConsolidationThreshold ablates ZombieStack's local-memory
// fraction (the 50% placement rule): lowering it frees more servers but costs
// VM performance; the benchmark reports the fleet energy saving at each
// setting.
func BenchmarkAblationConsolidationThreshold(b *testing.B) {
	tr, err := trace.Generate(trace.GeneratorConfig{
		Name: "ablation", Machines: 80, HorizonSec: 4 * 3600, Tasks: 600,
		MemoryToCPURatio: 3, MeanUtilization: 0.35, IdleFraction: 0.25, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	hp := energy.HPProfile()
	for _, frac := range []float64{0.3, 0.5, 0.7} {
		b.Run(fractionName(frac), func(b *testing.B) {
			var saving float64
			for i := 0; i < b.N; i++ {
				pol := consolidation.NewZombieStack()
				pol.LocalMemoryFraction = frac
				res, err := dcsim.Run(dcsim.Config{
					Trace: tr, Policy: pol, Machine: hp,
					ServerSpec: consolidation.DefaultServerSpec(),
				})
				if err != nil {
					b.Fatal(err)
				}
				saving = res.SavingPercent
			}
			b.ReportMetric(saving, "saving-%")
		})
	}
}

// BenchmarkAblationExplicitSDAggressiveness ablates the guest-visible swap
// traffic multiplier that distinguishes Explicit SD from hypervisor paging.
func BenchmarkAblationExplicitSDAggressiveness(b *testing.B) {
	for _, factor := range []float64{1.0, 2.2, 4.0} {
		b.Run(factorName(factor), func(b *testing.B) {
			var traffic float64
			for i := 0; i < b.N; i++ {
				dev, err := swapdev.New(swapdev.RemoteRAM, 256)
				if err != nil {
					b.Fatal(err)
				}
				esd, err := hypervisor.NewExplicitSD(hypervisor.ExplicitConfig{
					Pages: 256, LocalFrames: 128, Device: dev, Aggressiveness: factor,
				})
				if err != nil {
					b.Fatal(err)
				}
				for pass := 0; pass < 3; pass++ {
					for p := 0; p < 256; p++ {
						if _, err := esd.Access(p, true); err != nil {
							b.Fatal(err)
						}
					}
				}
				traffic = float64(esd.SwapTraffic())
			}
			b.ReportMetric(traffic, "swapped-pages")
		})
	}
}

// ---------------------------------------------------------- hot-path benches

// BenchmarkRDMAOneSidedWrite measures the simulated fabric's per-operation
// overhead for a 4 KiB page write (the RAM Ext demotion path).
func BenchmarkRDMAOneSidedWrite(b *testing.B) {
	f := rdma.NewFabric(rdma.DefaultCostModel())
	a, _ := f.AttachDevice("a")
	z, _ := f.AttachDevice("z")
	cq := rdma.NewCompletionQueue()
	qp := a.CreateQueuePair(cq)
	peer := z.CreateQueuePair(rdma.NewCompletionQueue())
	if err := rdma.Connect(qp, peer); err != nil {
		b.Fatal(err)
	}
	mr, _ := z.RegisterMemory(1<<20, rdma.AccessFlags{RemoteRead: true, RemoteWrite: true})
	page := make([]byte, 4096)
	var wcs [64]rdma.WorkCompletion
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qp.Write(uint64(i), page, mr.RKey(), (i%200)*4096); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			cq.Poll(wcs[:])
		}
	}
}

// BenchmarkPolicyEviction measures the per-eviction cost of each policy with
// a 4096-page resident set.
func BenchmarkPolicyEviction(b *testing.B) {
	for _, name := range pagepolicy.Names() {
		b.Run(name, func(b *testing.B) {
			pol, err := pagepolicy.New(name, pagepolicy.DefaultCost())
			if err != nil {
				b.Fatal(err)
			}
			for p := 0; p < 4096; p++ {
				pol.Fault(pagepolicy.PageID(p))
				if p%2 == 0 {
					pol.Access(pagepolicy.PageID(p))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				victim, _, ok := pol.Evict()
				if !ok {
					b.Fatal("policy ran dry")
				}
				pol.Fault(victim) // keep the resident set full
			}
		})
	}
}

// BenchmarkPageFaultHandler measures the full RAM Ext fault path (policy +
// demotion + promotion through the latency store).
func BenchmarkPageFaultHandler(b *testing.B) {
	store := hypervisor.NewInfinibandStore(8192)
	ram, err := hypervisor.NewRAMExt(hypervisor.Config{
		Pages:       8192,
		LocalFrames: 4096,
		Policy:      pagepolicy.NewMixed(pagepolicy.DefaultCost(), pagepolicy.DefaultMixedWindow),
		Remote:      store,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Populate.
	for p := 0; p < 8192; p++ {
		if _, err := ram.Access(p, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ram.Access(i%8192, i%2 == 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetDataRequest measures one warm 4 MiB data-caching request (the
// serve_steady data call below the gateway): a stream of page-sized reads and
// writes through the VM's data plane. MB/s counts the bytes the plane moved.
func BenchmarkFleetDataRequest(b *testing.B) {
	board := acpi.DefaultBoardSpec()
	board.MemoryBytes = 2 << 30
	f, err := fleet.New(fleet.Config{Racks: 1, Rack: core.Config{Servers: 3, Board: board}, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := f.PushToZombie(0, f.Rack(0).Servers()[2]); err != nil {
		b.Fatal(err)
	}
	if _, err := f.PlaceVMs([]vm.VM{vm.New("vm", 1536<<20, 1536<<20)}, core.CreateVMOptions{}); err != nil {
		b.Fatal(err)
	}
	reqs := []fleet.WorkloadRequest{{VM: "vm", Kind: workload.DataCaching, Iterations: 1, Seed: 42, DataBytes: 4 << 20}}
	run := func() memplane.Stats {
		res := f.RunWorkloads(reqs)[0]
		if res.Err != "" {
			b.Fatal(res.Err)
		}
		return res.Data
	}
	cold := run()
	warm := run()
	b.SetBytes(int64(warm.BytesRead + warm.BytesWritten - cold.BytesRead - cold.BytesWritten))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// ------------------------------------------------------------------ helpers

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

func byteSizeName(size int64) string {
	switch {
	case size >= 1<<30:
		return itoa(int(size>>30)) + "GiB"
	case size >= 1<<20:
		return itoa(int(size>>20)) + "MiB"
	default:
		return itoa(int(size)) + "B"
	}
}

func windowName(w int) string { return "window-" + itoa(w) }

func fractionName(f float64) string { return "local-" + itoa(int(f*100)) + "pct" }

func factorName(f float64) string { return "factor-" + itoa(int(f*10)) + "e-1" }

// itoa avoids pulling strconv into the benchmark file for tiny values.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

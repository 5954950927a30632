// Command fleetsim brings up a multi-rack fleet and runs a cross-rack
// scenario against it: lender racks push servers into Sz, a batch of VMs is
// placed across the fleet (dry racks borrow remote memory from peers over
// the inter-rack fabric), the workload mix replays on the worker pool, and
// the placement table, borrow ledger, inter-rack traffic and energy report
// are printed.
//
// Usage:
//
//	fleetsim                                   # 4 racks x 4 servers
//	fleetsim -racks 8 -servers 8 -vms 24       # bigger fleet
//	fleetsim -workers 8                        # fixed-size execution pool
//	                                           #   (default 0: one worker per core)
//	fleetsim -mix spark-sql,data-caching       # workload mix to rotate
//	fleetsim -family heavytail -vms 12         # VM batch from a workload family
//	fleetsim -trace cluster.csv.gz -vms 12     # VM batch from an on-disk trace
//	fleetsim -chaos                            # scripted faults: crash, controller
//	                                           #   kill, failed wake — with fault log
//	fleetsim -obs                              # append the obs dump: metrics
//	                                           #   snapshot + NDJSON event trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	zombieland "repro"
	"repro/internal/cliflag"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fleetConfig holds the fleet-shape flags. The VM batch's trace source
// (-family, -trace) and its horizon (-hours) travel in a trace.Spec.
type fleetConfig struct {
	racks, servers, zombies, memGiB int
	vms, workers, iterations        int
	vmGiB                           float64
	mix                             string
	chaos, obs                      bool
}

func main() {
	sp, cfg, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err == nil {
		err = run(os.Stdout, sp, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
}

// parseFlags binds the command line into the trace spec and the fleet shape.
func parseFlags(fs *flag.FlagSet, args []string) (trace.Spec, fleetConfig, error) {
	var sp trace.Spec
	var cfg fleetConfig
	fs.IntVar(&cfg.racks, "racks", 4, "number of racks in the fleet")
	fs.IntVar(&cfg.servers, "servers", 4, "servers per rack")
	fs.IntVar(&cfg.zombies, "zombies", 2, "servers pushed into Sz on every second rack (the lenders)")
	fs.IntVar(&cfg.memGiB, "mem-gib", 16, "memory per server in GiB")
	fs.IntVar(&cfg.vms, "vms", 6, "VMs to place across the fleet")
	fs.Float64Var(&cfg.vmGiB, "vm-gib", 28, "VM reserved memory in GiB")
	fs.StringVar(&cfg.mix, "mix", "spark-sql,elasticsearch", "comma-separated workload mix rotated across the VMs")
	fs.StringVar(&sp.Family, "family", "", "derive the VM batch from the first -vms tasks of a workload family (seed 42) instead of the uniform -vm-gib batch: "+strings.Join(trace.FamilyNames(), ", "))
	fs.StringVar(&sp.File, "trace", "", "derive the VM batch from the first -vms tasks of a .csv/.csv.gz trace file")
	fs.IntVar(&cfg.workers, "workers", 0, "worker-pool size for placement and workload execution (0 = every core, runtime.GOMAXPROCS)")
	hours := fs.Float64("hours", 1, "simulated hours to account energy over")
	fs.IntVar(&cfg.iterations, "iterations", 2, "paging-replay iterations per workload")
	fs.BoolVar(&cfg.chaos, "chaos", false, "inject a scripted fault sequence (server crash before placement, controller kill after, a failed wake) and print the fault log")
	fs.BoolVar(&cfg.obs, "obs", false, "attach the observability layer and append its dump: metrics snapshot + deterministic NDJSON event trace")
	err := fs.Parse(args)
	sp.HorizonSec = int64(*hours * 3600)
	return sp, cfg, err
}

func parseMix(csv string) ([]zombieland.Workload, error) {
	var kinds []zombieland.Workload
	for _, name := range strings.Split(csv, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		k, err := workload.KindByName(name)
		if err != nil {
			return nil, fmt.Errorf("-mix: %w", err)
		}
		kinds = append(kinds, k)
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("-mix selects no workloads")
	}
	return kinds, nil
}

// vmSpecs builds the VM batch: the uniform -vm-gib batch by default, or VMs
// derived from the first -vms tasks of the spec's workload family / imported
// trace — reserved memory from the task's booking, working set from its
// usage.
func vmSpecs(sp trace.Spec, vms int, vmGiB float64) ([]zombieland.VM, error) {
	if sp.Family == "" && sp.File == "" {
		var specs []zombieland.VM
		for i := 0; i < vms; i++ {
			specs = append(specs, zombieland.NewVM(fmt.Sprintf("vm-%02d", i),
				int64(vmGiB*float64(1<<30)), int64(vmGiB*0.75*float64(1<<30))))
		}
		return specs, nil
	}
	tr, err := sp.Open()
	if err != nil {
		return nil, err
	}
	if len(tr.Tasks) < vms {
		return nil, fmt.Errorf("trace %q has only %d tasks, need -vms %d", tr.Name, len(tr.Tasks), vms)
	}
	var specs []zombieland.VM
	for _, task := range tr.Tasks[:vms] {
		wss := task.UsedMemGiB
		if wss <= 0 || wss > task.BookedMemGiB {
			wss = task.BookedMemGiB * 0.75
		}
		specs = append(specs, zombieland.NewVM(task.VMID(),
			int64(task.BookedMemGiB*float64(1<<30)), int64(wss*float64(1<<30))))
	}
	return specs, nil
}

func run(out io.Writer, sp trace.Spec, cfg fleetConfig) error {
	// Upfront flag validation with the valid ranges (the fleet shape through
	// the shared helpers, the batch's trace through its spec), so a bad
	// invocation fails before any fleet state is built. The batch's trace
	// targets the whole fleet and draws seed 42.
	sp.Machines, sp.Tasks, sp.Seed = cfg.racks*cfg.servers, cfg.vms, 42
	if err := cliflag.FirstError(
		cliflag.PositiveInt("-racks", cfg.racks),
		cliflag.PositiveInt("-servers", cfg.servers),
		cliflag.PositiveInt("-mem-gib", cfg.memGiB),
		cliflag.PositiveInt("-vms", cfg.vms),
		cliflag.PositiveFloat("-vm-gib", cfg.vmGiB),
		cliflag.PositiveInt("-iterations", cfg.iterations),
		cliflag.NonNegativeInt("-workers", cfg.workers),
		cliflag.NonNegativeInt("-zombies", cfg.zombies),
		sp.Validate(),
	); err != nil {
		return err
	}
	if cfg.workers == 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if cfg.zombies >= cfg.servers {
		return fmt.Errorf("-zombies %d must leave at least one active server per rack (-servers %d)", cfg.zombies, cfg.servers)
	}
	kinds, err := parseMix(cfg.mix)
	if err != nil {
		return err
	}
	specs, err := vmSpecs(sp, cfg.vms, cfg.vmGiB)
	if err != nil {
		return err
	}

	board := zombieland.DefaultBoardSpec()
	board.MemoryBytes = uint64(cfg.memGiB) << 30
	f, err := zombieland.NewFleet(zombieland.FleetConfig{
		Racks:   cfg.racks,
		Rack:    zombieland.RackConfig{Servers: cfg.servers, Board: board},
		Workers: cfg.workers,
	})
	if err != nil {
		return err
	}
	// The step clock (not wall time) stamps trace events, so the -obs dump of
	// a given invocation is byte-identical run to run, for any -workers value.
	var o *zombieland.Obs
	if cfg.obs {
		o = zombieland.NewObs(zombieland.ObsOptions{Clock: zombieland.ObsStepClock()})
		f.SetObs(o)
	}
	fmt.Fprintf(out, "Fleet up: %d racks x %d servers (%d GiB each), worker pool %d.\n\n", cfg.racks, cfg.servers, cfg.memGiB, cfg.workers)

	// Every second rack lends: its tail servers go to Sz and feed the
	// fleet-wide remote memory pool; the other racks stay dry and must
	// borrow across racks for memory-hungry VMs.
	for ri := 1; ri < cfg.racks; ri += 2 {
		names := f.Rack(ri).Servers()
		for z := 0; z < cfg.zombies; z++ {
			if err := f.PushToZombie(ri, names[len(names)-1-z]); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(out, "Lender racks ready: %.1f GiB of remote memory fleet-wide.\n\n",
		float64(f.FreeRemoteMemory())/float64(1<<30))

	// The scripted fault sequence of -chaos: a dry-rack server crashes
	// before placement (the batch must route around it), a lender's
	// controller dies after the workloads (the secondary promotes, borrowed
	// memory keeps serving), and a wake attempt fails once (the injected
	// stuck-zombie fault) before succeeding on retry.
	var chaosEvents *metrics.Table
	var crashedServer string
	if cfg.chaos {
		chaosEvents = metrics.NewTable("Chaos events (scripted)", "event", "target", "outcome")
		crashedServer = f.Rack(0).Servers()[cfg.servers-1]
		if err := f.CrashServer(0, crashedServer); err != nil {
			return err
		}
		chaosEvents.AddRow("server-crash", crashedServer, "placement must route around it")
	}

	placements, err := f.PlaceVMs(specs, zombieland.CreateVMOptions{})
	if err != nil {
		return err
	}
	pt := metrics.NewTable("Placement", "vm", "rack", "host", "local-gib", "remote-gib", "borrowed-gib", "from")
	var reqs []zombieland.FleetWorkloadRequest
	for i, p := range placements {
		if p.Err != "" {
			pt.AddRow(p.VM, "-", "-", "-", "-", "-", p.Err)
			continue
		}
		from := p.BorrowedFrom
		if from == "" {
			from = "-"
		}
		pt.AddRow(p.VM, p.Rack, p.Host,
			metrics.FormatFloat(float64(p.LocalBytes)/float64(1<<30)),
			metrics.FormatFloat(float64(p.RemoteBytes)/float64(1<<30)),
			metrics.FormatFloat(float64(p.BorrowedBytes)/float64(1<<30)),
			from)
		reqs = append(reqs, zombieland.FleetWorkloadRequest{
			VM:         p.VM,
			Kind:       kinds[i%len(kinds)],
			Iterations: cfg.iterations,
			Seed:       int64(i + 1),
		})
	}
	fmt.Fprintln(out, pt.String())

	lt := metrics.NewTable("Cross-rack borrow ledger", "vm", "borrower", "lender", "gib", "buffers")
	for _, b := range f.BorrowLedger() {
		lt.AddRow(b.VM, b.Borrower, b.Lender,
			metrics.FormatFloat(float64(b.Bytes)/float64(1<<30)),
			metrics.FormatFloat(float64(b.Buffers)))
	}
	fmt.Fprintln(out, lt.String())

	results := f.RunWorkloads(reqs)
	wt := metrics.NewTable("Workloads (pool-sharded)", "vm", "rack", "workload", "accesses", "major-faults", "remote-ms")
	for _, res := range results {
		if res.Err != "" {
			wt.AddRow(res.VM, res.Rack, res.Kind.String(), "-", "-", res.Err)
			continue
		}
		wt.AddRowf(res.VM, res.Rack, res.Kind.String(),
			res.Stats.Accesses, res.Stats.MajorFaults, res.Stats.RemoteNs/1e6)
	}
	fmt.Fprintln(out, wt.String())

	ft := metrics.NewTable("Inter-rack RDMA traffic (lender fabrics)", "rack", "ops", "bytes", "premium-ms")
	for i, st := range f.FabricStats() {
		if st.InterRackOps == 0 {
			continue
		}
		ft.AddRowf(f.RackNames()[i], st.InterRackOps, st.InterRackBytes, float64(st.InterRackNs)/1e6)
	}
	fmt.Fprintln(out, ft.String())

	if cfg.chaos {
		if err := runChaosScript(out, f, chaosEvents, crashedServer, cfg.racks); err != nil {
			return err
		}
	}

	f.AdvanceClock(sp.HorizonSec * 1e9)
	perRack := metrics.NewTable(fmt.Sprintf("Energy over %.1f simulated hour(s)", float64(sp.HorizonSec)/3600), "rack", "joules")
	for i := 0; i < f.Racks(); i++ {
		perRack.AddRowf(f.RackNames()[i], f.Rack(i).TotalEnergyJoules())
	}
	fmt.Fprintln(out, perRack.String())
	fmt.Fprintf(out, "Fleet total: %.0f J across %d racks.\n", f.TotalEnergyJoules(), f.Racks())
	if cfg.obs {
		fmt.Fprintln(out)
		return o.Dump(out)
	}
	return nil
}

// failNextWakes is the scripted FaultInjector: the first n wake attempts
// fail, the rest pass.
type failNextWakes struct{ n int }

func (fi *failNextWakes) WakeFails(rack int, server string) bool {
	if fi.n > 0 {
		fi.n--
		return true
	}
	return false
}

// runChaosScript drives the post-workload faults of -chaos and prints the
// fault log: a lender controller dies (the secondary promotes itself and
// every cross-rack borrow keeps serving) and the crashed server is revived
// but sticks on its first wake attempt.
func runChaosScript(out io.Writer, f *zombieland.Fleet, events *metrics.Table, crashedServer string, racks int) error {
	if racks > 1 {
		borrowsBefore := len(f.BorrowLedger())
		if err := f.KillController(1, f.Rack(1).Now()+10e9); err != nil {
			return err
		}
		outcome := fmt.Sprintf("secondary promoted, %d borrows kept serving", borrowsBefore)
		events.AddRow("controller-kill", f.RackNames()[1], outcome)
	}
	if err := f.ReviveServer(0, crashedServer); err != nil {
		return err
	}
	events.AddRow("server-revive", crashedServer, "back in the control plane")
	if err := f.Suspend(0, crashedServer, zombieland.S3); err != nil {
		return err
	}
	f.SetFaultInjector(&failNextWakes{n: 1})
	if err := f.Wake(0, crashedServer); err != nil {
		events.AddRow("wake-failure", crashedServer, "stuck on first attempt: "+err.Error())
	}
	if err := f.Wake(0, crashedServer); err != nil {
		return err
	}
	f.SetFaultInjector(nil)
	events.AddRow("wake-retry", crashedServer, "second attempt woke the server")
	fmt.Fprintln(out, events.String())
	return nil
}

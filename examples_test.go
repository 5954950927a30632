package zombieland_test

// The library's walk-throughs. Each Example_* is one commented scenario —
// a rack, its orchestration, the fleet, the online loop, chaos, the data
// plane, the gateway — and its // Output: block is the exact transcript,
// checked by `go test`. Everything in the library is deterministic, which is
// what makes exact-output examples possible. Run one with
//
//	go test -run '^Example_quickstart$' -v .
//
// The paper's rack experiments (Figure 9's migration, Tables 1-2's RAM Ext vs
// swap) are `go run ./cmd/paperfigs -exp fig9|table1|table2`, pinned by its
// golden file.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"

	zombieland "repro"
)

// Example_quickstart builds a four-server rack, pushes one server into the
// zombie (Sz) state, places a VM whose memory is partly served by the zombie
// over RDMA, runs a workload through the hypervisor's RAM Ext paging, and
// compares the energy drawn by the zombie against the awake servers.
func Example_quickstart() {
	// 1. Bring up a rack of four Sz-capable servers (16 GiB each).
	rack, err := zombieland.NewRack(zombieland.RackConfig{Servers: 4})
	if err != nil {
		panic(err)
	}
	fmt.Println("rack servers:", rack.Servers())

	// 2. Push server-03 into the zombie state: it suspends like S3 but keeps
	//    its DRAM and RDMA path alive, lending its free memory to the rack.
	if err := rack.PushToZombie("server-03"); err != nil {
		panic(err)
	}
	server03, err := rack.Server("server-03")
	if err != nil {
		panic(err)
	}
	fmt.Printf("server-03 state: %v, rack remote memory: %.1f GiB\n",
		server03.State(), gib(rack.FreeRemoteMemory()))

	// 3. Create a VM bigger than any single server's free memory. The
	//    zombie-aware scheduler backs part of it with the zombie's memory.
	spec := zombieland.NewVM("webapp", 28<<30, 20<<30)
	guest, err := rack.CreateVM(spec, zombieland.CreateVMOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("VM %s on %s: %.1f GiB local + %.1f GiB remote\n",
		spec.ID, guest.Host, gib(guest.LocalBytes), gib(guest.RemoteBytes))

	// 4. Run a workload; cold pages are demoted to the zombie's memory with
	//    one-sided RDMA writes and promoted back on demand.
	stats, err := rack.RunWorkload("webapp", zombieland.SparkSQL, 2, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("workload: %d accesses, %d major faults, %d pages demoted, %.1f ms simulated\n",
		stats.Accesses, stats.MajorFaults, stats.Demotions, stats.TotalNs()/1e6)

	// 5. Account one hour of energy: the zombie draws ~12% of Emax versus
	//    ~52% for an idle-but-awake server (Table 3).
	rack.AdvanceClock(3600 * 1e9)
	for _, rep := range rack.EnergyReportAll() {
		fmt.Printf("%s (%v): %.0f J\n", rep.Server, rep.State, rep.Joules)
	}

	// Output:
	// rack servers: [server-00 server-01 server-02 server-03]
	// server-03 state: Sz, rack remote memory: 15.0 GiB
	// VM webapp on server-00: 15.0 GiB local + 13.0 GiB remote
	// workload: 32768 accesses, 1435 major faults, 1435 pages demoted, 45.8 ms simulated
	// server-00 (S0): 432000 J
	// server-01 (S0): 225504 J
	// server-02 (S0): 225504 J
	// server-03 (Sz): 54734 J
}

// Example_orchestration shows the ZombieStack cloud-management features on
// a rack: the consolidation loop that parks idle servers in the Sz state, the
// migration protocol that moves only a VM's hot pages and re-points its
// remote buffers, and the transparent fail-over of the global memory
// controller to its mirrored secondary.
func Example_orchestration() {
	rack, err := zombieland.NewRack(zombieland.RackConfig{Servers: 5})
	if err != nil {
		panic(err)
	}

	// Two lightly loaded VMs spread across the rack.
	if _, err := rack.CreateVM(zombieland.NewVM("api", 4<<30, 2<<30), zombieland.CreateVMOptions{}); err != nil {
		panic(err)
	}
	if _, err := rack.CreateVM(zombieland.NewVM("batch", 4<<30, 2<<30), zombieland.CreateVMOptions{Strategy: 1}); err != nil {
		panic(err)
	}
	fmt.Println("VMs placed:", rack.VMs())

	// 1. Consolidation: idle servers are pushed into the Sz zombie state so
	//    their memory keeps serving the rack.
	report, err := rack.ConsolidateOnce()
	if err != nil {
		panic(err)
	}
	fmt.Printf("consolidation pass: migrated=%v pushed-to-Sz=%v woken=%v\n",
		report.Migrated, report.PushedToZombie, report.Woken)
	fmt.Printf("remote memory now available: %.1f GiB\n\n", float64(rack.FreeRemoteMemory())/float64(1<<30))

	// 2. Migration: move a VM with the ZombieStack protocol (hot pages only,
	//    remote buffers re-pointed, not copied).
	guest, err := rack.VM("api")
	if err != nil {
		panic(err)
	}
	var dest string
	for _, name := range rack.Servers() {
		s, _ := rack.Server(name)
		if name != guest.Host && s.State() == zombieland.S0 {
			dest = name
			break
		}
	}
	if dest != "" {
		res, err := rack.MigrateVM("api", dest)
		if err != nil {
			panic(err)
		}
		fmt.Printf("migrated %q to %s in %.2fs: %d MiB copied, %d remote buffers re-pointed\n\n",
			"api", dest, res.DurationSeconds(), res.BytesTransferred>>20, res.RemoteOwnershipUpdates)
	}

	// 3. Controller fail-over: silence the primary long enough for the
	//    secondary to promote itself and rebuild the allocation state from
	//    its mirrored operation log.
	rebuilt, err := rack.FailoverController(rack.Now() + 10e9)
	if err != nil {
		panic(err)
	}
	fmt.Printf("controller fail-over complete: secondary promoted, %d servers and %.1f GiB of lent memory recovered\n",
		len(rebuilt.Servers()), float64(rebuilt.FreeMemory())/float64(1<<30))

	// Output:
	// VMs placed: [api batch]
	// consolidation pass: migrated=map[] pushed-to-Sz=[server-02 server-03 server-04] woken=[]
	// remote memory now available: 45.0 GiB
	//
	// migrated "api" to server-01 in 2.06s: 2048 MiB copied, 0 remote buffers re-pointed
	//
	// controller fail-over complete: secondary promoted, 5 servers and 45.0 GiB of lent memory recovered
}

// Example_consolidation replays a Google-like datacenter trace against the
// three consolidation systems compared in the paper (Neat, Oasis,
// ZombieStack) and prints the energy saving of each, for the original and
// the memory-heavy trace variants — the Figure 10 experiment at example
// scale.
func Example_consolidation() {
	cfg := zombieland.Fig10Config{Machines: 100, Tasks: 1200, HorizonSec: 8 * 3600, Seed: 7}
	res, err := zombieland.Figure10(cfg)
	if err != nil {
		panic(err)
	}
	// The aligned tables pad every cell; trim the line ends so the asserted
	// output below is stable under editors that strip trailing whitespace.
	printTrimmed(res.Render())
	fmt.Println()

	// Summarise the headline comparison the paper makes: how much better
	// ZombieStack does than Neat and Oasis on the memory-heavy traces.
	for _, machine := range []string{"HP", "Dell"} {
		neat, _ := res.Saving("google-like-modified", machine, "neat")
		oasis, _ := res.Saving("google-like-modified", machine, "oasis")
		zombie, _ := res.Saving("google-like-modified", machine, "zombiestack")
		fmt.Printf("%s servers, memory-heavy traces: ZombieStack saves %.1f%%, %.0f%% more than Neat (%.1f%%) and %.0f%% more than Oasis (%.1f%%)\n",
			machine, zombie, relGain(zombie, neat), neat, relGain(zombie, oasis), oasis)
	}
	fmt.Println("\nSavings are relative to a fleet with no consolidation (every server stays in S0).")

	// Output:
	// Figure 10 — % energy saving (google-like, steady state)
	// machine  neat   oasis  zombiestack
	// -------  -----  -----  -----------
	// HP       35.85  37.39  47.87
	// Dell     34.92  35.33  46.27
	//
	// Figure 10 — % energy saving (google-like-modified, steady state)
	// machine  neat   oasis  zombiestack
	// -------  -----  -----  -----------
	// HP       11.01  12.50  34.91
	// Dell     10.73  11.24  33.26
	//
	// HP servers, memory-heavy traces: ZombieStack saves 34.9%, 217% more than Neat (11.0%) and 179% more than Oasis (12.5%)
	// Dell servers, memory-heavy traces: ZombieStack saves 33.3%, 210% more than Neat (10.7%) and 196% more than Oasis (11.2%)
	//
	// Savings are relative to a fleet with no consolidation (every server stays in S0).
}

// Example_fleet federates two racks behind one control plane, makes one rack
// a lender (a server in Sz feeds its memory to the rack pool) while the other
// stays dry, then places a memory-hungry VM on the dry rack — the fleet
// borrows the VM's whole remote part from the peer rack, pages over the
// inter-rack fabric at the hop premium, and records the grant in the borrow
// ledger.
func Example_fleet() {
	// A fleet of two racks, two servers each, placed and replayed on a
	// two-goroutine worker pool (any pool size gives identical results).
	f, err := zombieland.NewFleet(zombieland.FleetConfig{
		Racks:   2,
		Rack:    zombieland.RackConfig{Servers: 2},
		Workers: 2,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("fleet racks:", f.RackNames())

	// rack-01 lends: one server goes to Sz, its memory joins the pool.
	// rack-00 keeps both servers awake and has no remote memory of its own.
	if err := f.PushToZombie(1, "rack-01/server-01"); err != nil {
		panic(err)
	}
	fmt.Printf("rack-00 free remote: %.1f GiB, rack-01 free remote: %.1f GiB\n",
		gib(f.Rack(0).FreeRemoteMemory()), gib(f.Rack(1).FreeRemoteMemory()))

	// A VM too big for local memory alone lands on the dry rack-00; the
	// fleet pre-reserves the remote part on rack-01 through a gateway agent.
	placements, err := f.PlaceVMs(
		[]zombieland.VM{zombieland.NewVM("hungry", 28<<30, 24<<30)},
		zombieland.CreateVMOptions{})
	if err != nil {
		panic(err)
	}
	p := placements[0]
	if p.Err != "" {
		panic(p.Err)
	}
	fmt.Printf("VM %s on %s: %.1f GiB local + %.1f GiB remote (%.1f GiB borrowed from %s)\n",
		p.VM, p.Host, gib(p.LocalBytes), gib(p.RemoteBytes), gib(p.BorrowedBytes), p.BorrowedFrom)
	for _, b := range f.BorrowLedger() {
		fmt.Printf("ledger: %s borrowed %.1f GiB (%d buffers) from %s for %s\n",
			b.Borrower, gib(b.Bytes), b.Buffers, b.Lender, b.VM)
	}

	// Replaying a workload pages over the borrowed buffers: every one-sided
	// verb traverses the lender's fabric and pays the inter-rack premium.
	results := f.RunWorkloads([]zombieland.FleetWorkloadRequest{
		{VM: "hungry", Kind: zombieland.SparkSQL, Iterations: 2, Seed: 1},
	})
	res := results[0]
	if res.Err != "" {
		panic(res.Err)
	}
	fmt.Printf("workload on %s: %d accesses, %d major faults\n",
		res.Rack, res.Stats.Accesses, res.Stats.MajorFaults)
	lender := f.FabricStats()[1]
	fmt.Printf("lender fabric: %d inter-rack ops, %.1f MiB, %.1f ms premium\n",
		lender.InterRackOps, float64(lender.InterRackBytes)/float64(1<<20), float64(lender.InterRackNs)/1e6)

	// One simulated hour later the zombie still undercuts the awake servers.
	f.AdvanceClock(3600 * 1e9)
	fmt.Printf("fleet energy after 1h: %.0f J across %d racks\n", f.TotalEnergyJoules(), f.Racks())

	// Output:
	// fleet racks: [rack-00 rack-01]
	// rack-00 free remote: 0.0 GiB, rack-01 free remote: 15.0 GiB
	// VM hungry on rack-00/server-00: 15.0 GiB local + 13.0 GiB remote (13.0 GiB borrowed from rack-01)
	// ledger: rack-00 borrowed 13.0 GiB (208 buffers) from rack-01 for hungry
	// workload on rack-00: 32768 accesses, 1435 major faults
	// lender fabric: 1958 inter-rack ops, 7.6 MiB, 9.8 ms premium
	// fleet energy after 1h: 937742 J across 2 racks
}

// Example_online runs the autonomic control plane over the canonical diurnal
// trace's streaming arrival feed — admitting tasks as they arrive and
// re-planning consolidation every five minutes without knowing the future —
// under each bundled online policy (reactive threshold, hysteresis
// watermarks, predictive EWMA), and compares the costed savings against the
// offline dcsim oracle on the same trace: the regret of causal
// decision-making. Everything is seed-deterministic, so the whole report is
// pinned.
func Example_online() {
	// The canonical diurnal trace: 200 machines, 3000 tasks, one day, seed 42.
	tr, err := zombieland.GenerateTrace(false, 0, 0, 0, 0)
	if err != nil {
		panic(err)
	}

	// One config, three fresh online policies over the ZombieStack planner;
	// every run also replays the offline oracle for the regret comparison.
	cfg := zombieland.AutopilotConfig{
		Trace:      tr,
		Machine:    zombieland.HPProfile(),
		ServerSpec: zombieland.DefaultServerSpec(),
		TickSec:    300,
	}
	reports, err := zombieland.CompareOnlinePolicies(cfg, zombieland.OnlinePolicies(zombieland.ZombieStackPolicy()))
	if err != nil {
		panic(err)
	}
	printTrimmed(zombieland.RenderRegretComparison(reports))
	fmt.Println()
	for _, r := range reports {
		fmt.Printf("%s: %.2f%% online vs %.2f%% oracle -> %.2f points of regret (%d emergency wakes)\n",
			r.Policy, r.Online.SavingPercent, r.Oracle.SavingPercent, r.RegretPercent, r.Online.EmergencyWakes)
	}

	// Output:
	// Online policies vs the offline oracle
	// policy      planner      online-saving-%  oracle-saving-%  regret-pts  acpi-events  oracle-events  emergency-wakes
	// ----------  -----------  ---------------  ---------------  ----------  -----------  -------------  ---------------
	// reactive    zombiestack  40.09            43.46            3.37        1047         1062           10
	// hysteresis  zombiestack  40.34            43.46            3.12        819          1062           57
	// ewma        zombiestack  41.33            43.46            2.13        1151         1062           17
	//
	// reactive: 40.09% online vs 43.46% oracle -> 3.37 points of regret (10 emergency wakes)
	// hysteresis: 40.34% online vs 43.46% oracle -> 3.12 points of regret (57 emergency wakes)
	// ewma: 41.33% online vs 43.46% oracle -> 2.13 points of regret (17 emergency wakes)
}

// Example_chaos asks how much of Zombieland's consolidation saving survives
// an unreliable fleet. The paper's savings assume servers wake from Sz and
// resume serving remote memory on demand. This replays the online control
// plane under seeded fault schedules of rising severity — server crashes,
// failed wakes (stuck zombies), controller losses, degraded RDMA fabric,
// arrival bursts — and reports how much of the fault-free saving each
// scenario retains, alongside the oracle re-run under the identical
// schedule. The fault plans are pure functions of their seeds, so the whole
// resilience report is pinned bit for bit.
func Example_chaos() {
	// A half-scale diurnal trace keeps the walk-through quick: 100 machines,
	// 1200 tasks over 12 hours, seed 42.
	tr, err := zombieland.GenerateTrace(false, 100, 1200, 12*3600, 42)
	if err != nil {
		panic(err)
	}
	cfg := zombieland.AutopilotConfig{
		Trace:      tr,
		Machine:    zombieland.HPProfile(),
		ServerSpec: zombieland.DefaultServerSpec(),
		TickSec:    600,
	}

	// The severity axis: no faults, a handful, sustained failures. Same
	// fault seed everywhere, so scenarios differ only in what they inject.
	var plans []*zombieland.ChaosPlan
	for _, name := range zombieland.ChaosScenarioNames() {
		plan, err := zombieland.ChaosScenario(name, tr.HorizonSec, tr.Machines, 7)
		if err != nil {
			panic(err)
		}
		plans = append(plans, plan)
	}
	cfg.Policy = zombieland.OnlinePolicies(zombieland.ZombieStackPolicy())[1] // hysteresis
	reports, err := zombieland.CompareChaosScenarios(cfg, plans)
	if err != nil {
		panic(err)
	}
	printTrimmed(zombieland.RenderChaosComparison(reports))
	fmt.Println()
	heavy := reports[len(reports)-1]
	fmt.Printf("under %q: %d crashes, %d stuck zombies, %d controller fail-overs, %.1f GiB re-homed\n",
		heavy.Scenario, heavy.ServerCrashes, heavy.StuckZombies, heavy.ControllerFailovers, heavy.ReHomedGiB)
	fmt.Printf("saving retained: %.2f%% of fault-free (%.2f%% -> %.2f%%), resilience regret %.2f points\n",
		heavy.SavingsRetainedPercent, heavy.FaultFreeSavingPercent, heavy.SavingPercent, heavy.ResilienceRegretPercent)

	// Output:
	// Chaos scenarios — savings retained under faults
	// scenario  policy      saving-%  retained-%  oracle-faulted-%  slo-viol  wasted-acpi  rehomed-gib  crashes  stuck  failovers
	// --------  ----------  --------  ----------  ----------------  --------  -----------  -----------  -------  -----  ---------
	// off       hysteresis  45.52     100         47.41             0         0            0            0        0      0
	// light     hysteresis  45.25     99.42       47.23             0         1            15.87        2        1      1
	// heavy     hysteresis  44.32     97.36       46.40             0         10           63.45        12       10     3
	//
	// under "heavy": 12 crashes, 10 stuck zombies, 3 controller fail-overs, 63.4 GiB re-homed
	// saving retained: 97.36% of fault-free (45.52% -> 44.32%), resilience regret 2.09 points
}

func gib(b int64) float64 { return float64(b) / float64(1<<30) }

// printTrimmed prints the text with the trailing whitespace of every line and
// any trailing blank lines removed (example output cannot express runs of
// blank lines — go/doc collapses them).
func printTrimmed(s string) {
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
}

func relGain(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a - b) / b * 100
}

// Example_memplane places a memory-hungry VM whose pages half-live on servers
// suspended in Sz, then pushes real bytes through its remote-memory data
// plane — fill the address space to expose the local/remote split, replay a
// workload as actual page reads and writes (the DataBytes mode), round-trip
// a message through a zombie's granted buffer, and finally crash the serving
// zombie, re-home its live pages and read the bytes back intact.
func Example_memplane() {
	// One rack, three servers: the first hosts the VM, the other two suspend
	// into Sz and lend their DRAM to the rack pool.
	f, err := zombieland.NewFleet(zombieland.FleetConfig{
		Racks:   1,
		Rack:    zombieland.RackConfig{Servers: 3},
		Workers: 2,
	})
	if err != nil {
		panic(err)
	}
	for _, server := range []string{"rack-00/server-01", "rack-00/server-02"} {
		if err := f.PushToZombie(0, server); err != nil {
			panic(err)
		}
	}

	// The VM reserves more than its host can serve locally, so the placement
	// splits it: part local, part in buffers granted from the zombies.
	placements, err := f.PlaceVMs(
		[]zombieland.VM{zombieland.NewVM("vm", 28<<30, 24<<30)},
		zombieland.CreateVMOptions{})
	if err != nil {
		panic(err)
	}
	if placements[0].Err != "" {
		panic(placements[0].Err)
	}

	// The data plane is sized from the placement: pages up to the local
	// fraction live in the host's arena, the rest overflow into the buffers
	// the placement granted on the Sz servers. Filling the whole address
	// space makes the split visible.
	p, err := f.MemplaneOf("vm")
	if err != nil {
		panic(err)
	}
	page := make([]byte, p.PageSize())
	for addr := int64(0); addr < 16<<20; addr += p.PageSize() {
		for i := range page {
			page[i] = byte(addr >> 12)
		}
		if _, _, err := p.Write(addr, page); err != nil {
			panic(err)
		}
	}
	as := p.AllocStats()
	fmt.Printf("plane: %d local frames + %d remote frames in %d granted buffers\n",
		as.LocalFrames, as.RemoteFrames, as.BuffersGranted)

	// DataBytes switches a workload replay from the paging simulation to the
	// data plane: the access stream runs as real page-sized reads and writes.
	results := f.RunWorkloads([]zombieland.FleetWorkloadRequest{
		{VM: "vm", Kind: zombieland.MicroBench, Iterations: 1, Seed: 7, DataBytes: 16 << 20},
	})
	if results[0].Err != "" {
		panic(results[0].Err)
	}
	data := results[0].Data
	fmt.Printf("replay: %d page ops, %d remote, %.1f MiB across the fabric\n",
		data.LocalOps+data.RemoteOps, data.RemoteOps,
		float64(data.RemoteBytesRead+data.RemoteBytesWritten)/(1<<20))

	// A direct round-trip: the write overflows the local arena, so the bytes
	// land in (and come back out of) a granted buffer on an Sz server.
	msg := []byte("zombie memory serves bytes")
	addr := int64(15) << 20
	if _, _, err := p.Write(addr, msg); err != nil {
		panic(err)
	}
	got := make([]byte, len(msg))
	if _, _, err := p.Read(addr, got); err != nil {
		panic(err)
	}
	fmt.Printf("round-trip: %q\n", got)

	// Crash the serving zombie: traffic times out for real until the live
	// pages are re-homed onto the healthy hosts.
	if err := f.CrashServer(0, "rack-00/server-01"); err != nil {
		panic(err)
	}
	rep, err := f.RehomeServerMemory(0, "rack-00/server-01")
	if err != nil {
		panic(err)
	}
	fmt.Printf("re-homed: %d pages, %.1f MiB\n", rep.Pages, float64(rep.Bytes)/(1<<20))
	if _, _, err := p.Read(addr, got); err != nil {
		panic(err)
	}
	fmt.Printf("after crash: %q\n", got)

	// Output:
	// plane: 2194 local frames + 1902 remote frames in 1 granted buffers
	// replay: 20480 page ops, 2045 remote, 8.0 MiB across the fabric
	// round-trip: "zombie memory serves bytes"
	// re-homed: 1902 pages, 7.4 MiB
	// after crash: "zombie memory serves bytes"
}

// Example_gateway runs the control plane as an HTTP gateway on loopback and
// drives one session's full lifecycle with plain requests — create a rack
// fleet with a zombie lending its DRAM, place a VM whose reservation splits
// local/remote, replay a workload, stream an autopilot run's tick telemetry
// as NDJSON, read the consolidated report and tear the fleet down.
// cmd/fleetd serves the same gateway as a standalone daemon.
func Example_gateway() {
	// The gateway behind a loopback listener — the same handler stack that
	// cmd/fleetd serves, bearer auth included.
	srv := zombieland.NewGateway(zombieland.GatewayConfig{Token: "demo"})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	do := func(method, path, body string) (int, []byte) {
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			panic(err)
		}
		req.Header.Set("Authorization", "Bearer demo")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			panic(err)
		}
		return resp.StatusCode, b
	}

	// One rack of three small servers; the tail server suspends into Sz and
	// lends its DRAM to the rack pool.
	var created struct {
		ID        string  `json:"id"`
		Zombies   int     `json:"zombies"`
		RemoteGiB float64 `json:"remote_gib"`
	}
	status, body := do(http.MethodPost, "/v1/fleets",
		`{"racks":1,"servers":3,"mem_gib":2,"workers":1,"zombies_per_rack":1}`)
	if err := json.Unmarshal(body, &created); err != nil {
		panic(err)
	}
	fmt.Printf("create (%d): fleet %s, %d zombie lending %.2f GiB\n",
		status, created.ID, created.Zombies, created.RemoteGiB)

	// A 1.25 GiB reservation against a host with 1 GiB free: the placement
	// splits, and the overflow lives in the zombie's granted buffers.
	var placed struct {
		Placed     int `json:"placed"`
		Placements []struct {
			VM        string  `json:"vm"`
			Host      string  `json:"host"`
			LocalGiB  float64 `json:"local_gib"`
			RemoteGiB float64 `json:"remote_gib"`
		} `json:"placements"`
	}
	status, body = do(http.MethodPost, "/v1/fleets/"+created.ID+"/vms",
		`{"count":1,"gib":1.25,"vcpus":1}`)
	if err := json.Unmarshal(body, &placed); err != nil {
		panic(err)
	}
	p := placed.Placements[0]
	fmt.Printf("place (%d): %s on %s, %.2f GiB local + %.2f GiB remote\n",
		status, p.VM, p.Host, p.LocalGiB, p.RemoteGiB)

	// Replay a workload through the RAM Ext paging path.
	var ran struct {
		Results []struct {
			Kind        string `json:"kind"`
			Accesses    uint64 `json:"accesses"`
			MajorFaults uint64 `json:"major_faults"`
		} `json:"results"`
	}
	status, body = do(http.MethodPost, "/v1/fleets/"+created.ID+"/workloads",
		fmt.Sprintf(`{"items":[{"vm":%q,"kind":"micro-benchmark","iterations":1,"seed":7}]}`, p.VM))
	if err := json.Unmarshal(body, &ran); err != nil {
		panic(err)
	}
	fmt.Printf("workload (%d): %s, %d accesses, %d major faults\n",
		status, ran.Results[0].Kind, ran.Results[0].Accesses, ran.Results[0].MajorFaults)

	// Start an autopilot run and follow its tick telemetry as NDJSON: the
	// buffered events replay first, then one terminal "done" line with the
	// regret vs the offline oracle.
	status, _ = do(http.MethodPost, "/v1/fleets/"+created.ID+"/autopilot",
		`{"machines":10,"tasks":60,"hours":1,"seed":7,"tick_sec":600}`)
	fmt.Printf("autopilot (%d): started\n", status)

	req, err := http.NewRequest(http.MethodGet, base+"/v1/fleets/"+created.ID+"/autopilot/events", nil)
	if err != nil {
		panic(err)
	}
	req.Header.Set("Authorization", "Bearer demo")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		panic(err)
	}
	ticks := 0
	var done struct {
		Policy        string  `json:"policy"`
		RegretPercent float64 `json:"regret_percent"`
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			panic(err)
		}
		if line.Type == "done" {
			if err := json.Unmarshal(sc.Bytes(), &done); err != nil {
				panic(err)
			}
			break
		}
		ticks++
	}
	resp.Body.Close()
	fmt.Printf("events: %d ticks, then done — %s regret %.2f%% vs the oracle\n",
		ticks, done.Policy, done.RegretPercent)

	// The consolidated report: live fleet state plus the run's outcome.
	var report struct {
		Fleet struct {
			VMs       int     `json:"vms"`
			RemoteGiB float64 `json:"remote_gib"`
		} `json:"fleet"`
		Autopilot struct {
			Running bool `json:"running"`
			Ticks   int  `json:"ticks"`
		} `json:"autopilot"`
	}
	status, body = do(http.MethodGet, "/v1/fleets/"+created.ID+"/report", "")
	if err := json.Unmarshal(body, &report); err != nil {
		panic(err)
	}
	fmt.Printf("report (%d): %d VM, %.2f GiB remote still free, autopilot running=%v over %d ticks\n",
		status, report.Fleet.VMs, report.Fleet.RemoteGiB, report.Autopilot.Running, report.Autopilot.Ticks)

	status, _ = do(http.MethodDelete, "/v1/fleets/"+created.ID, "")
	fmt.Printf("delete (%d): session retired\n", status)

	// Output:
	// create (201): fleet f-1, 1 zombie lending 1.00 GiB
	// place (200): f-1-vm-0 on rack-00/server-00, 1.00 GiB local + 0.25 GiB remote
	// workload (200): micro-benchmark, 16384 accesses, 0 major faults
	// autopilot (202): started
	// events: 5 ticks, then done — hysteresis regret 4.32% vs the oracle
	// report (200): 1 VM, 0.75 GiB remote still free, autopilot running=false over 5 ticks
	// delete (204): session retired
}

// Example_scenarios walks the scenario engine: workload families, the
// streaming trace importer and the policy×scenario matrix. The paper
// evaluates on two Google-like traces; this makes workload shape an axis
// instead. A seeded family generates a flash-crowd scenario, two families
// compose into one mixed workload with disjoint ID namespaces, the trace
// round-trips through the record-at-a-time gzip importer (the path that lets
// traces bigger than RAM replay), and a small policy×scenario matrix replays
// two scenario packs under two online policies with chaos injected.
func Example_scenarios() {
	params := zombieland.FamilyParams{
		Machines: 20, HorizonSec: 2 * 3600, Tasks: 200, Seed: 42,
	}

	// A workload family is a seeded generator: same params, same trace.
	tr, err := zombieland.GenerateFamily("flashcrowd", params)
	if err != nil {
		panic(err)
	}
	fmt.Printf("flashcrowd: %d tasks on %d machines over %dh\n",
		len(tr.Tasks), tr.Machines, tr.HorizonSec/3600)

	// Compose splits the task budget across families and renumbers task and
	// job IDs into disjoint ranges — a composite replays like a native trace.
	fams := zombieland.WorkloadFamilies()
	mixed, err := zombieland.ComposeFamilies("web-batch", fams[0], fams[3]).Generate(params)
	if err != nil {
		panic(err)
	}
	fmt.Printf("compose(%s, %s): %d tasks, IDs dense in 0..%d\n",
		fams[0].Name(), fams[3].Name(), len(mixed.Tasks), len(mixed.Tasks)-1)

	// The importer streams .csv/.csv.gz record at a time (gzip is sniffed
	// from the magic bytes) and derives the fleet size and horizon from the
	// workload itself.
	var buf bytes.Buffer
	if err := tr.EncodeCSV(&buf, true); err != nil {
		panic(err)
	}
	imported, err := zombieland.ImportTrace(&buf, zombieland.TraceImportOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("imported: %d tasks, derived fleet of %d machines\n",
		len(imported.Tasks), imported.Machines)

	// The policy×scenario matrix replays every pack under every online
	// policy with chaos injected; the result is bit-identical across runs
	// and worker counts.
	packs, err := zombieland.ScenarioFamilyPacks(zombieland.FamilyParams{
		Machines: 20, HorizonSec: 2 * 3600, Tasks: 120, Seed: 42,
	})
	if err != nil {
		panic(err)
	}
	m, err := zombieland.RunScenarioMatrix(zombieland.ScenarioMatrixConfig{
		Packs:     packs[:2], // diurnal and flashcrowd
		Policies:  []string{"reactive", "ewma"},
		ChaosSeed: 42,
		Workers:   2,
	})
	if err != nil {
		panic(err)
	}
	for _, c := range m.Cells {
		fmt.Printf("%s/%s: oracle %.1f%%, online %.1f%%, retained %.1f%%\n",
			c.Scenario, c.Policy, c.Report.OracleSavingPercent,
			c.Report.FaultFreeSavingPercent, c.Report.SavingsRetainedPercent)
	}

	// Output:
	// flashcrowd: 200 tasks on 20 machines over 2h
	// compose(diurnal, mlbatch): 200 tasks, IDs dense in 0..199
	// imported: 200 tasks, derived fleet of 10 machines
	// diurnal/reactive: oracle 47.7%, online 44.4%, retained 98.5%
	// diurnal/ewma: oracle 47.7%, online 43.8%, retained 98.5%
	// flashcrowd/reactive: oracle 60.7%, online 56.4%, retained 98.6%
	// flashcrowd/ewma: oracle 60.7%, online 56.1%, retained 98.8%
}

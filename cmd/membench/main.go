// Command membench drives real byte traffic through the remote-memory data
// plane and reports throughput and latency percentiles: a miniature rack is
// wired up (fabric, global controller, agents), the requested servers are
// pushed into Sz so their DRAM serves one-sided verbs, and a seeded random
// mix of reads and writes runs through a memplane whose overflow frames live
// in the zombies' granted buffers. All latency is simulated (charged from the
// fabric's cost model), so two runs with the same flags print the same
// numbers.
//
// Usage:
//
//	membench                                # 3 servers, 2 zombies, in-process verbs
//	membench -ops 100000 -block 16384       # bigger blocks
//	membench -transport tcp                 # serve the verbs over loopback TCP
//	membench -transport ledger              # cost arithmetic only, no bytes
//	membench -chaos                         # degrade the fabric mid-run
//	membench -obs                           # append the obs dump: metrics
//	                                        #   snapshot + NDJSON event trace
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"

	"repro/internal/chaos"
	"repro/internal/memctl"
	"repro/internal/memplane"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rdma"
)

type benchConfig struct {
	servers   int
	zombies   int
	memMiB    int
	localMiB  int
	spanMiB   int
	ops       int
	block     int
	writeFrac float64
	seed      int64
	transport string
	chaosOn   bool
	obsOn     bool
}

func main() {
	var cfg benchConfig
	flag.IntVar(&cfg.servers, "servers", 3, "servers in the rack (the first hosts the VM)")
	flag.IntVar(&cfg.zombies, "zombies", 2, "servers pushed into Sz to lend their memory")
	flag.IntVar(&cfg.memMiB, "mem-mib", 64, "memory per server in MiB")
	flag.IntVar(&cfg.localMiB, "local-mib", 1, "the plane's local arena in MiB")
	flag.IntVar(&cfg.spanMiB, "span-mib", 8, "address span the traffic covers in MiB")
	flag.IntVar(&cfg.ops, "ops", 20000, "operations to run")
	flag.IntVar(&cfg.block, "block", 4096, "bytes per operation")
	flag.Float64Var(&cfg.writeFrac, "write-frac", 0.6, "fraction of operations that write")
	flag.Int64Var(&cfg.seed, "seed", 1, "PRNG seed for the address/op stream")
	flag.StringVar(&cfg.transport, "transport", "inproc", "remote path: inproc (live RDMA verbs), tcp (loopback TCP server), ledger (cost arithmetic only)")
	flag.BoolVar(&cfg.chaosOn, "chaos", false, "degrade the fabric 2.5x for the middle third of the run")
	flag.BoolVar(&cfg.obsOn, "obs", false, "attach the observability layer and append its dump: metrics snapshot + deterministic NDJSON event trace")
	flag.Parse()

	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "membench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, cfg benchConfig) error {
	if cfg.zombies >= cfg.servers {
		return fmt.Errorf("need at least one non-zombie server (%d servers, %d zombies)", cfg.servers, cfg.zombies)
	}
	if cfg.block <= 0 || cfg.ops <= 0 {
		return fmt.Errorf("block and ops must be positive")
	}
	span := int64(cfg.spanMiB) << 20
	if int64(cfg.block) > span {
		return fmt.Errorf("block %d exceeds the %d MiB span", cfg.block, cfg.spanMiB)
	}

	// The miniature rack: a fabric, a controller, one agent per server. The
	// first server hosts the VM and keeps its memory reserved; the zombies
	// delegate theirs and suspend with the device path serving.
	fabric := rdma.NewFabric(rdma.DefaultCostModel())
	ctr := memctl.NewGlobalController()
	devices := make(map[string]*rdma.Device)
	resolve := func(id memctl.ServerID) *rdma.Device { return devices[string(id)] }
	var user *memctl.Agent
	for i := 0; i < cfg.servers; i++ {
		name := fmt.Sprintf("server-%02d", i)
		dev, err := fabric.AttachDevice(name)
		if err != nil {
			return err
		}
		devices[name] = dev
		reserved := int64(0)
		if i == 0 {
			reserved = int64(cfg.memMiB) << 20
		}
		agent, err := memctl.NewAgent(memctl.AgentConfig{
			ID:            memctl.ServerID(name),
			Controller:    ctr,
			Device:        dev,
			TotalMem:      int64(cfg.memMiB) << 20,
			ReservedMem:   reserved,
			ResolveDevice: resolve,
		})
		if err != nil {
			return err
		}
		if i == 0 {
			user = agent
		} else if i <= cfg.zombies {
			if _, err := agent.DelegateAndGoZombie(); err != nil {
				return err
			}
			dev.SetUp(false)
			dev.SetServing(true)
		}
	}

	// The simulation clock ticks once per operation; the chaos plan degrades
	// the middle third of the run.
	var now int64
	var plan *chaos.Plan
	if cfg.chaosOn {
		plan = &chaos.Plan{Faults: []chaos.Fault{{
			Kind:        chaos.FabricDegrade,
			AtSec:       int64(cfg.ops / 3),
			DurationSec: int64(cfg.ops / 3),
			Factor:      2.5,
		}}}
	}

	// The plane stamps every event with its cumulative charged-ns clock, so
	// the -obs dump is byte-identical run to run — and across transports,
	// since the charges are: the obs transport-invariance test leans on that.
	var o *obs.Obs
	if cfg.obsOn {
		o = obs.New(obs.Options{TraceCapacity: 4096})
	}

	pcfg := memplane.Config{
		VM:              "bench",
		LocalBytes:      int64(cfg.localMiB) << 20,
		AddressBytes:    span,
		Agent:           user,
		Chaos:           plan,
		Now:             func() int64 { return now },
		RecordLatencies: true,
		Obs:             o,
	}
	var cleanup func()
	switch cfg.transport {
	case "inproc":
	case "ledger":
		pcfg.Transport = memplane.LedgerTransport{Model: fabric.Model()}
	case "tcp":
		// A TCP transport addresses buffers by ID on a remote endpoint, so the
		// plane is seeded with every buffer it will ever need up front and the
		// server exports them.
		bufs, err := user.RequestExt(span)
		if err != nil {
			return err
		}
		srv, err := memplane.NewTCPServer()
		if err != nil {
			return err
		}
		srv.Register(bufs...)
		tr, err := memplane.DialTCP(srv.Addr())
		if err != nil {
			srv.Close()
			return err
		}
		pcfg.Agent = nil
		pcfg.Buffers = bufs
		pcfg.Transport = tr
		cleanup = func() {
			_ = tr.Close()
			_ = srv.Close()
		}
	default:
		return fmt.Errorf("unknown transport %q (inproc, tcp or ledger)", cfg.transport)
	}
	p, err := memplane.New(pcfg)
	if err != nil {
		return err
	}
	defer func() {
		_ = p.Close()
		if cleanup != nil {
			cleanup()
		}
	}()

	// The op stream: seeded addresses across the span, writes carrying a
	// deterministic pattern mirrored into a shadow copy for the final
	// verification sweep.
	rng := rand.New(rand.NewSource(cfg.seed))
	shadow := make([]byte, span)
	buf := make([]byte, cfg.block)
	for i := 0; i < cfg.ops; i++ {
		now = int64(i)
		addr := rng.Int63n(span - int64(cfg.block) + 1)
		if rng.Float64() < cfg.writeFrac {
			for j := range buf {
				buf[j] = byte(addr>>4) + byte(j)*7 + byte(i)
			}
			if _, _, err := p.Write(addr, buf); err != nil {
				return fmt.Errorf("write op %d: %w", i, err)
			}
			copy(shadow[addr:], buf)
		} else {
			if _, _, err := p.Read(addr, buf); err != nil {
				return fmt.Errorf("read op %d: %w", i, err)
			}
		}
	}

	// Snapshot the counters before the verification sweep so the report
	// reflects the benchmark traffic alone.
	st := p.Stats()
	as := p.AllocStats()
	lat := p.Latencies()

	// The obs dump is rendered here too, so it reflects the benchmark
	// traffic alone — the verification sweep below also runs through the
	// plane and would otherwise land in the counters and the trace.
	var obsDump bytes.Buffer
	if o != nil {
		if err := o.Dump(&obsDump); err != nil {
			return err
		}
	}

	// Verification: the whole span reads back exactly the shadow copy.
	verified := "ok"
	check := make([]byte, 64<<10)
	for off := int64(0); off < span; off += int64(len(check)) {
		n := int64(len(check))
		if off+n > span {
			n = span - off
		}
		if _, _, err := p.Read(off, check[:n]); err != nil {
			return fmt.Errorf("verify read at %d: %w", off, err)
		}
		for j := int64(0); j < n; j++ {
			if check[j] != shadow[off+j] {
				verified = fmt.Sprintf("MISMATCH at %d", off+j)
				off = span
				break
			}
		}
	}

	report(w, cfg, st, as, lat, verified)
	if o != nil {
		fmt.Fprintln(w)
		if _, err := w.Write(obsDump.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// report prints the run summary. Every number derives from the simulated
// charges, so the output is stable across machines.
func report(w io.Writer, cfg benchConfig, st memplane.Stats, as memplane.AllocStats, lat []int64, verified string) {
	fmt.Fprintf(w, "membench: %d servers (%d zombies), %s transport, %d ops x %d B, %.0f%% writes, seed %d\n",
		cfg.servers, cfg.zombies, cfg.transport, cfg.ops, cfg.block, cfg.writeFrac*100, cfg.seed)
	fmt.Fprintf(w, "plane: %d MiB local arena over a %d MiB span, chaos %v\n\n", cfg.localMiB, cfg.spanMiB, cfg.chaosOn)

	totalBytes := st.BytesRead + st.BytesWritten
	secs := float64(st.ChargedNs) / 1e9
	mbs := 0.0
	if secs > 0 {
		mbs = float64(totalBytes) / (1 << 20) / secs
	}
	fmt.Fprintf(w, "traffic   %d reads, %d writes, %.1f MiB moved\n", st.Reads, st.Writes, float64(totalBytes)/(1<<20))
	fmt.Fprintf(w, "paths     %d local page ops, %d remote page ops, %.1f MiB across the fabric\n",
		st.LocalOps, st.RemoteOps, float64(st.RemoteBytesRead+st.RemoteBytesWritten)/(1<<20))
	fmt.Fprintf(w, "frames    %d local, %d remote in %d granted buffers (%d grant calls)\n",
		as.LocalFrames, as.RemoteFrames, as.BuffersGranted, as.GrantCalls)
	fmt.Fprintf(w, "simtime   %.3f s charged -> %.1f MiB/s\n", secs, mbs)
	fmt.Fprintf(w, "latency   p50 %d ns, p99 %d ns, max %d ns per op\n", percentile(lat, 50), percentile(lat, 99), percentile(lat, 100))
	if st.Timeouts > 0 || st.ShortReads > 0 {
		fmt.Fprintf(w, "faults    %d timeouts, %d short reads\n", st.Timeouts, st.ShortReads)
	}
	fmt.Fprintf(w, "verify    read-back %s\n", verified)
}

// percentile returns the q-th percentile of the charge series (q=100 is the
// max); 0 when nothing was recorded. The rank selection is the shared
// nearest-rank helper, so membench and fleetload quote the same convention.
func percentile(lat []int64, q int) int64 {
	s := append([]int64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return metrics.NearestRank(s, q)
}

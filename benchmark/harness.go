package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// env is what a workload's set-up sees: the seed every generator derives
// from, the size multiplier, the client budget and, in the traced run only,
// the span recorder its wrappers write to.
type env struct {
	seed    int64
	scale   float64
	clients int // nproc: the most client goroutines/connections a workload may use
	tr      *tracer
}

// scaled multiplies a size by -scale, never below min.
func (e *env) scaled(n, min int) int {
	v := int(float64(n) * e.scale)
	if v < min {
		return min
	}
	return v
}

// instance is one set-up workload, ready to serve ops.
type instance interface {
	// clients is how many closed-loop client goroutines drive the window.
	clients() int
	// classes names the op classes op returns, for the per-class diagnostics.
	classes() []string
	// start is the index of each client's first op after warm-up: the window
	// continues the schedule where set-up left it.
	start() []int
	// op runs the i-th op of client c under the given span and returns its
	// class. An error counts the op as failed.
	op(c, i int, sp spanRef) (class int, err error)
	// gen runs only the load generator's share of op (c, i): picking the
	// schedule entry and building the request, without calling the system.
	gen(c, i int)
	// verify checks the outputs after the window. It returns how many checks
	// failed and diagnostics for the detail file.
	verify() (failed int, notes map[string]any, err error)
	// close releases everything set-up started.
	close()
}

// workloads lists the six workloads in the order of workloadDefs.
func workloads() []workloadSpec {
	specs := []workloadSpec{
		{setup: setupServeSteady, slices: 5, sampleEvery: 1},
		{setup: setupSessionChurn, slices: 5, sampleEvery: 1},
		{setup: setupOnlineReplay, slices: 1, sampleEvery: 1},
		{setup: setupOfflineCompare, slices: 1, sampleEvery: 1},
		{setup: setupScenarioMatrix, slices: 1, sampleEvery: 1},
		// A mem_transfer op is a few microseconds: spans on one op in eight
		// keep the traced run within a tenth of the untraced one.
		{setup: setupMemTransfer, slices: 5, sampleEvery: 8, allocOps: 2 * memSchedLen},
	}
	for i := range specs {
		specs[i].def = workloadDefs[i]
	}
	return specs
}

// workloadSpec builds instances of one workload.
type workloadSpec struct {
	def   workloadDef
	setup func(e *env) (instance, error)
	// slices cuts the untraced window into that many equal parts. The rate
	// metrics are the median over the parts, so one stall (a collection of a
	// multi-GiB heap, a noisy neighbour) does not decide the run. The pass
	// workloads run a handful of multi-second passes and keep one part.
	slices int
	// sampleEvery traces one op in that many (1 = every op); set where spans
	// on every op would cost more than a tenth of the op itself.
	sampleEvery int
	// allocOps, where set, makes the allocation deltas of a part cover exactly
	// its first allocOps ops instead of however many the part's seconds held.
	// It is for a single-client workload whose ops allocate sublinearly
	// (mem_transfer: nothing per op, only the completion queue's amortised
	// growth), where allocations per op would otherwise fall as the host gets
	// faster and repeat no better than the throughput does.
	allocOps int
}

// recycler is an instance that rebuilds the system under test between the
// parts of a window, outside the timed intervals.
type recycler interface {
	recycle() error
}

// sliceResult is what one part of a window measured.
type sliceResult struct {
	ops      int
	elapsed  time.Duration
	cpu      time.Duration
	allocOps int // the ops mallocs and bytes cover: ops, or the spec's allocOps
	mallocs  uint64
	bytes    uint64
}

// windowResult is what one timed window measured.
type windowResult struct {
	ops     int
	failed  int
	elapsed time.Duration // summed over the parts
	parts   []sliceResult
	lat     []int64  // per-op latency, ns
	class   []uint8  // per-op class, parallel to lat
	perCli  []int    // ops run by each client
	errs    []string // first few op and recycle errors
}

// overParts returns the median over the window's parts of f.
func (r windowResult) overParts(f func(sliceResult) float64) float64 {
	vals := make([]float64, len(r.parts))
	for i, p := range r.parts {
		vals[i] = f(p)
	}
	return medianF(vals)
}

// cpuTime returns user+system CPU time of this process so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runWindow drives every client in a closed loop for `seconds`, cut into
// `parts` equal parts, and measures wall, CPU and allocation deltas around each
// part. base[c] is the index of client c's first op; successive parts
// continue the same schedule. expect sizes the latency buffers so that they
// do not grow (and allocate) inside the window. The window starts from a
// collected, scavenged heap: what earlier set-ups left behind is neither
// reused for free nor collected on the window's time. With allocOps > 0 (one
// client only) every part runs at least that many ops and its allocation
// deltas end after exactly that many.
func runWindow(inst instance, seconds float64, parts int, base []int, expect int, tr *tracer, sampleEvery, allocOps int) windowResult {
	n := inst.clients()
	if n != 1 {
		allocOps = 0
	}
	minOps := max(allocOps, 1)
	type cliOut struct {
		lat    []int64
		class  []uint8
		failed int
		errs   []string
	}
	outs := make([]cliOut, n)
	for c := range outs {
		outs[c].lat = make([]int64, 0, expect/n+1024)
		outs[c].class = make([]uint8, 0, expect/n+1024)
	}
	next := slices.Clone(base)
	var res windowResult
	debug.FreeOSMemory()
	for part := 0; part < parts; part++ {
		if part > 0 {
			if r, ok := inst.(recycler); ok {
				if err := r.recycle(); err != nil {
					res.failed++
					res.errs = append(res.errs, "recycle: "+err.Error())
				}
			}
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		start := time.Now()
		deadline := start.Add(time.Duration(seconds / float64(parts) * float64(time.Second)))

		var wg sync.WaitGroup
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				o := &outs[c]
				t0 := time.Now()
				first := next[c]
				for i := first; ; i++ {
					// The client takes both snapshots itself, so that starting
					// it (a new g, or a reused one) is not in the count.
					if allocOps > 0 {
						switch i - first {
						case 0:
							runtime.ReadMemStats(&ms0)
						case allocOps:
							runtime.ReadMemStats(&ms1)
						}
					}
					// At least one op per client and part, then until the
					// deadline: a pass longer than the window still counts.
					if i-first >= minOps && !t0.Before(deadline) {
						next[c] = i
						break
					}
					sp := noSpan
					if tr != nil && i%sampleEvery == 0 {
						sp = tr.root(int32(c)<<24|int32(i&0xffffff), layerHarness, "op")
					}
					class, err := inst.op(c, i, sp)
					tr.end(sp)
					t1 := time.Now()
					o.lat = append(o.lat, int64(t1.Sub(t0)))
					o.class = append(o.class, uint8(class))
					if err != nil {
						o.failed++
						if len(o.errs) < 3 {
							o.errs = append(o.errs, err.Error())
						}
					}
					t0 = t1
				}
			}(c)
		}
		wg.Wait()
		p := sliceResult{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
		if allocOps == 0 {
			runtime.ReadMemStats(&ms1)
		}
		p.mallocs, p.bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
		total := 0
		for c := range next {
			total += next[c] - base[c]
		}
		p.ops, res.ops = total-res.ops, total
		p.allocOps = p.ops
		if allocOps > 0 {
			p.allocOps = allocOps
		}
		res.elapsed += p.elapsed
		res.parts = append(res.parts, p)
	}
	for c := range outs {
		res.perCli = append(res.perCli, len(outs[c].lat))
		res.failed += outs[c].failed
		res.lat = append(res.lat, outs[c].lat...)
		res.class = append(res.class, outs[c].class...)
		res.errs = append(res.errs, outs[c].errs...)
	}
	return res
}

// genLoop times the generator-only share of the ops a window ran.
func genLoop(inst instance, base, perCli []int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for c := range perCli {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := base[c]; i < base[c]+perCli[c]; i++ {
				inst.gen(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// medianF returns the median of values (mean of the middle two when even).
func medianF(values []float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	return metrics.Percentile(s, 0.5)
}

// classStats is the per-class latency diagnostic.
type classStats struct {
	Class string  `json:"class"`
	Count int     `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// perClass breaks a window's latencies down by op class.
func perClass(res windowResult, names []string) []classStats {
	by := make([][]int64, len(names))
	for i, l := range res.lat {
		by[res.class[i]] = append(by[res.class[i]], l)
	}
	var out []classStats
	for k, l := range by {
		if len(l) == 0 {
			continue
		}
		slices.Sort(l)
		out = append(out, classStats{
			Class: names[k], Count: len(l),
			P50Ms: float64(metrics.NearestRank(l, 50)) / 1e6,
			P99Ms: float64(metrics.NearestRank(l, 99)) / 1e6,
			MaxMs: float64(l[len(l)-1]) / 1e6,
		})
	}
	return out
}

// procStatusKiB reads one "Vm*" line of /proc/self/status.
func procStatusKiB(key string) (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	return kibField(data, []byte(key+":"))
}

// kibField extracts n from "<key>   <n> kB" in a /proc status-style buffer.
// It allocates nothing, so the RSS guard can call it inside a window.
func kibField(data, key []byte) (int64, error) {
	i := bytes.Index(data, key)
	if i < 0 {
		return 0, fmt.Errorf("no %s line", key)
	}
	rest := bytes.TrimLeft(data[i+len(key):], " \t")
	var v int64
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		v = v*10 + int64(rest[n]-'0')
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("no number after %s", key)
	}
	return v, nil
}

// memAvailableKiB reads MemAvailable from /proc/meminfo.
func memAvailableKiB() (int64, error) {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0, err
	}
	return kibField(data, []byte("MemAvailable:"))
}

const (
	minAvailableKiB = 4 << 20 // refuse to start below 4 GiB MemAvailable
	rssLimitKiB     = 6 << 20 // a run is killed when its RSS passes 6 GiB
)

// preflight refuses to start on a host that cannot hold the workloads: every
// lent GiB of a session is real heap until the sparse store of ROADMAP item 1
// lands.
func preflight() error {
	avail, err := memAvailableKiB()
	if err != nil {
		return nil // not Linux procfs: nothing to check against
	}
	if avail < minAvailableKiB {
		return fmt.Errorf("only %d MiB MemAvailable, the benchmark needs %d MiB", avail>>10, minAvailableKiB>>10)
	}
	return nil
}

// startRSSGuard polls this process's resident set and exits with code 3 when
// it passes the limit, so a leak fails one run instead of the host. The
// returned function stops the guard and waits for it. A poll allocates
// nothing (one pread into a fixed buffer, parsed in place): the guard runs
// through every window and must not show in allocs_per_op.
func startRSSGuard(name string) (stop func()) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return func() {} // not Linux procfs: nothing to poll
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer f.Close()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		var buf [4096]byte
		key := []byte("VmRSS:")
		for {
			select {
			case <-done:
				return
			case <-t.C:
				n, _ := f.ReadAt(buf[:], 0)
				if rss, err := kibField(buf[:n], key); err == nil && rss > rssLimitKiB {
					fmt.Fprintf(os.Stderr, "benchmark: %s passed the %d MiB RSS limit (%d MiB); run failed\n", name, rssLimitKiB>>10, rss>>10)
					os.Exit(3)
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// releaseMemory collects a torn-down instance's garbage and hands its pages
// back to the OS, so every later set-up starts from the same state: a heap
// whose free spans must be zeroed and faulted in again. It first waits for
// the instance's goroutines (HTTP connection loops still unwinding after
// Shutdown) to exit: one that is still running keeps the whole gateway, and
// with it every session's lent DRAM, reachable through the collection, and
// the next set-up would then land on fresh address space instead.
func releaseMemory(baseGoroutines int) {
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
	debug.FreeOSMemory()
}

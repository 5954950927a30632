package dcsim

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/consolidation"
	"repro/internal/energy"
	"repro/internal/trace"
)

// seekCase decodes a byte string into a small trace and a consolidation
// period: byte 0 is the horizon (1..256 s), byte 1 the period (1..256 s, so
// it may exceed the horizon), then three bytes per task — start, duration
// and a spread that also scatters the IDs over one to four digits so the
// lexicographic VM-ID order differs from the numeric one.
func seekCase(data []byte) (*trace.Trace, int64) {
	if len(data) < 2 {
		data = []byte{0, 0}
	}
	horizon, period := int64(data[0])+1, int64(data[1])+1
	tr := &trace.Trace{Name: "seek", Machines: 4, HorizonSec: horizon}
	for i := 2; i+3 <= len(data) && len(tr.Tasks) < 64; i += 3 {
		start := int64(data[i]) % horizon
		end := start + 1 + int64(data[i+1])%(horizon-start)
		cpu := 1 + float64(data[i+2]%8)
		tr.Tasks = append(tr.Tasks, trace.Task{
			ID: len(tr.Tasks) + 1000*int(data[i+2]%3), StartSec: start, EndSec: end,
			BookedCPU: cpu, BookedMemGiB: 2 * cpu, UsedCPU: cpu / 2, UsedMemGiB: cpu,
		})
	}
	return tr, period
}

// checkSeek is the brute-force oracle: whatever epoch a replayer starts at,
// the population it yields for every later epoch must equal "filter the tasks
// overlapping the span, sort by VM-ID string", element for element, and fit
// the buffers sized from liveCounts.
func checkSeek(t *testing.T, tr *trace.Trace, periodSec int64) {
	t.Helper()
	idx, err := NewReplayIndex(tr)
	if err != nil {
		t.Fatal(err)
	}
	spans := epochSpans(tr.HorizonSec, periodSec)
	live := idx.liveCounts(periodSec, len(spans))
	want := make([][]consolidation.VMDemand, len(spans))
	for j, span := range spans {
		for _, task := range tr.Tasks {
			if task.StartSec < span.end && task.EndSec > span.start {
				want[j] = append(want[j], consolidation.VMDemand{
					ID: task.VMID(), BookedCPU: task.BookedCPU, BookedMemGiB: task.BookedMemGiB,
					UsedCPU: task.UsedCPU, UsedMemGiB: task.UsedMemGiB,
				})
			}
		}
		slices.SortFunc(want[j], func(a, b consolidation.VMDemand) int { return strings.Compare(a.ID, b.ID) })
		if live[j] != len(want[j]) {
			t.Fatalf("period %d: liveCounts says epoch %d holds %d VMs, brute force %d", periodSec, j, live[j], len(want[j]))
		}
	}
	peak := slices.Max(live)
	for k := range spans {
		rep := newReplayer(idx, live)
		for j := k; j < len(spans); j++ {
			if got := rep.population(spans[j]); !slices.Equal(got, want[j]) {
				t.Fatalf("period %d: seek to epoch %d, population of epoch %d\n got %v\nwant %v", periodSec, k, j, got, want[j])
			}
		}
		if cap(rep.batch) != peak {
			t.Fatalf("period %d: seek to epoch %d regrew the batch buffer sized for the peak of %d", periodSec, k, peak)
		}
	}
}

// TestReplayerSeekEqualsBruteForce runs the oracle over a seeded batch of
// random traces. Horizons, periods and task bounds all come from one byte, so
// shared starts and tasks ending or starting exactly on an epoch boundary are
// the common case, not the rare one.
func TestReplayerSeekEqualsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 300; i++ {
		data := make([]byte, 2+3*rng.Intn(65))
		rng.Read(data)
		tr, period := seekCase(data)
		checkSeek(t, tr, period)
	}
}

// FuzzReplayerSeek feeds checkSeek arbitrary cases. The corpus checked in
// under testdata/fuzz holds the hand-written ones: on a 120 s horizon with a
// 30 s period, tasks that share a start, end exactly on an epoch start
// (10..30, 59..60), start exactly on an epoch end (60..61) and span the whole
// horizon; the same tasks under a 200 s period, longer than the horizon; a
// one-second horizon; and one-second epochs.
func FuzzReplayerSeek(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, period := seekCase(data)
		checkSeek(t, tr, period)
	})
}

// TestRunRejectsDuplicateTaskIDs: two tasks with one ID would be two VMs with
// one task-%d identity in the sorted population. trace.Validate does not look
// for that (only the CSV reader does), so the index build must, naming the ID.
func TestRunRejectsDuplicateTaskIDs(t *testing.T) {
	tr := engineTestTrace(t)
	dup := *tr
	dup.Tasks = slices.Clone(tr.Tasks)
	dup.Tasks[len(dup.Tasks)-1].ID = dup.Tasks[3].ID
	if err := dup.Validate(); err != nil {
		t.Fatalf("trace.Validate already rejects the trace: %v", err)
	}
	want := "repeats task ID " + strings.TrimPrefix(dup.Tasks[3].VMID(), "task-")
	cfg := Config{Trace: &dup, Policy: consolidation.NewNeat(), Machine: energy.HPProfile(), ServerSpec: consolidation.DefaultServerSpec()}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run on a duplicate task ID: got error %v, want one containing %q", err, want)
	}
	if _, err := CompareOpts(&dup, energy.Profiles(), cfg.ServerSpec, CompareOptions{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("CompareOpts on a duplicate task ID: got error %v", err)
	}
	if _, err := Sweep(SweepConfig{Policies: consolidation.Contenders(), Machines: energy.Profiles(), Traces: []*trace.Trace{&dup}, PeriodsSec: []int64{300}}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Sweep on a duplicate task ID: got error %v", err)
	}
}

// TestCompareFormatsVMIDsOncePerTrace pins the sharing: a comparison is six
// runs in one walk of one trace. It allocates the index's few buffers and the
// walk's replayer once, plus a small constant per run — the VM IDs are one
// buffer, not one string per task, let alone one per task per run, and a
// replayer per run (four buffers each) does not fit the budget.
func TestCompareFormatsVMIDsOncePerTrace(t *testing.T) {
	tr := engineTestTrace(t)
	spec := consolidation.DefaultServerSpec()
	compare := func() {
		if _, err := CompareOpts(tr, energy.Profiles(), spec, CompareOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	compare()
	runs := len(energy.Profiles()) * len(consolidation.Contenders())
	got := countAllocs(compare)
	if budget := uint64(24 + 4*runs); got > budget {
		t.Fatalf("CompareOpts over %d tasks x %d runs costs %d allocs, budget %d", len(tr.Tasks), runs, got, budget)
	}
	t.Logf("CompareOpts: %d allocs for %d tasks x %d runs", got, len(tr.Tasks), runs)
}

// vmOrderCases are the IDs where the string order and the numeric order part
// ways, or where the key's arithmetic is at its limits: a proper prefix
// (12/120/1200), a digit-count boundary (9/10, 99/100), both ends of int64,
// '-' against the digits, and the longest IDs one apart.
var vmOrderCases = []int{
	0, 9, 10, 12, 120, 1200, 99, 100, math.MaxInt64, math.MinInt64, -1, -10, -12, -120,
	1e18 - 1, 1e18, 1e18 + 1, 1, 2, 19, 20, 123456789, 1234567890, math.MaxInt64 - 1, math.MinInt64 + 1,
}

// checkVMOrder asserts the integer order key agrees with the string order of
// the two VM IDs, in both directions, and that the prefix it is presorted by
// never contradicts it.
func checkVMOrder(t *testing.T, a, b int) {
	t.Helper()
	ida, idb := trace.Task{ID: a}.VMID(), trace.Task{ID: b}.VMID()
	ka, kb := vmOrderOf(a), vmOrderOf(b)
	want := strings.Compare(ida, idb)
	if got := ka.compare(kb); got != want {
		t.Fatalf("key order of %s against %s is %d, string order %d", ida, idb, got, want)
	}
	if got := kb.compare(ka); got != -want {
		t.Fatalf("key order of %s against %s is %d, string order %d", idb, ida, got, -want)
	}
	if byPrefix := cmp.Compare(ka.prefix(), kb.prefix()); byPrefix != 0 && byPrefix != want {
		t.Fatalf("prefix order of %s against %s is %d, string order %d", ida, idb, byPrefix, want)
	}
}

// TestVMOrderIsTheStringOrder runs every pair of the hand-picked IDs, then
// seeded random pairs drawn so that every digit count comes up.
func TestVMOrderIsTheStringOrder(t *testing.T) {
	for _, a := range vmOrderCases {
		for _, b := range vmOrderCases {
			checkVMOrder(t, a, b)
		}
	}
	rng := rand.New(rand.NewSource(17))
	draw := func() int { return int(rng.Int63()>>uint(rng.Intn(63))) * (1 - 2*rng.Intn(2)) }
	for i := 0; i < 20000; i++ {
		checkVMOrder(t, draw(), draw())
	}
}

// FuzzVMOrder feeds checkVMOrder arbitrary pairs; the corpus checked in under
// testdata/fuzz holds the pairs of vmOrderCases named in its comment.
func FuzzVMOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b int64) {
		checkVMOrder(t, int(a), int(b))
	})
}

// TestReplayIndexRanksAreTheStringOrder builds the index over IDs chosen to
// collide in the presort (shared prefixes) and checks ranks, lookups and the
// shared ID buffer against the formatted strings.
func TestReplayIndexRanksAreTheStringOrder(t *testing.T) {
	tr := &trace.Trace{Name: "ranks", Machines: 1, HorizonSec: 10}
	for i, id := range vmOrderCases {
		tr.Tasks = append(tr.Tasks, trace.Task{ID: id, StartSec: int64(i % 5), EndSec: 10, BookedCPU: 1, BookedMemGiB: float64(i + 1)})
	}
	idx, err := NewReplayIndex(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(tr.Tasks))
	for i, task := range tr.Tasks {
		want[i] = task.VMID()
	}
	slices.Sort(want)
	for i, task := range tr.Tasks {
		v := idx.Demand(idx.Rank(i))
		if v.ID != task.VMID() || v.BookedMemGiB != task.BookedMemGiB {
			t.Fatalf("task %d (%s): index holds %+v", i, task.VMID(), v)
		}
		if want[idx.Rank(i)] != v.ID {
			t.Fatalf("%s has rank %d, sorted strings put %s there", v.ID, idx.Rank(i), want[idx.Rank(i)])
		}
	}
}

package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func writeTestFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func TestImportRoundTrip(t *testing.T) {
	tr, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Import tie-breaks equal start times by ID; mirror that on the source
	// before comparing (Generate's own sort leaves ties in arbitrary order).
	want := make([]Task, len(tr.Tasks))
	copy(want, tr.Tasks)
	sort.Slice(want, func(i, j int) bool {
		if want[i].StartSec != want[j].StartSec {
			return want[i].StartSec < want[j].StartSec
		}
		return want[i].ID < want[j].ID
	})
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		if err := tr.EncodeCSV(&buf, compress); err != nil {
			t.Fatal(err)
		}
		got, err := Import(&buf, ImportOptions{
			Name: tr.Name, Machines: tr.Machines, HorizonSec: tr.HorizonSec,
		})
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if got.Machines != tr.Machines || got.HorizonSec != tr.HorizonSec || got.Name != tr.Name {
			t.Fatalf("compress=%v: metadata %d/%d/%q, want %d/%d/%q", compress,
				got.Machines, got.HorizonSec, got.Name, tr.Machines, tr.HorizonSec, tr.Name)
		}
		if len(got.Tasks) != len(want) {
			t.Fatalf("compress=%v: %d tasks, want %d", compress, len(got.Tasks), len(want))
		}
		for i := range got.Tasks {
			if got.Tasks[i] != want[i] {
				t.Fatalf("compress=%v: task %d = %+v, want %+v", compress, i, got.Tasks[i], want[i])
			}
		}
	}
}

// TestImportSortsOutOfOrderRows: rows arrive in whatever order the file lists
// them, and the trace comes back by (StartSec, ID) whether or not they were
// already in it.
func TestImportSortsOutOfOrderRows(t *testing.T) {
	rows := []string{
		"4,1,300,400,1,2,0.5,1",
		"9,1,100,200,1,2,0.5,1",
		"2,1,100,150,1,2,0.5,1",
		"7,1,0,50,1,2,0.5,1",
	}
	sorted := []string{rows[3], rows[2], rows[1], rows[0]}
	for _, in := range [][]string{rows, sorted} {
		tr, err := Import(strings.NewReader(strings.Join(in, "\n")+"\n"), ImportOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var ids []int
		for _, task := range tr.Tasks {
			ids = append(ids, task.ID)
		}
		if want := []int{7, 2, 9, 4}; !slices.Equal(ids, want) {
			t.Fatalf("imported task order %v, want %v", ids, want)
		}
	}
}

func TestImportDerivesFleetAndHorizon(t *testing.T) {
	// Three 4-core tasks overlap in [100, 200): peak booked CPU 12 needs two
	// 8-core servers; the horizon is the latest end.
	var buf bytes.Buffer
	src := &Trace{Name: "derive", Machines: 1, HorizonSec: 500}
	for i := 0; i < 3; i++ {
		src.Tasks = append(src.Tasks, Task{
			ID: i, JobID: 1, StartSec: int64(i * 50), EndSec: int64(200 + i*25),
			BookedCPU: 4, BookedMemGiB: 8, UsedCPU: 1, UsedMemGiB: 2,
		})
	}
	if err := src.EncodeCSV(&buf, false); err != nil {
		t.Fatal(err)
	}
	got, err := Import(&buf, ImportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Machines != 2 {
		t.Errorf("derived machines = %d, want 2 (peak 12 cores / 8 per server)", got.Machines)
	}
	if got.HorizonSec != 250 {
		t.Errorf("derived horizon = %d, want 250 (latest end)", got.HorizonSec)
	}
	if got.Name != "imported" {
		t.Errorf("default name = %q, want %q", got.Name, "imported")
	}
}

func TestImportClusterSchema(t *testing.T) {
	in := strings.Join([]string{
		"vm_id,tenant_id,created_sec,deleted_sec,core_count,memory_gb,avg_cpu_pct,avg_mem_pct",
		"7,1,0,3600,4,16,25,50",
		"8,2,100,7200,2,8,50,75",
	}, "\n")
	got, err := Import(strings.NewReader(in), ImportOptions{Schema: ClusterSchema()})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tasks) != 2 {
		t.Fatalf("%d tasks, want 2", len(got.Tasks))
	}
	first := got.Tasks[0]
	if first.ID != 7 || first.JobID != 1 || first.EndSec != 3600 {
		t.Errorf("task = %+v, want vm 7 of tenant 1 ending at 3600", first)
	}
	// Percent utilizations are relative to the VM's own size.
	if first.UsedCPU != 1 || first.UsedMemGiB != 8 {
		t.Errorf("used = %v cores / %v GiB, want 1 / 8 (25%% of 4, 50%% of 16)",
			first.UsedCPU, first.UsedMemGiB)
	}
	if got.HorizonSec != 7200 {
		t.Errorf("horizon = %d, want 7200", got.HorizonSec)
	}
}

func TestReadCSVRejectsInvalidTasks(t *testing.T) {
	// Regression: these rows used to be accepted wholesale; now each is
	// rejected with its 1-based physical row number (header is row 1).
	for _, tc := range []struct {
		name, row, want string
	}{
		{"end before start", "1,1,100,50,1,2,0.5,1", "row 2"},
		{"non-positive booking", "1,1,0,100,0,2,0,1", "row 2"},
		{"implausible usage", "1,1,0,100,1,2,9,1", "row 2"},
		{"non-finite demands", "1,1,0,10,NaN,Inf,NaN,NaN", "row 2"},
		{"infinite booking", "1,1,0,10,+Inf,2,0.5,1", "row 2"},
		// A ragged row after a good one is the schema's to reject, not the
		// csv reader's, which would not say "trace:" or the row it expected.
		{"short row mid-file", "1,1,0,10,1,2,0.5,1\n2,1,0,10,1,2,0.5", "trace: row 3 has 7 columns, want 8"},
	} {
		in := "id,job,start_sec,end_sec,booked_cpu,booked_mem_gib,used_cpu,used_mem_gib\n" + tc.row + "\n"
		_, err := decodeTasks(strings.NewReader(in), nil)
		if err == nil {
			t.Errorf("%s: invalid task accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not carry the row number %q", tc.name, err, tc.want)
		}
	}
}

func TestReadCSVRejectsDuplicateIDs(t *testing.T) {
	// Regression: two rows with the same ID produce colliding task-%d VMIDs
	// that silently merge distinct VMs in both planners; the error must name
	// both rows involved.
	in := strings.Join([]string{
		"id,job,start_sec,end_sec,booked_cpu,booked_mem_gib,used_cpu,used_mem_gib",
		"5,1,0,100,1,2,0.5,1",
		"6,1,0,100,1,2,0.5,1",
		"5,2,50,200,2,4,1,2",
	}, "\n")
	_, err := decodeTasks(strings.NewReader(in), nil)
	if err == nil {
		t.Fatal("duplicate task ID accepted")
	}
	for _, want := range []string{"row 4", "task ID 5", "row 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestImportErrors(t *testing.T) {
	if _, err := Import(strings.NewReader(""), ImportOptions{}); err == nil {
		t.Error("empty input should fail (no tasks)")
	}
	header := "id,job,start_sec,end_sec,booked_cpu,booked_mem_gib,used_cpu,used_mem_gib\n"
	if _, err := Import(strings.NewReader(header), ImportOptions{}); err == nil {
		t.Error("header-only input should fail (no tasks)")
	}
	_, err := Import(strings.NewReader(header+"1,1,0,100,1,2,0.5,1\n"), ImportOptions{HorizonSec: 50})
	if want := "trace: task 1 outside the horizon"; err == nil || err.Error() != want {
		t.Errorf("task beyond the forced horizon: error %v, want %q", err, want)
	}
	if _, err := Import(strings.NewReader("not,a,trace\nx,y,z\n"), ImportOptions{}); err == nil {
		t.Error("garbage input should fail")
	}
}

// TestSpecOpenFile: a file spec streams a .csv.gz trace from disk through
// Import, and a missing file fails.
func TestSpecOpenFile(t *testing.T) {
	tr, err := GenerateFamily("serverless", FamilyParams{Machines: 50, HorizonSec: 3600, Tasks: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv.gz")
	var buf bytes.Buffer
	if err := tr.EncodeCSV(&buf, true); err != nil {
		t.Fatal(err)
	}
	if err := writeTestFile(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	sp := Spec{File: path, Machines: 1, Tasks: 1, HorizonSec: 1}
	got, err := sp.Open()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tasks) != len(tr.Tasks) {
		t.Fatalf("%d tasks, want %d", len(got.Tasks), len(tr.Tasks))
	}
	sp.File = filepath.Join(t.TempDir(), "missing.csv")
	if _, err := sp.Open(); err == nil {
		t.Error("missing file should fail")
	}
}

// The 100k-task serverless fixture and its .csv.gz form are built once per
// test binary and shared read-only: every test that reads them used to build
// its own.
var (
	serverlessOnce, serverlessGzipOnce sync.Once
	serverlessTr                       *Trace
	serverlessGz                       []byte
	serverlessErr, serverlessGzipErr   error
)

// serverlessTrace is the 100k-task serverless trace, a replay at the scale
// real cluster traces need. Callers must not modify it.
func serverlessTrace(tb testing.TB) *Trace {
	tb.Helper()
	serverlessOnce.Do(func() {
		serverlessTr, serverlessErr = GenerateFamily("serverless", FamilyParams{
			Machines: 500, HorizonSec: 24 * 3600, Tasks: 100_000, Seed: 42,
		})
	})
	if serverlessErr != nil {
		tb.Fatal(serverlessErr)
	}
	return serverlessTr
}

// serverlessGzip returns serverlessTrace and its .csv.gz form.
func serverlessGzip(tb testing.TB) (*Trace, []byte) {
	tb.Helper()
	tr := serverlessTrace(tb)
	serverlessGzipOnce.Do(func() {
		var encoded bytes.Buffer
		serverlessGzipErr = tr.EncodeCSV(&encoded, true)
		serverlessGz = encoded.Bytes()
	})
	if serverlessGzipErr != nil {
		tb.Fatal(serverlessGzipErr)
	}
	return tr, serverlessGz
}

// goroutinesSettle reports whether the goroutine count falls back to base
// within a second.
func goroutinesSettle(base int) bool {
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestInflaterNeverOutlivesItsCall: gzip input is inflated on a goroutine of
// its own, and a decode that fails halfway must stop it too. The failures are
// a truncated member, a non-positive booking and a repeated ID, the last two
// at row 50 000 of a 100k-task trace; each keeps the error text the
// single-goroutine importer gave for the same bytes.
func TestInflaterNeverOutlivesItsCall(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-task import in -short mode")
	}
	tr := serverlessTrace(t)
	const row = 50_000 // the header is row 1, so task row-2 sits on it
	// BestSpeed keeps the three 10 MB encodes cheap; the decoder sees the
	// same kind of stream either way.
	encodeWith := func(edit func(*Task)) []byte {
		tasks := slices.Clone(tr.Tasks)
		edit(&tasks[row-2])
		var plain, zipped bytes.Buffer
		if err := (&Trace{Tasks: tasks}).EncodeCSV(&plain, false); err != nil {
			t.Fatal(err)
		}
		zw, err := gzip.NewWriterLevel(&zipped, gzip.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := zw.Write(plain.Bytes()); err != nil || zw.Close() != nil {
			t.Fatal("gzip:", err)
		}
		return zipped.Bytes()
	}
	good := encodeWith(func(*Task) {})
	cases := []struct {
		name string
		in   []byte
		want string // "" for success
	}{
		{"whole", good, ""},
		{"truncated member", good[:len(good)/2], "unexpected EOF"},
		{"non-positive booking", encodeWith(func(task *Task) { task.BookedCPU = 0 }),
			fmt.Sprintf("trace: row %d: trace: task %d books non-positive resources", row, tr.Tasks[row-2].ID)},
		{"repeated ID", encodeWith(func(task *Task) { task.ID = tr.Tasks[0].ID }),
			fmt.Sprintf("trace: row %d duplicates task ID %d (first seen on row 2)", row, tr.Tasks[0].ID)},
	}
	base := runtime.NumGoroutine()
	for _, c := range cases {
		for name, decode := range map[string]func([]byte) error{
			"decodeTasks": func(in []byte) error { _, err := decodeTasks(bytes.NewReader(in), nil); return err },
			"Import":      func(in []byte) error { _, err := Import(bytes.NewReader(in), ImportOptions{}); return err },
		} {
			err := decode(c.in)
			if got := fmt.Sprint(err); (err == nil) != (c.want == "") || err != nil && got != c.want {
				t.Errorf("%s of the %s trace: error %q, want %q", name, c.name, got, c.want)
			}
			if !goroutinesSettle(base) {
				t.Errorf("%s of the %s trace left %d goroutines running, %d before", name, c.name, runtime.NumGoroutine(), base)
			}
		}
	}
}

// failAfter serves r's first n bytes, then fails with err.
type failAfter struct {
	r   io.Reader
	n   int
	err error
}

func (f *failAfter) Read(b []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	b = b[:min(len(b), f.n)]
	n, err := f.r.Read(b)
	f.n -= n
	return n, err
}

// TestInflaterStopsWhereverTheDecodeEnds covers the two ends the ring makes
// possible besides those of TestInflaterNeverOutlivesItsCall: a decode that
// fails on row 2 while every block of the ring is inflated and unread, and a
// source that fails mid-stream. Each keeps the error text of the same bytes
// read plain, or the source's own, and leaves no goroutine behind.
func TestInflaterStopsWhereverTheDecodeEnds(t *testing.T) {
	var body strings.Builder
	for id := 3; body.Len() < 2<<20; id++ {
		fmt.Fprintf(&body, "%d,1,0,60,1,2,0.5,1\n", id)
	}
	zip := func(plain string) []byte {
		var zipped bytes.Buffer
		zw := gzip.NewWriter(&zipped)
		if _, err := zw.Write([]byte(plain)); err != nil || zw.Close() != nil {
			t.Fatal("gzip:", err)
		}
		return zipped.Bytes()
	}
	badPlain := "1,1,0,60,1,2,0.5,1\n2,1,0,60,0,2,0,1\n" + body.String() // row 2 books nothing
	bad, good := zip(badPlain), zip("1,1,0,60,1,2,0.5,1\n2,1,0,60,1,2,0.5,1\n"+body.String())
	_, plainErr := decodeTasks(strings.NewReader(badPlain), nil)
	if want := "trace: row 2: trace: task 2 books non-positive resources"; fmt.Sprint(plainErr) != want {
		t.Fatalf("plain decode: error %v, want %q", plainErr, want)
	}
	failing := errors.New("source failed mid-stream")

	base := runtime.NumGoroutine()
	for _, c := range []struct {
		name     string
		in       func() io.Reader
		fillRing bool
		want     string
	}{
		{"row 2 fails with the ring full", func() io.Reader { return bytes.NewReader(bad) }, true, plainErr.Error()},
		{"source fails mid-stream", func() io.Reader {
			return &failAfter{r: bytes.NewReader(good), n: len(good) / 2, err: failing}
		}, false, failing.Error()},
	} {
		full := false
		if c.fillRing {
			inflating = func(inf *inflater) {
				for deadline := time.Now().Add(5 * time.Second); len(inf.full) < ringBlocks; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						return
					}
				}
				full = true
			}
		}
		_, err := decodeTasks(c.in(), nil)
		inflating = nil
		if c.fillRing && !full {
			t.Errorf("%s: the ring never filled", c.name)
		}
		if got := fmt.Sprint(err); got != c.want {
			t.Errorf("%s: error %q, want %q", c.name, got, c.want)
		}
		if _, err := Import(c.in(), ImportOptions{}); fmt.Sprint(err) != c.want {
			t.Errorf("%s: Import error %q, want %q", c.name, fmt.Sprint(err), c.want)
		}
		if !goroutinesSettle(base) {
			t.Errorf("%s left %d goroutines running, %d before", c.name, runtime.NumGoroutine(), base)
		}
	}
}

// TestImportAllocatesNothingPerRow: a plain native import of 100k rows
// allocates its chunks, its exact-length task slice, its read buffer and its
// ID bitset, and nothing per row.
func TestImportAllocatesNothingPerRow(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-task import in -short mode")
	}
	tr := serverlessTrace(t)
	var plain bytes.Buffer
	if err := tr.EncodeCSV(&plain, false); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Import(bytes.NewReader(plain.Bytes()), ImportOptions{Machines: tr.Machines, HorizonSec: tr.HorizonSec}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations for %d rows", allocs, len(tr.Tasks))
	if allocs > 2000 {
		t.Errorf("a %d-row import made %.0f allocations, want <= 2000", len(tr.Tasks), allocs)
	}
}

// BenchmarkImportGzip imports the 100k-task serverless .csv.gz, the trace a
// replay pass reads. The inflater runs a ring of blocks ahead of the row
// scanner, so with two cores the import takes about as long as the inflate
// alone; -cpuprofile shows the split, and -cpu 1 their sum.
func BenchmarkImportGzip(b *testing.B) {
	tr, encoded := serverlessGzip(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(encoded)))
	b.ResetTimer()
	for range b.N {
		if _, err := Import(bytes.NewReader(encoded), ImportOptions{Machines: tr.Machines, HorizonSec: tr.HorizonSec}); err != nil {
			b.Fatal(err)
		}
	}
}

// eofProbe snapshots the live heap at the moment the decode loop drains the
// input: a slurping decoder still holds every raw record live right then,
// a streaming one holds only the tasks it has built.
type eofProbe struct {
	r         io.Reader
	liveAtEOF uint64
	captured  bool
}

func (p *eofProbe) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	if err == io.EOF && !p.captured {
		p.captured = true
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p.liveAtEOF = ms.HeapAlloc
	}
	return n, err
}

// TestImportStreamsWithoutMaterializing pins the importer's memory contract:
// decoding a 100k-task .csv.gz must never hold the raw records in bulk. The
// live heap at EOF is bounded per task by the Task struct (64 B) in its
// chunks plus the duplicate-ID bitset — a csv.ReadAll-style slurp keeps
// ~350-450 B of raw strings per row live at that point and blows the bound.
func TestImportStreamsWithoutMaterializing(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-task import in -short mode")
	}
	tr, encoded := serverlessGzip(t)
	tasks := len(tr.Tasks)
	t.Logf("input: %d tasks, %d gzip bytes", tasks, len(encoded))

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	probe := &eofProbe{r: bytes.NewReader(encoded)}
	got, err := Import(probe, ImportOptions{Machines: tr.Machines, HorizonSec: tr.HorizonSec})
	if err != nil {
		t.Fatal(err)
	}
	if !probe.captured {
		t.Fatal("probe never saw EOF")
	}
	if len(got.Tasks) != tasks {
		t.Fatalf("%d tasks, want %d", len(got.Tasks), tasks)
	}
	live := int64(probe.liveAtEOF) - int64(before.HeapAlloc)
	perTask := float64(live) / float64(tasks)
	t.Logf("live heap at EOF: %d B (%.0f B/task)", live, perTask)
	// 128 B/task = 2x the Task struct: the chunks hold ~71 B/task at EOF
	// (the inflater's ring runs up to a MiB ahead of them), the rest is
	// headroom; slurped records need hundreds more.
	if perTask > 128 {
		t.Errorf("live heap at EOF is %.0f B/task (> 128): importer is materializing raw records", perTask)
	}
	// The baseline heap (source trace + encoded bytes) must itself stay live
	// through the probe's snapshot, or its collection masks the importer's own
	// footprint in the delta.
	runtime.KeepAlive(tr)
	runtime.KeepAlive(encoded)
}

package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
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
	} {
		in := "id,job,start_sec,end_sec,booked_cpu,booked_mem_gib,used_cpu,used_mem_gib\n" + tc.row + "\n"
		_, err := DecodeCSV(strings.NewReader(in))
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
	_, err := DecodeCSV(strings.NewReader(in))
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
	if err == nil {
		t.Error("task beyond the forced horizon should fail trace validation")
	}
	if _, err := Import(strings.NewReader("not,a,trace\nx,y,z\n"), ImportOptions{}); err == nil {
		t.Error("garbage input should fail")
	}
}

func TestImportFile(t *testing.T) {
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
	got, err := ImportFile(path, ImportOptions{Machines: tr.Machines, HorizonSec: tr.HorizonSec})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tasks) != len(tr.Tasks) {
		t.Fatalf("%d tasks, want %d", len(got.Tasks), len(tr.Tasks))
	}
	if _, err := ImportFile(filepath.Join(t.TempDir(), "missing.csv"), ImportOptions{}); err == nil {
		t.Error("missing file should fail")
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
// live heap at EOF is bounded per task by the Task struct (64 B), the
// duplicate-ID index and append slack — a csv.ReadAll-style slurp keeps
// ~350-450 B of raw strings per row live at that point and blows the bound.
func TestImportStreamsWithoutMaterializing(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-task import in -short mode")
	}
	const tasks = 100_000
	tr, err := GenerateFamily("serverless", FamilyParams{
		Machines: 500, HorizonSec: 24 * 3600, Tasks: tasks, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	var encoded bytes.Buffer
	if err := tr.EncodeCSV(&encoded, true); err != nil {
		t.Fatal(err)
	}
	t.Logf("input: %d tasks, %d gzip bytes", tasks, encoded.Len())

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	probe := &eofProbe{r: bytes.NewReader(encoded.Bytes())}
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
	perTask := float64(live) / tasks
	t.Logf("live heap at EOF: %d B (%.0f B/task)", live, perTask)
	// 224 B/task = 3.5x the Task struct: room for the tasks slice's append
	// slack and the duplicate-ID map, none for slurped records.
	if perTask > 224 {
		t.Errorf("live heap at EOF is %.0f B/task (> 224): importer is materializing raw records", perTask)
	}
	// The baseline heap (source trace + encoded bytes) must itself stay live
	// through the probe's snapshot, or its collection masks the importer's own
	// footprint in the delta.
	runtime.KeepAlive(tr)
	runtime.KeepAlive(&encoded)
}

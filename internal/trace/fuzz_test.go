package trace

import (
	"bytes"
	"cmp"
	"slices"
	"sort"
	"testing"
)

// Fuzz hardening for the two trace surfaces that consume untrusted input or
// uphold an ordering contract: the CSV codec (real-trace conversions arrive
// from disk) and the streaming arrival feed (the online control plane's
// event order must match the slice-based replay exactly). Seed corpora are
// checked in under testdata/fuzz/, and CI runs each target for a short
// -fuzztime on top of the always-on seed replay.

// encodeTasks renders a task list through the CSV encoder (plain form).
func encodeTasks(t *testing.T, tasks []Task) []byte {
	t.Helper()
	tr := &Trace{Name: "fuzz", Machines: 1, HorizonSec: 1, Tasks: tasks}
	var buf bytes.Buffer
	if err := tr.EncodeCSV(&buf, false); err != nil {
		t.Fatalf("encoding decoded tasks: %v", err)
	}
	return buf.Bytes()
}

// FuzzDecodeCSV feeds arbitrary bytes to the gzip-sniffing CSV decoder: it
// must never panic, and anything it accepts must survive an
// encode -> decode -> encode round trip byte-identically, through both the
// plain and the gzip path. (Byte equality of the re-encoded form sidesteps
// NaN's self-inequality while still pinning every field.)
func FuzzDecodeCSV(f *testing.F) {
	tr, err := Generate(GeneratorConfig{
		Name: "seed", Machines: 4, HorizonSec: 3600, Tasks: 8,
		MemoryToCPURatio: 3, MeanUtilization: 0.35, Seed: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	var plain, gz bytes.Buffer
	if err := tr.EncodeCSV(&plain, false); err != nil {
		f.Fatal(err)
	}
	if err := tr.EncodeCSV(&gz, true); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())
	f.Add(gz.Bytes())
	f.Add([]byte("id,job,start_sec,end_sec,booked_cpu,booked_mem_gib,used_cpu,used_mem_gib\n"))
	f.Add([]byte("1,1,0,60,1,2,0.5,1\n"))
	f.Add([]byte{0x1f, 0x8b, 0xff, 0x00}) // gzip magic, corrupt stream
	f.Add([]byte("1,2,3\n"))              // ragged row
	f.Add([]byte("0,0,0,60,NaN,+Inf,-0,1e309\n"))
	f.Add([]byte("1,1,0,10,NaN,Inf,NaN,NaN\n")) // decodes; only Task.Validate refuses it
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tasks, err := decodeTasks(bytes.NewReader(data), nil)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		first := encodeTasks(t, tasks)
		again, err := decodeTasks(bytes.NewReader(first), nil)
		if err != nil {
			t.Fatalf("decoder rejected its own encoder's output: %v\n%s", err, first)
		}
		if second := encodeTasks(t, again); !bytes.Equal(first, second) {
			t.Fatalf("plain round trip not stable:\n first %q\nsecond %q", first, second)
		}
		var zipped bytes.Buffer
		if err := (&Trace{Name: "fuzz", Machines: 1, HorizonSec: 1, Tasks: tasks}).EncodeCSV(&zipped, true); err != nil {
			t.Fatalf("gzip encode: %v", err)
		}
		unzipped, err := decodeTasks(&zipped, nil)
		if err != nil {
			t.Fatalf("decoder rejected its own gzip output: %v", err)
		}
		if third := encodeTasks(t, unzipped); !bytes.Equal(first, third) {
			t.Fatalf("gzip round trip not stable:\n first %q\n third %q", first, third)
		}
	})
}

// FuzzImport feeds arbitrary bytes to the streaming importer under both
// bundled schemas: it must never panic, anything it accepts must pass
// Trace.Validate (Import's contract), and an accepted trace must survive a
// re-encode -> re-import round trip byte-identically — the derived fleet
// size and horizon included, since the matrix artifacts hash on them.
func FuzzImport(f *testing.F) {
	small, err := GenerateFamily("flashcrowd", FamilyParams{Machines: 4, HorizonSec: 3600, Tasks: 6, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	var plain, gz bytes.Buffer
	if err := small.EncodeCSV(&plain, false); err != nil {
		f.Fatal(err)
	}
	if err := small.EncodeCSV(&gz, true); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())
	f.Add(gz.Bytes())
	f.Add([]byte("vm_id,tenant_id,created_sec,deleted_sec,core_count,memory_gb,avg_cpu_pct,avg_mem_pct\n7,1,0,3600,4,16,25,50\n"))
	f.Add([]byte("1,1,0,60,1,2,0.5,1\n2,1,30,90,2,4,1,2\n"))
	f.Add([]byte("1,1,0,60,1,2,0.5,1\n1,2,0,60,1,2,0.5,1\n")) // duplicate ID
	f.Add([]byte("1,1,60,0,1,2,0.5,1\n"))                     // ends before it starts
	f.Add([]byte("1,1,0,10,NaN,Inf,NaN,NaN\n"))               // non-finite demands pass every <, > check
	f.Add([]byte{0x1f, 0x8b, 0x08, 0x00})                     // truncated gzip
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, schema := range []Schema{nil, ClusterSchema()} {
			tr, err := Import(bytes.NewReader(data), ImportOptions{Schema: schema})
			if err != nil {
				continue // rejected input is fine; panics are not
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("import accepted an invalid trace: %v", err)
			}
			var first bytes.Buffer
			if err := tr.EncodeCSV(&first, false); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			again, err := Import(bytes.NewReader(first.Bytes()), ImportOptions{})
			if err != nil {
				t.Fatalf("importer rejected its own encoder's output: %v\n%s", err, first.Bytes())
			}
			if again.Machines != tr.Machines || again.HorizonSec != tr.HorizonSec {
				t.Fatalf("derived metadata not stable: %d/%d then %d/%d",
					tr.Machines, tr.HorizonSec, again.Machines, again.HorizonSec)
			}
			var second bytes.Buffer
			if err := again.EncodeCSV(&second, false); err != nil {
				t.Fatalf("second encode: %v", err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("import round trip not stable:\n first %q\nsecond %q", first.Bytes(), second.Bytes())
			}
		}
	})
}

// fuzzTasks derives a small, always-valid task set from raw fuzz bytes:
// three bytes drive each task's start and duration. IDs are distinct but not
// in position order (37 is a unit modulo the prime 211, and there are at most
// 200 tasks), so ordering a tie by ID is not ordering it by position.
func fuzzTasks(data []byte) []Task {
	var tasks []Task
	for i := 0; i+2 < len(data) && len(tasks) < 200; i += 3 {
		start := (int64(data[i])<<3 | int64(data[i+1])&7) % 977
		dur := int64(data[i+2])%120 + 1
		tasks = append(tasks, Task{
			ID:           len(tasks) * 37 % 211,
			JobID:        int(data[i+1]) % 16,
			StartSec:     start,
			EndSec:       start + dur,
			BookedCPU:    1,
			BookedMemGiB: 1,
			UsedCPU:      0.5,
			UsedMemGiB:   0.5,
		})
	}
	return tasks
}

// FuzzStreamVsSlurp pins the streaming arrival feed against the slice-based
// replay: for any task set, Stream must yield exactly the events obtained by
// materializing every (arrive, depart) pair and sorting by (time,
// departs-before-arrives, task ID) — the causal order the online control
// plane and the offline engine both assume — while its Running() counter
// tracks the population without ever going negative.
func FuzzStreamVsSlurp(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{255, 255, 255, 0, 0, 255, 7, 7, 7, 200, 100, 50})
	f.Add(bytes.Repeat([]byte{42}, 60)) // many identical tasks: pure tie-breaking
	// The online control plane consumes this feed, so the instants its loop
	// orders by are seeded by hand: three tasks that start together, two that
	// end together, one that ends the second another starts, and one that
	// runs from before the first start to after the last end.
	f.Add([]byte{10, 0, 5, 10, 0, 9, 10, 0, 1})
	f.Add([]byte{10, 0, 9, 10, 5, 4})
	f.Add([]byte{10, 0, 7, 11, 0, 3})
	f.Add([]byte{0, 0, 119, 2, 0, 9, 5, 3, 30, 10, 0, 39})

	f.Fuzz(func(t *testing.T, data []byte) {
		tasks := fuzzTasks(data)
		tr := &Trace{Name: "fuzz", Machines: 1, HorizonSec: 1 << 20, Tasks: tasks}

		type ev struct {
			at   int64
			kind EventKind
			id   int
		}
		want := make([]ev, 0, 2*len(tasks))
		for _, task := range tasks {
			want = append(want,
				ev{at: task.StartSec, kind: Arrive, id: task.ID},
				ev{at: task.EndSec, kind: Depart, id: task.ID})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			if want[i].kind != want[j].kind {
				return want[i].kind < want[j].kind // Depart sorts before Arrive
			}
			return want[i].id < want[j].id
		})

		s := NewStream(tr)
		running := 0
		for i := 0; ; i++ {
			e, ok := s.Next()
			if !ok {
				if i != len(want) {
					t.Fatalf("stream ended after %d events, want %d", i, len(want))
				}
				break
			}
			if i >= len(want) {
				t.Fatalf("stream yielded more than %d events", len(want))
			}
			w := want[i]
			if tasks[e.Index] != e.Task {
				t.Fatalf("event %d carries index %d, which is task-%d, beside task-%d", i, e.Index, tasks[e.Index].ID, e.Task.ID)
			}
			if e.AtSec != w.at || e.Kind != w.kind || e.Task.ID != w.id {
				t.Fatalf("event %d = (%d,%v,task-%d), slice replay has (%d,%v,task-%d)",
					i, e.AtSec, e.Kind, e.Task.ID, w.at, w.kind, w.id)
			}
			if e.Kind == Arrive {
				running++
			} else {
				running--
			}
			if running < 0 {
				t.Fatalf("population went negative at event %d", i)
			}
			if got := s.Running(); got != running {
				t.Fatalf("Running() = %d after event %d, want %d", got, i, running)
			}
		}
		if got := s.Running(); got != 0 {
			t.Fatalf("Running() = %d after exhaustion, want 0", got)
		}
	})
}

// FuzzEventOrder pins the stream's sort against a stable comparator sort by
// (time, ID) on arbitrary tasks. The first byte scales the times, so the
// corpus reaches spans of 2^32 seconds and beyond, where eventOrder falls back
// to the comparator; then three bytes make each task, two for its time and
// one that shuffles its (always distinct) ID.
func FuzzEventOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shift := data[0] % 48
		var tasks []Task
		for i := 1; i+2 < len(data) && len(tasks) < 1024; i += 3 {
			at := int64(int16(uint16(data[i])<<8|uint16(data[i+1]))) << shift
			tasks = append(tasks, Task{ID: int(int8(data[i+2]))*1024 + len(tasks), StartSec: at, EndSec: at + 1})
		}
		want := make([]int32, len(tasks))
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int {
			return cmp.Or(cmp.Compare(tasks[a].StartSec, tasks[b].StartSec), cmp.Compare(tasks[a].ID, tasks[b].ID))
		})
		if got := eventOrder(tasks, func(t *Task) int64 { return t.StartSec }); !slices.Equal(got, want) {
			t.Fatalf("eventOrder %v, want %v", got, want)
		}
	})
}

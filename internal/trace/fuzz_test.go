package trace

import (
	"bytes"
	"testing"
)

// Fuzz hardening for the two trace surfaces that consume untrusted input or
// uphold an ordering contract: the CSV codec (real-trace conversions arrive
// from disk), here, and the event order (the online control plane's feed must
// match the slice-based replay exactly), in feed_test.go. Seed corpora are
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

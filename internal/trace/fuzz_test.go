package trace

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
)

// Fuzz hardening for the two trace surfaces that consume untrusted input or
// uphold an ordering contract: the CSV codec (real-trace conversions arrive
// from disk), here, and the event order (the stream must match the
// slice-based replay exactly), in order_test.go. Seed corpora are
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

// decodeViaCSV decodes data as decodeTasks does, gzip sniffed, but reads every
// row through decodeCSV's encoding/csv: the reference the row scanner must
// match.
func decodeViaCSV(data []byte) ([]Task, error) {
	var r io.Reader = bytes.NewReader(data)
	if len(data) >= 2 && data[0] == gzipMagic[0] && data[1] == gzipMagic[1] {
		zr, err := gzip.NewReader(r)
		if err != nil {
			return nil, err
		}
		r = zr
	}
	return decodeCSV(r, new(taskSet), 0, 0)
}

// importViaCSV is Import with its defaults and every row read by
// decodeViaCSV.
func importViaCSV(data []byte) (*Trace, error) {
	tasks, err := decodeViaCSV(data)
	if err != nil {
		return nil, err
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("trace: import: no tasks in input")
	}
	tr := &Trace{Name: "imported", Tasks: tasks}
	if err := finalizeImported(tr); err != nil {
		return nil, err
	}
	return tr, nil
}

// gzipped compresses data into one gzip member.
func gzipped(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil || zw.Close() != nil {
		t.Fatal("gzip:", err)
	}
	return buf.Bytes()
}

// sameTasks reports whether a and b hold the same tasks bit for bit, so a NaN
// equals the same NaN and -0 differs from 0.
func sameTasks(a, b []Task) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || x.JobID != y.JobID || x.StartSec != y.StartSec || x.EndSec != y.EndSec ||
			math.Float64bits(x.BookedCPU) != math.Float64bits(y.BookedCPU) ||
			math.Float64bits(x.BookedMemGiB) != math.Float64bits(y.BookedMemGiB) ||
			math.Float64bits(x.UsedCPU) != math.Float64bits(y.UsedCPU) ||
			math.Float64bits(x.UsedMemGiB) != math.Float64bits(y.UsedMemGiB) {
			return false
		}
	}
	return true
}

// scannerMatchesCSV fails t unless the row scanner and the encoding/csv path
// decode data, and its gzip form, to the same tasks or the same error text.
func scannerMatchesCSV(t *testing.T, data []byte) {
	t.Helper()
	for _, in := range [][]byte{data, gzipped(t, data)} {
		got, gotErr := decodeTasks(bytes.NewReader(in))
		want, wantErr := decodeViaCSV(in)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("scanner error %v, encoding/csv error %v", gotErr, wantErr)
		}
		if !sameTasks(got, want) {
			t.Fatalf("scanner decoded %d tasks, encoding/csv %d, or their bits differ", len(got), len(want))
		}
	}
}

// longRow is a valid native row far longer than the decoder's read buffer.
var longRow = "1,1,0,60,1,2,0.5,0." + strings.Repeat("0", 64<<10) + "1\n"

// farDuplicate repeats task 0's ID 5 000 rows after it.
func farDuplicate() []byte {
	var b strings.Builder
	for id := range 5000 {
		fmt.Fprintf(&b, "%d,1,0,60,1,2,0.5,1\n", id)
	}
	b.WriteString("0,2,0,60,1,2,0.5,1\n")
	return []byte(b.String())
}

// FuzzDecodeCSV feeds arbitrary bytes to the gzip-sniffing CSV decoder: it
// must never panic, the row scanner must agree with encoding/csv on every
// input, plain and gzip, and anything it accepts must survive an
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
	f.Add([]byte(longRow))
	f.Add([]byte("1,1,0,60,1,2,0.5,1\n" + longRow + "2,1,0,60,1,2,0.5,1\n"))
	f.Add(farDuplicate())

	f.Fuzz(func(t *testing.T, data []byte) {
		scannerMatchesCSV(t, data)
		tasks, err := decodeTasks(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		first := encodeTasks(t, tasks)
		again, err := decodeTasks(bytes.NewReader(first))
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
		unzipped, err := decodeTasks(&zipped)
		if err != nil {
			t.Fatalf("decoder rejected its own gzip output: %v", err)
		}
		if third := encodeTasks(t, unzipped); !bytes.Equal(first, third) {
			t.Fatalf("gzip round trip not stable:\n first %q\n third %q", first, third)
		}
	})
}

// FuzzImport feeds arbitrary bytes to the streaming importer: it must never
// panic, the row scanner must import what the
// encoding/csv path imports, plain and gzip, the checks finalizeImported
// makes must fail as Trace.Validate does, anything it accepts must pass
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
	// A cluster-trace VM layout, which the native reader rejects.
	f.Add([]byte("vm_id,tenant_id,created_sec,deleted_sec,core_count,memory_gb,avg_cpu_pct,avg_mem_pct\n7,1,0,3600,4,16,25,50\n"))
	f.Add([]byte("1,1,0,60,1,2,0.5,1\n2,1,30,90,2,4,1,2\n"))
	f.Add([]byte("1,1,0,60,1,2,0.5,1\n1,2,0,60,1,2,0.5,1\n")) // duplicate ID
	f.Add([]byte("1,1,60,0,1,2,0.5,1\n"))                     // ends before it starts
	f.Add([]byte("1,1,0,10,NaN,Inf,NaN,NaN\n"))               // non-finite demands pass every <, > check
	f.Add([]byte{0x1f, 0x8b, 0x08, 0x00})                     // truncated gzip
	f.Add([]byte{})
	f.Add([]byte(longRow))
	f.Add(farDuplicate())
	f.Add([]byte("2,1,0,4000,1,2,0.5,1\n"))                      // outside a horizon of 3600 s
	f.Add([]byte("2,1,0,4000,1,2,0.5,1\n1,1,-5,60,1,2,0.5,1\n")) // outside any horizon, and one of 3600 s

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, gzipped(t, data)} {
			got, gotErr := Import(bytes.NewReader(in), ImportOptions{})
			want, wantErr := importViaCSV(in)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("scanner import error %v, encoding/csv import error %v", gotErr, wantErr)
			}
			if gotErr == nil && (!sameTasks(got.Tasks, want.Tasks) ||
				got.Machines != want.Machines || got.HorizonSec != want.HorizonSec) {
				t.Fatalf("scanner and encoding/csv imports differ")
			}
		}
		if tasks, err := decodeTasks(bytes.NewReader(data)); err == nil {
			for _, horizon := range []int64{0, 3600} {
				tr := &Trace{HorizonSec: horizon, Tasks: tasks}
				if err, want := finalizeImported(tr), tr.Validate(); fmt.Sprint(err) != fmt.Sprint(want) {
					t.Fatalf("horizon %d: finalizeImported returned %v, Trace.Validate %v", horizon, err, want)
				}
			}
		}
		tr, err := Import(bytes.NewReader(data), ImportOptions{})
		if err != nil {
			return // rejected input is fine; panics are not
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
	})
}

// parseMatchesStrconv fails t unless parseDecimal parses s, as a string and as
// bytes, to strconv.ParseFloat's bits (-0 and NaN included) and error text.
func parseMatchesStrconv(t *testing.T, s string) {
	t.Helper()
	want, wantErr := strconv.ParseFloat(s, 64)
	for _, p := range []func() (float64, error){
		func() (float64, error) { return parseDecimal(s) },
		func() (float64, error) { return parseDecimal([]byte(s)) },
	} {
		got, err := p()
		if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("parseDecimal(%q) = %v (%#x), %v; strconv.ParseFloat: %v (%#x), %v",
				s, got, math.Float64bits(got), err, want, math.Float64bits(want), wantErr)
		}
	}
}

// FuzzParseDecimal: for any string, parseDecimal's value and error are
// strconv.ParseFloat's. decodeCSV shares decodeNative with the row scanner, so
// FuzzDecodeCSV and FuzzImport compare the fast path with itself; this target
// compares it with strconv.
func FuzzParseDecimal(f *testing.F) {
	for _, s := range []string{
		"4503599627370496.5", "9007199254740993", // exact midpoints: ties to even
		"9007199254740991", "9007199254740992", "9007199254740994", "9007199254740995", // around 2^53
		"9999999999999999999", "10000000000000000000", "18446744073709551615", // around 10^19
		"1234567890123456789", "12345678901234567890", // 19 and 20 digits
		"0.1234567890123456789", "0.12345678901234567891", "0.0000000000000000001",
		"123456789.123456789", "0.30000000000000004", "1.7976931348623157",
		"0", "000.5", "1.", ".5", "1e5", "-0", "+1", "Inf", "1_0", "", ".", "1..2", "0.5.",
	} {
		f.Add(s)
	}
	f.Fuzz(parseMatchesStrconv)
}

// TestParseDecimalMatchesStrconv: seeded random decimals of every digit count
// and point position up to the fast path's limits and past them parse as
// strconv parses them.
func TestParseDecimalMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewPCG(57, 1))
	for range 50_000 {
		digits := make([]byte, 1+rng.IntN(21))
		for i := range digits {
			digits[i] = byte('0' + rng.IntN(10))
		}
		s := string(digits)
		if dot := rng.IntN(len(digits) + 1); dot > 0 && dot < len(digits) {
			s = s[:dot] + "." + s[dot:]
		}
		parseMatchesStrconv(t, s)
	}
}

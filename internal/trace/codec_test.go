package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/csv"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestCodecGzipRoundTrip(t *testing.T) {
	tr, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	var plain, compressed bytes.Buffer
	if err := tr.EncodeCSV(&plain, false); err != nil {
		t.Fatal(err)
	}
	if err := tr.EncodeCSV(&compressed, true); err != nil {
		t.Fatal(err)
	}
	if got := compressed.Bytes(); len(got) < 2 || got[0] != 0x1f || got[1] != 0x8b {
		t.Fatal("compressed stream does not start with the gzip magic bytes")
	}
	if compressed.Len() >= plain.Len() {
		t.Fatalf("gzip made the trace bigger: %d vs %d bytes plain", compressed.Len(), plain.Len())
	}

	// Both forms decode through the one sniffing entry point.
	fromPlain, err := decodeTasks(bytes.NewReader(plain.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromGzip, err := decodeTasks(bytes.NewReader(compressed.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromPlain, tr.Tasks) {
		t.Fatal("plain round trip lost tasks")
	}
	if !reflect.DeepEqual(fromGzip, tr.Tasks) {
		t.Fatal("gzip round trip lost tasks")
	}
}

func TestDecodeCSVPlainCompatibility(t *testing.T) {
	// The decoder reads plain EncodeCSV output back task for task.
	tr, err := Generate(GeneratorConfig{
		Name: "small", Machines: 10, HorizonSec: 3600, Tasks: 25, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.EncodeCSV(&buf, false); err != nil {
		t.Fatal(err)
	}
	tasks, err := decodeTasks(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tasks, tr.Tasks) {
		t.Fatal("decodeTasks lost tasks of plain EncodeCSV output")
	}
}

func TestDecodeCSVShortInputs(t *testing.T) {
	// Streams shorter than the two magic bytes cannot be gzip and must fall
	// through to the CSV reader instead of erroring on the sniff.
	if tasks, err := decodeTasks(strings.NewReader("")); err != nil || len(tasks) != 0 {
		t.Fatalf("empty input: tasks=%d err=%v, want none", len(tasks), err)
	}
	// A one-byte stream reaches the CSV reader, whose column check rejects
	// it — the error proves the sniff fell through rather than failing as a
	// truncated gzip header.
	if _, err := decodeTasks(strings.NewReader("x")); err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("one-byte input: err=%v, want the CSV column error", err)
	}
}

// encodeCSVRows is the reference encoder: every row through csv.Writer, and
// with compress set through a Huffman-only gzip.Writer.
func encodeCSVRows(tr *Trace, w io.Writer, compress bool) error {
	var zw *gzip.Writer
	if compress {
		zw, _ = gzip.NewWriterLevel(w, gzip.HuffmanOnly)
		w = zw
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, t := range tr.Tasks {
		if err := cw.Write([]string{
			strconv.Itoa(t.ID), strconv.Itoa(t.JobID),
			strconv.FormatInt(t.StartSec, 10), strconv.FormatInt(t.EndSec, 10),
			strconv.FormatFloat(t.BookedCPU, 'g', -1, 64), strconv.FormatFloat(t.BookedMemGiB, 'g', -1, 64),
			strconv.FormatFloat(t.UsedCPU, 'g', -1, 64), strconv.FormatFloat(t.UsedMemGiB, 'g', -1, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil || zw == nil {
		return err
	}
	return zw.Close()
}

// TestEncodeCSVIsTheCSVWriter: for all five families and both Google
// presets, plain and gzip, EncodeCSV writes the bytes csv.Writer writes row
// by row — including an empty trace and tasks with negative IDs and extreme
// floats — and it allocates no more for 4 000 rows than for 40.
func TestEncodeCSVIsTheCSVWriter(t *testing.T) {
	var traces []*Trace
	for _, fam := range Families() {
		tr, err := fam.Generate(FamilyParams{Machines: 100, HorizonSec: 24 * 3600, Tasks: 4000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	for _, cfg := range []GeneratorConfig{DefaultConfig(), ModifiedConfig()} {
		cfg.Tasks = 4000
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	odd := &Trace{Name: "odd", Machines: 1, HorizonSec: 10, Tasks: []Task{
		{ID: -9, JobID: math.MinInt64, StartSec: 0, EndSec: 10, BookedCPU: math.MaxFloat64, BookedMemGiB: math.SmallestNonzeroFloat64, UsedCPU: 1e21, UsedMemGiB: 1e-7},
		{ID: math.MaxInt64, JobID: 0, StartSec: 3, EndSec: 4, BookedCPU: 0.1, BookedMemGiB: 123456789.125, UsedCPU: 0, UsedMemGiB: math.Copysign(0, -1)},
	}}
	traces = append(traces, &Trace{Name: "empty", Machines: 1, HorizonSec: 1}, odd)
	for _, tr := range traces {
		for _, compress := range []bool{false, true} {
			var got, want bytes.Buffer
			if err := tr.EncodeCSV(&got, compress); err != nil {
				t.Fatal(err)
			}
			if err := encodeCSVRows(tr, &want, compress); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s (gzip %v): EncodeCSV wrote %d bytes, csv.Writer %d, and they differ", tr.Name, compress, got.Len(), want.Len())
			}
		}
	}
	allocs := func(tasks int) float64 {
		tr := &Trace{Name: "allocs", Machines: 1, HorizonSec: 1, Tasks: traces[0].Tasks[:tasks]}
		return testing.AllocsPerRun(5, func() {
			if err := tr.EncodeCSV(io.Discard, false); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(40), allocs(4000); large > small {
		t.Fatalf("EncodeCSV allocates %v times for 40 rows and %v for 4 000", small, large)
	}
}

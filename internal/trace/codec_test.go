package trace

import (
	"bytes"
	"reflect"
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
	fromPlain, err := DecodeCSV(bytes.NewReader(plain.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromGzip, err := DecodeCSV(bytes.NewReader(compressed.Bytes()))
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
	// DecodeCSV reads plain EncodeCSV output back task for task.
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
	tasks, err := DecodeCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tasks, tr.Tasks) {
		t.Fatal("DecodeCSV lost tasks of plain EncodeCSV output")
	}
}

func TestDecodeCSVShortInputs(t *testing.T) {
	// Streams shorter than the two magic bytes cannot be gzip and must fall
	// through to the CSV reader instead of erroring on the sniff.
	if tasks, err := DecodeCSV(strings.NewReader("")); err != nil || len(tasks) != 0 {
		t.Fatalf("empty input: tasks=%d err=%v, want none", len(tasks), err)
	}
	// A one-byte stream reaches the CSV reader, whose column check rejects
	// it — the error proves the sniff fell through rather than failing as a
	// truncated gzip header.
	if _, err := DecodeCSV(strings.NewReader("x")); err == nil || !strings.Contains(err.Error(), "columns") {
		t.Fatalf("one-byte input: err=%v, want the CSV column error", err)
	}
}

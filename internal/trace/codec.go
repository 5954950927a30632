package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/csv"
	"io"
	"strconv"
)

// Gzip-aware CSV codec: real-trace conversions are written once and replayed
// many times, and the flat CSV of a month-scale trace balloons on disk.
// EncodeCSV optionally wraps the CSV stream in gzip and Import sniffs the
// gzip magic bytes, so callers handle .csv and .csv.gz files through one
// writer and one reader.

// gzipMagic opens every gzip stream (RFC 1952).
var gzipMagic = [2]byte{0x1f, 0x8b}

// gunzip fails with compress/gzip's errors.
var errGzipHeader, errGzipChecksum = gzip.ErrHeader, gzip.ErrChecksum

// EncodeCSV writes the trace tasks as CSV, header row first, to w. With
// compress set the payload is wrapped in a gzip stream — the .csv.gz form
// Import (and any standard tooling) inflates transparently. The stream is
// Huffman-coded only: rows of numbers hold few repeats for LZ77 to find, so
// on the bundled families it is within 9% of DefaultCompression's size,
// deflates an order of magnitude faster, and Import's inflater, which decodes
// up to two literals a table lookup, inflates it about 2.6x faster than
// DefaultCompression's stream (BenchmarkInflate). The row decode, not the
// inflate, is the critical path of a .csv.gz import.
//
// The header goes through csv.Writer. A row holds numbers only, which CSV
// never quotes, so each row is appended into one reused buffer, the bytes
// csv.Writer would write, with no allocation per row.
func (tr *Trace) EncodeCSV(w io.Writer, compress bool) error {
	var zw *gzip.Writer
	if compress {
		zw, _ = gzip.NewWriterLevel(w, gzip.HuffmanOnly) // a valid level never fails
		w = zw
	}
	bw := bufio.NewWriterSize(w, 32<<10)
	cw := csv.NewWriter(bw)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	cw.Flush()
	var row []byte
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		row = strconv.AppendInt(row[:0], int64(t.ID), 10)
		row = strconv.AppendInt(append(row, ','), int64(t.JobID), 10)
		row = strconv.AppendInt(append(row, ','), t.StartSec, 10)
		row = strconv.AppendInt(append(row, ','), t.EndSec, 10)
		for _, x := range [...]float64{t.BookedCPU, t.BookedMemGiB, t.UsedCPU, t.UsedMemGiB} {
			row = strconv.AppendFloat(append(row, ','), x, 'g', -1, 64)
		}
		row = append(row, '\n')
		_, _ = bw.Write(row) // a write error sticks, and Flush returns it
	}
	if err := bw.Flush(); err != nil || zw == nil {
		return err
	}
	return zw.Close()
}

package trace

import (
	"compress/gzip"
	"encoding/csv"
	"io"
	"strconv"
)

// Gzip-aware CSV codec: real-trace conversions are written once and replayed
// many times, and the flat CSV of a month-scale trace balloons on disk.
// EncodeCSV optionally wraps the CSV stream in gzip and DecodeCSV sniffs the
// gzip magic bytes, so callers handle .csv and .csv.gz files through one
// pair of functions.

// gzipMagic opens every gzip stream (RFC 1952).
var gzipMagic = [2]byte{0x1f, 0x8b}

// EncodeCSV writes the trace tasks as CSV, header row first, to w. With
// compress set the payload is wrapped in a gzip stream — the .csv.gz form
// DecodeCSV (and any standard tooling) inflates transparently.
func (tr *Trace) EncodeCSV(w io.Writer, compress bool) error {
	var zw *gzip.Writer
	if compress {
		zw = gzip.NewWriter(w)
		w = zw
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, t := range tr.Tasks {
		rec := []string{
			strconv.Itoa(t.ID),
			strconv.Itoa(t.JobID),
			strconv.FormatInt(t.StartSec, 10),
			strconv.FormatInt(t.EndSec, 10),
			strconv.FormatFloat(t.BookedCPU, 'g', -1, 64),
			strconv.FormatFloat(t.BookedMemGiB, 'g', -1, 64),
			strconv.FormatFloat(t.UsedCPU, 'g', -1, 64),
			strconv.FormatFloat(t.UsedMemGiB, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil || zw == nil {
		return err
	}
	return zw.Close()
}

// DecodeCSV decodes tasks from CSV produced by EncodeCSV (or converted from
// the real Google traces), transparently inflating gzip input by sniffing
// the magic bytes; plain CSV passes straight through. It is Import's decoder
// without the sorting and the derived metadata: raw records are never
// materialized in bulk, every task must pass Task.Validate, and duplicate
// task IDs — whose task-%d VMIDs would silently merge distinct VMs in both the
// offline replayer and the online admitted set — are rejected with the
// offending row numbers.
// Machines and HorizonSec must be set by the caller.
func DecodeCSV(r io.Reader) ([]Task, error) {
	return decodeTasks(r, nil)
}

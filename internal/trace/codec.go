package trace

import (
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

// EncodeCSV writes the trace tasks as CSV, header row first, to w. With
// compress set the payload is wrapped in a gzip stream — the .csv.gz form
// Import (and any standard tooling) inflates transparently.
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

package trace

import (
	"bufio"
	"bytes"
	"cmp"
	"compress/gzip"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
)

// The streaming importer: real cluster traces run to millions of tasks, and
// the original CSV decoder slurped every raw record through csv.ReadAll before
// decoding — holding the whole file's strings and the whole task list in
// memory at once, and happily accepting invalid tasks and duplicate IDs. The
// importer here decodes one record at a time straight into validated Tasks,
// rejects duplicates with row-numbered errors, sniffs gzip transparently,
// and adapts external column layouts through a Schema — so a million-task
// .csv.gz replays with nothing but the Task structs resident.

// Schema adapts one CSV column layout onto Task fields. The bundled schemas
// are NativeSchema (the EncodeCSV layout) and ClusterSchema (a public
// cluster-trace VM layout in the style of the Azure/Google releases).
type Schema interface {
	// Name labels the schema in errors and tooling.
	Name() string
	// Columns is the number of columns every record must have.
	Columns() int
	// Header reports whether a record is the layout's header row.
	Header(rec []string) bool
	// Decode parses one record into a task. Field errors name the column
	// ("id: ..."); the importer prefixes the row number.
	Decode(rec []string) (Task, error)
}

// nativeSchema is the EncodeCSV column layout.
type nativeSchema struct{}

// NativeSchema returns the repository's own CSV layout:
//
//	id,job,start_sec,end_sec,booked_cpu,booked_mem_gib,used_cpu,used_mem_gib
func NativeSchema() Schema { return nativeSchema{} }

func (nativeSchema) Name() string             { return "native" }
func (nativeSchema) Columns() int             { return len(csvHeader) }
func (nativeSchema) Header(rec []string) bool { return len(rec) > 0 && rec[0] == csvHeader[0] }

func (nativeSchema) Decode(rec []string) (Task, error) { return decodeNative(rec) }

// decodeNative parses the native layout's eight fields. The row scanner calls
// it on byte slices of its read buffer and Decode on strings; string(f) of a
// byte slice does not escape strconv, so neither allocates per field, and the
// two share every error text.
func decodeNative[F string | []byte](rec []F) (Task, error) {
	var t Task
	var err error
	if t.ID, err = strconv.Atoi(string(rec[0])); err != nil {
		return Task{}, fmt.Errorf("id: %w", err)
	}
	if t.JobID, err = strconv.Atoi(string(rec[1])); err != nil {
		return Task{}, fmt.Errorf("job: %w", err)
	}
	if t.StartSec, err = strconv.ParseInt(string(rec[2]), 10, 64); err != nil {
		return Task{}, fmt.Errorf("start: %w", err)
	}
	if t.EndSec, err = strconv.ParseInt(string(rec[3]), 10, 64); err != nil {
		return Task{}, fmt.Errorf("end: %w", err)
	}
	if t.BookedCPU, err = strconv.ParseFloat(string(rec[4]), 64); err != nil {
		return Task{}, fmt.Errorf("booked cpu: %w", err)
	}
	if t.BookedMemGiB, err = strconv.ParseFloat(string(rec[5]), 64); err != nil {
		return Task{}, fmt.Errorf("booked mem: %w", err)
	}
	if t.UsedCPU, err = strconv.ParseFloat(string(rec[6]), 64); err != nil {
		return Task{}, fmt.Errorf("used cpu: %w", err)
	}
	if t.UsedMemGiB, err = strconv.ParseFloat(string(rec[7]), 64); err != nil {
		return Task{}, fmt.Errorf("used mem: %w", err)
	}
	return t, nil
}

// clusterHeader is the public cluster-trace VM layout ClusterSchema adapts:
// one row per VM with its lifetime, size and average utilization, the shape
// the Azure and Google VM trace releases flatten to.
var clusterHeader = []string{
	"vm_id", "tenant_id", "created_sec", "deleted_sec",
	"core_count", "memory_gb", "avg_cpu_pct", "avg_mem_pct",
}

// clusterSchema adapts the public cluster-trace VM layout.
type clusterSchema struct{}

// ClusterSchema returns the adapter for the public cluster-trace VM layout:
//
//	vm_id,tenant_id,created_sec,deleted_sec,core_count,memory_gb,avg_cpu_pct,avg_mem_pct
//
// Utilization percentages are relative to the VM's own size, so a row maps
// onto a Task as used = booked * pct/100.
func ClusterSchema() Schema { return clusterSchema{} }

func (clusterSchema) Name() string             { return "cluster" }
func (clusterSchema) Columns() int             { return len(clusterHeader) }
func (clusterSchema) Header(rec []string) bool { return len(rec) > 0 && rec[0] == clusterHeader[0] }

func (clusterSchema) Decode(rec []string) (Task, error) {
	var t Task
	var err error
	if t.ID, err = strconv.Atoi(rec[0]); err != nil {
		return Task{}, fmt.Errorf("vm_id: %w", err)
	}
	if t.JobID, err = strconv.Atoi(rec[1]); err != nil {
		return Task{}, fmt.Errorf("tenant_id: %w", err)
	}
	if t.StartSec, err = strconv.ParseInt(rec[2], 10, 64); err != nil {
		return Task{}, fmt.Errorf("created_sec: %w", err)
	}
	if t.EndSec, err = strconv.ParseInt(rec[3], 10, 64); err != nil {
		return Task{}, fmt.Errorf("deleted_sec: %w", err)
	}
	if t.BookedCPU, err = strconv.ParseFloat(rec[4], 64); err != nil {
		return Task{}, fmt.Errorf("core_count: %w", err)
	}
	if t.BookedMemGiB, err = strconv.ParseFloat(rec[5], 64); err != nil {
		return Task{}, fmt.Errorf("memory_gb: %w", err)
	}
	cpuPct, err := strconv.ParseFloat(rec[6], 64)
	if err != nil {
		return Task{}, fmt.Errorf("avg_cpu_pct: %w", err)
	}
	memPct, err := strconv.ParseFloat(rec[7], 64)
	if err != nil {
		return Task{}, fmt.Errorf("avg_mem_pct: %w", err)
	}
	t.UsedCPU = t.BookedCPU * cpuPct / 100
	t.UsedMemGiB = t.BookedMemGiB * memPct / 100
	return t, nil
}

// decodeTasks decodes plain or gzip CSV for the schema (nil selects
// NativeSchema) one row at a time: besides the tasks it returns it holds only
// its read buffers and the duplicate-ID index, never the raw records. Every
// row must have the schema's columns; a leading header row is skipped; every
// task must pass Task.Validate and carry a previously unseen ID, so a file
// names each VM once. Violations error with the 1-based row number.
//
// NativeSchema rows are cut at ',' straight out of the read buffer and parsed
// with no allocation per row. A line with a '"' or '\r', or one longer than
// the buffer, hands itself and the rest of the input to encoding/csv, which
// every other schema reads from the start; the two paths return the same
// tasks and the same errors for the same bytes.
//
// Gzip input is sniffed by its magic bytes and inflated on a goroutine of its
// own, up to a ring of blocks ahead of the decoder, so the two halves of a
// .csv.gz import run on two cores. Every return stops the inflater and waits
// for it to exit, so it never reads r after the call.
func decodeTasks(r io.Reader, schema Schema) ([]Task, error) {
	if schema == nil {
		schema = NativeSchema()
	}
	in := bufio.NewReader(r)
	if magic, err := in.Peek(2); err == nil && magic[0] == gzipMagic[0] && magic[1] == gzipMagic[1] {
		zr, err := gzip.NewReader(in)
		if err != nil {
			return nil, err
		}
		inf := inflate(zr)
		defer inf.stop()
		if inflating != nil {
			inflating(inf)
		}
		in = bufio.NewReader(inf)
	}
	var cr *csv.Reader
	if _, native := schema.(nativeSchema); !native {
		cr = newCSVReader(in)
	}
	var tasks taskSet
	lines := 0 // lines the scanner read; cr counts its own from 1
	for row := 0; ; {
		var t Task
		var err error
		if cr == nil {
			line, rerr := in.ReadSlice('\n')
			if rerr == io.EOF && len(line) == 0 {
				return tasks.collect(), nil
			}
			if rerr == bufio.ErrBufferFull || bytes.IndexByte(line, '"') >= 0 || bytes.IndexByte(line, '\r') >= 0 {
				var rest io.Reader = in
				if rerr != nil && rerr != bufio.ErrBufferFull {
					rest = failing{rerr} // bufio reports a read error once
				}
				cr = newCSVReader(io.MultiReader(bytes.NewReader(bytes.Clone(line)), rest))
				continue
			}
			if rerr != nil && rerr != io.EOF {
				return nil, rerr
			}
			lines++
			if line[len(line)-1] == '\n' {
				line = line[:len(line)-1]
			}
			if len(line) == 0 {
				continue // csv.Reader skips blank lines too
			}
			var f [8][]byte
			row++
			if n := split(line, f[:]); n != len(f) {
				return nil, fmt.Errorf("trace: row %d has %d columns, want %d", row, n, len(f))
			}
			if row == 1 && string(f[0]) == csvHeader[0] {
				continue
			}
			t, err = decodeNative(f[:])
		} else {
			rec, rerr := cr.Read()
			if rerr == io.EOF {
				return tasks.collect(), nil
			}
			if rerr != nil {
				if pe, ok := rerr.(*csv.ParseError); ok {
					pe.StartLine += lines
					pe.Line += lines
				}
				return nil, rerr
			}
			row++
			if len(rec) != schema.Columns() {
				return nil, fmt.Errorf("trace: row %d has %d columns, want %d", row, len(rec), schema.Columns())
			}
			if row == 1 && schema.Header(rec) {
				continue
			}
			t, err = schema.Decode(rec)
		}
		if err != nil {
			return nil, fmt.Errorf("trace: row %d %v", row, err)
		}
		if err := tasks.add(t, row); err != nil {
			return nil, err
		}
	}
}

func newCSVReader(r io.Reader) *csv.Reader {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1 // a ragged row gets the schema's row-numbered error
	return cr
}

// split cuts line at ',' into f and returns the number of fields, which may
// exceed len(f).
func split(line []byte, f [][]byte) int {
	n := 0
	for i := bytes.IndexByte(line, ','); i >= 0; i = bytes.IndexByte(line, ',') {
		if n < len(f) {
			f[n] = line[:i]
		}
		n++
		line = line[i+1:]
	}
	if n < len(f) {
		f[n] = line
	}
	return n + 1
}

// failing is a reader stuck on one error.
type failing struct{ err error }

func (f failing) Read([]byte) (int, error) { return 0, f.err }

// chunkTasks caps the chunks a taskSet fills.
const chunkTasks = 4096

// taskSet collects validated tasks in row order and refuses a repeated ID.
// Tasks fill chunks, each as large as all before it from 64 up to chunkTasks
// tasks, that collect copies once into an exact-length slice, so no regrowth
// copies the list and a small import stays small. IDs are marked in a bitset
// while every ID so far lies in [0, 8·row+1Mi), so the bitset never outgrows a byte
// per row plus 128 KiB; the first ID outside that range moves them into a
// map, so hostile IDs cannot size the bitset.
type taskSet struct {
	chunks   [][]Task
	n        int // tasks held
	firstRow int // row of the first task; every later row is a task too
	bits     []uint64
	seen     map[int]struct{} // replaces bits once an ID leaves their range
}

// add validates t, read on row, and keeps it unless its ID repeats.
func (s *taskSet) add(t Task, row int) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("trace: row %d: %w", row, err)
	}
	if s.seenBefore(t.ID, row) {
		return fmt.Errorf("trace: row %d duplicates task ID %d (first seen on row %d)", row, t.ID, s.rowOf(t.ID))
	}
	if s.n == 0 {
		s.firstRow = row
	}
	if k := len(s.chunks) - 1; k < 0 || len(s.chunks[k]) == cap(s.chunks[k]) {
		s.chunks = append(s.chunks, make([]Task, 0, min(chunkTasks, max(64, s.n))))
	}
	last := &s.chunks[len(s.chunks)-1]
	*last = append(*last, t)
	s.n++
	return nil
}

// seenBefore marks id and reports whether it was marked already.
func (s *taskSet) seenBefore(id, row int) bool {
	if s.seen == nil && id >= 0 && id < 8*row+1<<20 {
		w, bit := id>>6, uint64(1)<<(id&63)
		if w >= len(s.bits) {
			s.bits = append(s.bits, make([]uint64, w+1-len(s.bits))...)
		}
		dup := s.bits[w]&bit != 0
		s.bits[w] |= bit
		return dup
	}
	if s.seen == nil {
		s.seen = make(map[int]struct{}, s.n+1)
		for _, c := range s.chunks {
			for _, t := range c {
				s.seen[t.ID] = struct{}{}
			}
		}
		s.bits = nil
	}
	_, dup := s.seen[id]
	s.seen[id] = struct{}{}
	return dup
}

// rowOf is the row the task with id was read on; only an error needs it.
func (s *taskSet) rowOf(id int) int {
	i := 0
	for _, c := range s.chunks {
		for _, t := range c {
			if t.ID == id {
				return s.firstRow + i
			}
			i++
		}
	}
	return 0
}

// collect returns the tasks in one exact-length slice.
func (s *taskSet) collect() []Task {
	out := make([]Task, 0, s.n)
	for _, c := range s.chunks {
		out = append(out, c...)
	}
	return out
}

// inflating, when a test sets it, sees each inflater before the decoder reads
// from it.
var inflating func(*inflater)

// The inflater's ring: at most ringBlocks blocks of up to blockSize bytes.
const (
	ringBlocks = 4
	blockSize  = 256 << 10
)

// inflater runs a gzip stream on a goroutine of its own into a ring of
// recycled blocks and hands them to Read in stream order. The goroutine
// waits only when every block is inflated and unread.
type inflater struct {
	full   chan block    // inflated blocks in stream order
	free   chan []byte   // blocks Read has drained, for reuse
	quit   chan struct{} // closed by stop
	done   chan struct{} // closed when the goroutine exits
	held   block         // the block Read is draining
	unread []byte        // its bytes Read has not returned yet
}

// block is a run of inflated bytes; a non-nil err ends the stream after them.
type block struct {
	b   []byte
	err error
}

func inflate(zr io.Reader) *inflater {
	f := &inflater{
		full: make(chan block, ringBlocks), free: make(chan []byte, ringBlocks),
		quit: make(chan struct{}), done: make(chan struct{}),
	}
	go f.run(zr)
	return f
}

// run fills blocks until the stream ends or fails or stop is called. The
// ring grows with the stream: blocks start at 4 KiB and each is four times
// the last up to blockSize, and a smaller block coming back is replaced, so a
// small stream stays small. Neither channel send blocks: each channel holds
// every block there is.
func (f *inflater) run(zr io.Reader) {
	defer close(f.done)
	for made, size := 0, 4<<10; ; size = min(4*size, blockSize) {
		var b []byte
		select {
		case <-f.quit:
			return
		case b = <-f.free:
		default:
			if made < ringBlocks {
				made++
				break
			}
			select {
			case <-f.quit:
				return
			case b = <-f.free:
			}
		}
		if len(b) < size {
			b = make([]byte, size)
		}
		n := 0
		var err error
		for n < len(b) && err == nil {
			var m int
			m, err = zr.Read(b[n:])
			n += m
		}
		f.full <- block{b[:n], err}
		if err != nil {
			return
		}
	}
}

// Read returns the inflated stream, then its error (io.EOF at the end) for
// good.
func (f *inflater) Read(p []byte) (int, error) {
	for len(f.unread) == 0 {
		if f.held.err != nil {
			return 0, f.held.err
		}
		if f.held.b != nil {
			f.free <- f.held.b[:cap(f.held.b)]
		}
		f.held = <-f.full
		f.unread = f.held.b
	}
	n := copy(p, f.unread)
	f.unread = f.unread[n:]
	return n, nil
}

// stop ends the goroutine and waits for it to exit.
func (f *inflater) stop() {
	close(f.quit)
	<-f.done
}

// importCoresPerServer sizes the derived fleet when ImportOptions.Machines
// is left zero: 8 cores per server, consolidation.DefaultServerSpec's shape.
const importCoresPerServer = 8.0

// ImportOptions parameterises Import. The zero value imports the native
// schema and derives the fleet size and horizon from the tasks themselves.
type ImportOptions struct {
	// Schema adapts the column layout; nil selects NativeSchema.
	Schema Schema
	// Name labels the imported trace ("imported" by default).
	Name string
	// Machines is the fleet size the trace targets. Zero derives it from the
	// peak concurrently booked CPU at 8 cores per server (the default server
	// spec), so the replayed fleet is busy without being overcommitted.
	Machines int
	// HorizonSec is the trace duration. Zero derives the latest task end.
	HorizonSec int64
}

// Import streams a .csv/.csv.gz trace into a replayable Trace: rows are
// decoded and validated one at a time (raw records are never materialized in
// bulk, and a native-schema row allocates nothing), a .csv.gz is inflated
// ahead of the decoder on a second core, tasks land sorted by (StartSec, ID),
// and the fleet size and horizon are derived when not given. The result always passes
// Trace.Validate. Hand it to the offline engines (dcsim) or the online control
// plane (autopilot); both replay it through one dcsim.ReplayIndex.
func Import(r io.Reader, opts ImportOptions) (*Trace, error) {
	tasks, err := decodeTasks(r, opts.Schema)
	if err != nil {
		return nil, err
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("trace: import: no tasks in input")
	}
	tr := &Trace{Name: opts.Name, Machines: opts.Machines, HorizonSec: opts.HorizonSec, Tasks: tasks}
	if tr.Name == "" {
		tr.Name = "imported"
	}
	finalizeImported(tr)
	if err := tr.Validate(); err != nil {
		return nil, err // already "trace: ..."
	}
	return tr, nil
}

// finalizeImported sorts the tasks and derives the missing fleet metadata.
// EncodeCSV emits rows in this order already, so the usual import only checks
// it.
func finalizeImported(tr *Trace) {
	byStartThenID := func(a, b Task) int {
		return cmp.Or(cmp.Compare(a.StartSec, b.StartSec), cmp.Compare(a.ID, b.ID))
	}
	if !slices.IsSortedFunc(tr.Tasks, byStartThenID) {
		slices.SortFunc(tr.Tasks, byStartThenID)
	}
	if tr.HorizonSec == 0 {
		for _, t := range tr.Tasks {
			if t.EndSec > tr.HorizonSec {
				tr.HorizonSec = t.EndSec
			}
		}
	}
	if tr.Machines == 0 {
		tr.Machines = derivedMachines(tr.Tasks)
	}
}

// derivedMachines sizes a fleet for the tasks: the peak concurrently booked
// CPU divided across importCoresPerServer-core servers, at least 1.
func derivedMachines(tasks []Task) int {
	type event struct {
		at     int64
		depart bool
		cpu    float64
	}
	events := make([]event, 0, 2*len(tasks))
	for _, t := range tasks {
		events = append(events, event{t.StartSec, false, t.BookedCPU}, event{t.EndSec, true, t.BookedCPU})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].depart && !events[j].depart // departs release first
	})
	var cur, peak float64
	for _, e := range events {
		if e.depart {
			cur -= e.cpu
		} else {
			cur += e.cpu
		}
		if cur > peak {
			peak = cur
		}
	}
	m := int(math.Ceil(peak / importCoresPerServer))
	if m < 1 {
		m = 1
	}
	return m
}

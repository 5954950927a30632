package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
)

// The streaming importer: real cluster traces run to millions of tasks, and
// the original CSV decoder slurped every raw record through csv.ReadAll before
// decoding — holding the whole file's strings and the whole task list in
// memory at once, and happily accepting invalid tasks and duplicate IDs. The
// importer here decodes one record at a time straight into validated Tasks,
// rejects duplicates with row-numbered errors and sniffs gzip transparently,
// so a million-task .csv.gz replays with nothing but the Task structs
// resident. It reads one layout, EncodeCSV's:
//
//	id,job,start_sec,end_sec,booked_cpu,booked_mem_gib,used_cpu,used_mem_gib

// decodeNative parses the layout's eight fields, for addRow: on byte slices of
// the row scanner's read buffer and on decodeCSV's strings. string(f) of a
// byte slice does not escape strconv, so neither allocates per field, and the
// two share every error text. The four demands go through parseDecimal.
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
	if t.BookedCPU, err = parseDecimal(rec[4]); err != nil {
		return Task{}, fmt.Errorf("booked cpu: %w", err)
	}
	if t.BookedMemGiB, err = parseDecimal(rec[5]); err != nil {
		return Task{}, fmt.Errorf("booked mem: %w", err)
	}
	if t.UsedCPU, err = parseDecimal(rec[6]); err != nil {
		return Task{}, fmt.Errorf("used cpu: %w", err)
	}
	if t.UsedMemGiB, err = parseDecimal(rec[7]); err != nil {
		return Task{}, fmt.Errorf("used mem: %w", err)
	}
	return t, nil
}

// parseDecimal is strconv.ParseFloat(s, 64), value and error, with an exact
// fast path for the decimals EncodeCSV writes: [0-9]+(\.[0-9]+)? with at most
// 19 significant and 19 fraction digits is m / 10^k for integers m < 2^64 and
// k <= 19. For m <= 2^53 one float64 divide of two exact operands is exact
// (Clinger, PLDI 1990); otherwise a 128/64-bit integer divide of m·2^s by 10^k
// leaves 62 to 64 quotient bits and a remainder, enough to round to nearest
// even. Every other string goes to strconv.
func parseDecimal[F string | []byte](s F) (float64, error) {
	var m uint64
	i := 0
	for i < len(s) && s[i] == '0' { // leading zeros are not significant
		i++
	}
	first := i
	for ; i < len(s) && s[i]-'0' <= 9; i++ {
		m = m*10 + uint64(s[i]-'0')
	}
	sig := i - first // significant digits
	k := 0           // fraction digits
	if i < len(s) {
		if s[i] != '.' || i == 0 || i == len(s)-1 {
			return strconv.ParseFloat(string(s), 64)
		}
		k = len(s) - i - 1
		for i++; m == 0 && i < len(s) && s[i] == '0'; i++ {
		}
		sig += len(s) - i
		for ; i < len(s); i++ {
			if s[i]-'0' > 9 {
				return strconv.ParseFloat(string(s), 64)
			}
			m = m*10 + uint64(s[i]-'0')
		}
	}
	switch {
	case len(s) == 0 || sig > 19 || k > 19: // m may have overflowed
		return strconv.ParseFloat(string(s), 64)
	case m <= 1<<53:
		return float64(m) / pow10[k], nil
	}
	d := uint64(pow10[k])
	sh := uint(63 - bits.Len64(m) + bits.Len64(d)) // puts the quotient in [2^62, 2^64)
	hi, lo := m>>(64-sh), m<<sh
	if sh >= 64 {
		hi, lo = m<<(sh-64), 0
	}
	q, r := bits.Div64(hi, lo, d)
	drop := uint(bits.Len64(q) - 53)
	mant, rest, half := q>>drop, q&(1<<drop-1), uint64(1)<<(drop-1)
	if rest > half || rest == half && (r != 0 || mant&1 == 1) {
		mant++
	}
	exp := int(drop) - int(sh) + 52 + 1023 // the value is mant·2^(drop-sh), mant in [2^52, 2^53]
	if mant == 1<<53 {
		mant, exp = mant>>1, exp+1
	}
	return math.Float64frombits(uint64(exp)<<52 | mant&(1<<52-1)), nil
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// decodeTasks decodes plain or gzip CSV one row at a time: besides the tasks
// it returns it holds only its read buffers and the duplicate-ID index, never
// the raw records. Every row must have the layout's eight columns; a leading
// header row is skipped; every task must pass Task.Validate and carry a
// previously unseen ID, so a file names each VM once. Violations error with
// the 1-based row number.
//
// Rows are cut at ',' straight out of the read buffer and parsed with no
// allocation per row. A line with a '"' or '\r', or one longer than the
// buffer, hands itself and the rest of the input to decodeCSV; the two return
// the same tasks and the same errors for the same bytes.
//
// Gzip input is sniffed by its magic bytes and inflated by gunzip on a
// goroutine of its own, up to a ring of blocks ahead of the decoder, so the
// two halves of a .csv.gz import run on two cores; the row decode is the
// slower half. Every return stops the inflater and waits for it to exit, so
// it never reads r after the call.
func decodeTasks(r io.Reader) ([]Task, error) {
	in := bufio.NewReader(r)
	if magic, err := in.Peek(2); err == nil && magic[0] == gzipMagic[0] && magic[1] == gzipMagic[1] {
		inf := inflate(in)
		defer inf.stop()
		if inflating != nil {
			inflating(inf)
		}
		in = bufio.NewReader(inf)
	}
	var tasks taskSet
	for row, lines := 0, 0; ; {
		line, rerr := in.ReadSlice('\n')
		if rerr == io.EOF && len(line) == 0 {
			return tasks.collect(), nil
		}
		if rerr == bufio.ErrBufferFull || bytes.IndexByte(line, '"') >= 0 || bytes.IndexByte(line, '\r') >= 0 {
			var rest io.Reader = in
			if rerr != nil && rerr != bufio.ErrBufferFull {
				rest = failing{rerr} // bufio reports a read error once
			}
			return decodeCSV(io.MultiReader(bytes.NewReader(bytes.Clone(line)), rest), &tasks, row, lines)
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
		if err := addRow(&tasks, f[:], row); err != nil {
			return nil, err
		}
	}
}

// decodeCSV decodes the rest of the input with encoding/csv into tasks, which
// holds the rows before it: row of them, on lines lines. It reads what the row
// scanner cannot (quoted fields, '\r', over-long lines), and from row 1 it is
// the reference the scanner is tested against.
func decodeCSV(r io.Reader, tasks *taskSet, row, lines int) ([]Task, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1 // a ragged row gets the row-numbered error below
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return tasks.collect(), nil
		}
		if err != nil {
			if pe, ok := err.(*csv.ParseError); ok {
				pe.StartLine += lines
				pe.Line += lines
			}
			return nil, err
		}
		row++
		if len(rec) != len(csvHeader) {
			return nil, fmt.Errorf("trace: row %d has %d columns, want %d", row, len(rec), len(csvHeader))
		}
		if err := addRow(tasks, rec, row); err != nil {
			return nil, err
		}
	}
}

// addRow decodes the fields read on row into a task and adds it, unless they
// are a leading header.
func addRow[F string | []byte](tasks *taskSet, rec []F, row int) error {
	if row == 1 && string(rec[0]) == csvHeader[0] {
		return nil
	}
	t, err := decodeNative(rec)
	if err != nil {
		return fmt.Errorf("trace: row %d %v", row, err)
	}
	return tasks.add(t, row)
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

// inflater runs a gzip stream through gunzip on a goroutine of its own into
// a ring of recycled blocks and hands them to Read in stream order. The
// goroutine waits only when every block is inflated and unread.
type inflater struct {
	full   chan block    // inflated blocks in stream order
	free   chan []byte   // buffers Read has drained, for reuse
	quit   chan struct{} // closed by stop
	done   chan struct{} // closed when the goroutine exits
	held   block         // the block Read is draining
	unread []byte        // its bytes Read has not returned yet
}

// block is a run of inflated bytes in its buffer, after the history the run
// was inflated against; a non-nil err ends the stream after them.
type block struct {
	b, buf []byte
	err    error
}

func inflate(r io.Reader) *inflater {
	f := &inflater{
		full: make(chan block, ringBlocks), free: make(chan []byte, ringBlocks),
		quit: make(chan struct{}), done: make(chan struct{}),
	}
	go f.run(newGunzip(r))
	return f
}

// run fills blocks until the stream ends or fails or stop is called. The
// ring grows with the stream: blocks start at 4 KiB and each is four times
// the last up to blockSize, and a smaller buffer coming back is replaced, so
// a small stream stays small. Neither channel send blocks: each channel holds
// every block there is.
func (f *inflater) run(z *gunzip) {
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
		buf, run, err := z.fill(b, size)
		f.full <- block{run, buf, err}
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
		if f.held.buf != nil {
			f.free <- f.held.buf
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

// ImportOptions parameterises Import. The zero value derives the fleet size
// and horizon from the tasks themselves.
type ImportOptions struct {
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
// bulk, and a row allocates nothing), a .csv.gz is inflated ahead of the
// decoder on a second core, tasks land sorted by (StartSec, ID), and the fleet
// size and horizon are derived when not given. The result always passes
// Trace.Validate. Hand it to the offline engines (dcsim), which read it
// directly, or to the online control plane (autopilot), which replays it
// through its replay index.
func Import(r io.Reader, opts ImportOptions) (*Trace, error) {
	tasks, err := decodeTasks(r)
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
	if err := finalizeImported(tr); err != nil {
		return nil, err
	}
	return tr, nil
}

// finalizeImported sorts the tasks, derives the missing fleet metadata, and
// checks what taskSet.add did not: the metadata, then that every task lies
// within the horizon, with Trace.Validate's error. EncodeCSV emits rows in
// this order already, so the usual import only checks it.
func finalizeImported(tr *Trace) error {
	sortByStartThenID(tr.Tasks)
	var outside *Task // the first task outside the horizon
	derive := tr.HorizonSec == 0
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		if derive {
			tr.HorizonSec = max(tr.HorizonSec, t.EndSec)
		}
		if outside == nil && (t.StartSec < 0 || !derive && t.EndSec > tr.HorizonSec) {
			outside = t
		}
	}
	if tr.Machines == 0 {
		tr.Machines = derivedMachines(tr.Tasks)
	}
	if err := tr.ValidateMeta(); err != nil || outside == nil {
		return err
	}
	return outside.ValidateIn(tr.HorizonSec)
}

// derivedMachines sizes a fleet for the tasks: the peak concurrently booked
// CPU divided across importCoresPerServer-core servers, at least 1.
func derivedMachines(tasks []Task) int {
	peak := peakLoad(tasks, func(t *Task) float64 { return t.BookedCPU })
	return max(1, int(math.Ceil(peak/importCoresPerServer)))
}

package trace

import (
	"bufio"
	"cmp"
	"compress/gzip"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
)

// The streaming importer: real cluster traces run to millions of tasks, and
// the original CSV decoder slurped every raw record through csv.ReadAll before
// decoding — holding the whole file's strings and the whole task list in
// memory at once, and happily accepting invalid tasks and duplicate IDs
// (whose task-%d VMIDs silently merge distinct VMs in both planners). The
// Reader here decodes one record at a time straight into validated Tasks,
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
	// ("id: ..."); the Reader prefixes the row number.
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

func (nativeSchema) Decode(rec []string) (Task, error) {
	var t Task
	var err error
	if t.ID, err = strconv.Atoi(rec[0]); err != nil {
		return Task{}, fmt.Errorf("id: %w", err)
	}
	if t.JobID, err = strconv.Atoi(rec[1]); err != nil {
		return Task{}, fmt.Errorf("job: %w", err)
	}
	if t.StartSec, err = strconv.ParseInt(rec[2], 10, 64); err != nil {
		return Task{}, fmt.Errorf("start: %w", err)
	}
	if t.EndSec, err = strconv.ParseInt(rec[3], 10, 64); err != nil {
		return Task{}, fmt.Errorf("end: %w", err)
	}
	if t.BookedCPU, err = strconv.ParseFloat(rec[4], 64); err != nil {
		return Task{}, fmt.Errorf("booked cpu: %w", err)
	}
	if t.BookedMemGiB, err = strconv.ParseFloat(rec[5], 64); err != nil {
		return Task{}, fmt.Errorf("booked mem: %w", err)
	}
	if t.UsedCPU, err = strconv.ParseFloat(rec[6], 64); err != nil {
		return Task{}, fmt.Errorf("used cpu: %w", err)
	}
	if t.UsedMemGiB, err = strconv.ParseFloat(rec[7], 64); err != nil {
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

// Reader decodes tasks record-at-a-time from plain or gzip CSV. Nothing but
// the csv.Reader's reused record buffer and the duplicate-ID index is held
// between calls, so the peak footprint of a full read is the tasks the
// caller keeps — never the raw records. A Reader is single-consumer.
type Reader struct {
	cr     *csv.Reader
	schema Schema
	row    int         // 1-based physical row of the last record read
	seen   map[int]int // task ID -> first row it appeared on
}

// NewReader wraps r in a streaming task decoder for the schema (nil selects
// NativeSchema). Gzip input is sniffed by its magic bytes and inflated
// transparently, as with DecodeCSV.
func NewReader(r io.Reader, schema Schema) (*Reader, error) {
	if schema == nil {
		schema = NativeSchema()
	}
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == gzipMagic[0] && magic[1] == gzipMagic[1] {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, err
		}
		cr := csv.NewReader(zr)
		cr.ReuseRecord = true
		return &Reader{cr: cr, schema: schema, seen: make(map[int]int)}, nil
	}
	cr := csv.NewReader(br)
	cr.ReuseRecord = true
	return &Reader{cr: cr, schema: schema, seen: make(map[int]int)}, nil
}

// Read returns the next task, or io.EOF when the input is exhausted. A
// leading header row is skipped; every decoded task must pass Task.Validate
// and carry a previously unseen ID — violations error with the 1-based row
// number, because a duplicate ID would silently merge two distinct VMs under
// one task-%d VMID in both the offline replayer and the online admitted set.
func (r *Reader) Read() (Task, error) {
	for {
		rec, err := r.cr.Read()
		if err != nil {
			return Task{}, err
		}
		r.row++
		if r.row == 1 && r.schema.Header(rec) {
			continue
		}
		if len(rec) != r.schema.Columns() {
			return Task{}, fmt.Errorf("trace: row %d has %d columns, want %d", r.row, len(rec), r.schema.Columns())
		}
		t, err := r.schema.Decode(rec)
		if err != nil {
			return Task{}, fmt.Errorf("trace: row %d %v", r.row, err)
		}
		if err := t.Validate(); err != nil {
			return Task{}, fmt.Errorf("trace: row %d: %w", r.row, err)
		}
		if first, dup := r.seen[t.ID]; dup {
			return Task{}, fmt.Errorf("trace: row %d duplicates task ID %d (first seen on row %d)", r.row, t.ID, first)
		}
		r.seen[t.ID] = r.row
		return t, nil
	}
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

// Import streams a .csv/.csv.gz trace into a replayable Trace: records are
// decoded and validated one at a time through Reader (raw records are never
// materialized in bulk), tasks land sorted by (StartSec, ID), and the fleet
// size and horizon are derived when not given. The result always passes
// Trace.Validate. Feed it to NewStream for the online control plane or to
// the offline engines directly.
func Import(r io.Reader, opts ImportOptions) (*Trace, error) {
	rd, err := NewReader(r, opts.Schema)
	if err != nil {
		return nil, err
	}
	tr := &Trace{Name: opts.Name, Machines: opts.Machines, HorizonSec: opts.HorizonSec}
	if tr.Name == "" {
		tr.Name = "imported"
	}
	for {
		t, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		tr.Tasks = append(tr.Tasks, t)
	}
	if len(tr.Tasks) == 0 {
		return nil, fmt.Errorf("trace: import: no tasks in input")
	}
	finalizeImported(tr)
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("trace: import: %w", err)
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

// ImportFile opens and imports a .csv or .csv.gz trace from disk.
func ImportFile(path string, opts ImportOptions) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Import(f, opts)
}

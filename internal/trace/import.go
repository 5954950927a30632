package trace

import (
	"bufio"
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

// decodeTasks decodes plain or gzip CSV for the schema (nil selects
// NativeSchema) one record at a time: besides the tasks it returns it holds
// only the csv reader's reused record buffer and the duplicate-ID index, never
// the raw records. Every row must have the schema's columns; a leading header
// row is skipped; every task must pass Task.Validate and carry a previously
// unseen ID, so a file names each VM once.
// Violations error with the 1-based row number.
//
// Gzip input is sniffed by its magic bytes and inflated on a goroutine of its
// own, at most one pipe write ahead of the decoder, so the two halves of a
// .csv.gz import run on two cores. Every return closes the pipe's read end and
// waits for the inflater to exit, so it never reads r after the call.
func decodeTasks(r io.Reader, schema Schema) ([]Task, error) {
	if schema == nil {
		schema = NativeSchema()
	}
	br := bufio.NewReader(r)
	var in io.Reader = br
	if magic, err := br.Peek(2); err == nil && magic[0] == gzipMagic[0] && magic[1] == gzipMagic[1] {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, err
		}
		pr, pw := io.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, err := io.Copy(pw, zr)
			pw.CloseWithError(err)
		}()
		defer func() {
			pr.Close()
			<-done
		}()
		// Room for two of io.Copy's 32 KiB writes: the decoder takes each
		// write whole, which frees the inflater to produce the next one.
		in = bufio.NewReaderSize(pr, 64<<10)
	}
	cr := csv.NewReader(in)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1 // a ragged row gets the schema's row-numbered error
	var tasks []Task
	seen := make(map[int]int) // task ID -> first row it appeared on
	for row := 1; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return tasks, nil
		}
		if err != nil {
			return nil, err
		}
		if len(rec) != schema.Columns() {
			return nil, fmt.Errorf("trace: row %d has %d columns, want %d", row, len(rec), schema.Columns())
		}
		if row == 1 && schema.Header(rec) {
			continue
		}
		t, err := schema.Decode(rec)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d %v", row, err)
		}
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("trace: row %d: %w", row, err)
		}
		if first, dup := seen[t.ID]; dup {
			return nil, fmt.Errorf("trace: row %d duplicates task ID %d (first seen on row %d)", row, t.ID, first)
		}
		seen[t.ID] = row
		tasks = append(tasks, t)
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
// decoded and validated one at a time (raw records are never materialized in
// bulk), tasks land sorted by (StartSec, ID), and the fleet size and horizon
// are derived when not given. The result always passes
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

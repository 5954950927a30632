package trace

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
)

// Task is one unit of work (the paper treats each task's container as a VM).
type Task struct {
	// ID is unique within a trace.
	ID int
	// JobID groups tasks submitted together.
	JobID int
	// StartSec and EndSec bound the task's execution, in seconds from the
	// trace origin.
	StartSec int64
	EndSec   int64
	// BookedCPU is the requested CPU in cores.
	BookedCPU float64
	// BookedMemGiB is the requested memory in GiB.
	BookedMemGiB float64
	// UsedCPU is the average CPU actually consumed, in cores.
	UsedCPU float64
	// UsedMemGiB is the average memory actually consumed, in GiB.
	UsedMemGiB float64
}

// Duration returns the task duration in seconds.
func (t Task) Duration() int64 { return t.EndSec - t.StartSec }

// VMID is the task's name as a VM, "task-%d", for front ends that create
// named VMs; it is built on the stack so the string is the only allocation.
// The simulators never read it: a replay knows a VM by its place in the
// arrival order (ArrivalOrder).
func (t Task) VMID() string {
	var buf [len("task-") + 20]byte
	return string(strconv.AppendInt(append(buf[:0], "task-"...), int64(t.ID), 10))
}

// Validate checks the task for consistency.
func (t *Task) Validate() error {
	if t.EndSec <= t.StartSec {
		return fmt.Errorf("trace: task %d ends (%d) before it starts (%d)", t.ID, t.EndSec, t.StartSec)
	}
	// NaN fails every comparison below and +Inf passes them, and the CSV
	// parser accepts both spellings. x-x is 0 for a finite x and NaN
	// otherwise.
	if t.BookedCPU-t.BookedCPU != 0 || t.BookedMemGiB-t.BookedMemGiB != 0 ||
		t.UsedCPU-t.UsedCPU != 0 || t.UsedMemGiB-t.UsedMemGiB != 0 {
		return fmt.Errorf("trace: task %d has a non-finite demand", t.ID)
	}
	if t.BookedCPU <= 0 || t.BookedMemGiB <= 0 {
		return fmt.Errorf("trace: task %d books non-positive resources", t.ID)
	}
	if t.UsedCPU < 0 || t.UsedCPU > t.BookedCPU*1.5 {
		return fmt.Errorf("trace: task %d uses implausible CPU %v (booked %v)", t.ID, t.UsedCPU, t.BookedCPU)
	}
	if t.UsedMemGiB < 0 || t.UsedMemGiB > t.BookedMemGiB*1.5 {
		return fmt.Errorf("trace: task %d uses implausible memory %v (booked %v)", t.ID, t.UsedMemGiB, t.BookedMemGiB)
	}
	return nil
}

// Trace is a set of tasks plus the fleet size they were scheduled on.
type Trace struct {
	// Name labels the trace ("google-like", "google-like-modified", ...).
	Name string
	// Machines is the number of servers in the original cluster.
	Machines int
	// HorizonSec is the trace duration.
	HorizonSec int64
	// Tasks are sorted by StartSec.
	Tasks []Task
}

// Validate checks the trace metadata, then every task in order.
func (tr *Trace) Validate() error {
	err := tr.ValidateMeta()
	for i := 0; err == nil && i < len(tr.Tasks); i++ {
		err = tr.Tasks[i].ValidateIn(tr.HorizonSec)
	}
	return err
}

// ValidateMeta checks the trace metadata: a fleet and a horizon.
func (tr *Trace) ValidateMeta() error {
	if tr.Machines <= 0 {
		return fmt.Errorf("trace: needs a positive machine count")
	}
	if tr.HorizonSec <= 0 {
		return fmt.Errorf("trace: needs a positive horizon")
	}
	return nil
}

// ValidateIn is Trace.Validate's check of one task of a trace whose horizon
// is horizonSec: Validate, then that the task lies within the horizon.
func (t *Task) ValidateIn(horizonSec int64) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if t.StartSec < 0 || t.EndSec > horizonSec {
		return fmt.Errorf("trace: task %d outside the horizon", t.ID)
	}
	return nil
}

// sortByStartThenID moves tasks along the cycles of ArrivalOrder's permutation
// into that order; a list in it already, as EncodeCSV writes one, is checked.
func sortByStartThenID(tasks []Task) {
	if InArrivalOrder(tasks) {
		return
	}
	order := ArrivalOrder(tasks)
	for i := range order {
		first, j := tasks[i], i
		for ; int(order[j]) != i; j, order[j] = int(order[j]), int32(j) {
			tasks[j] = tasks[order[j]]
		}
		tasks[j], order[j] = first, int32(j)
	}
}

// Stats summarises a trace.
type Stats struct {
	Tasks            int
	MeanDurationSec  float64
	MeanBookedCPU    float64
	MeanBookedMemGiB float64
	MeanUsedCPU      float64
	MeanUsedMemGiB   float64
	// MemToCPURatio is mean booked memory (GiB) / mean booked CPU (cores).
	MemToCPURatio float64
	// PeakConcurrentTasks is the maximum number of tasks running at once.
	PeakConcurrentTasks int
}

// ComputeStats summarises the trace.
func (tr *Trace) ComputeStats() Stats {
	s := Stats{Tasks: len(tr.Tasks)}
	if len(tr.Tasks) == 0 {
		return s
	}
	for _, t := range tr.Tasks {
		s.MeanDurationSec += float64(t.Duration())
		s.MeanBookedCPU += t.BookedCPU
		s.MeanBookedMemGiB += t.BookedMemGiB
		s.MeanUsedCPU += t.UsedCPU
		s.MeanUsedMemGiB += t.UsedMemGiB
	}
	n := float64(len(tr.Tasks))
	s.MeanDurationSec /= n
	s.MeanBookedCPU /= n
	s.MeanBookedMemGiB /= n
	s.MeanUsedCPU /= n
	s.MeanUsedMemGiB /= n
	if s.MeanBookedCPU > 0 {
		s.MemToCPURatio = s.MeanBookedMemGiB / s.MeanBookedCPU
	}
	s.PeakConcurrentTasks = peakLoad(tr.Tasks, func(*Task) int { return 1 })
	return s
}

// GeneratorConfig parameterises the synthetic trace generator.
type GeneratorConfig struct {
	// Name labels the generated trace.
	Name string
	// Machines is the fleet size the trace targets.
	Machines int
	// HorizonSec is the trace duration (the paper's traces span 29 days; the
	// default here is one simulated day, which the simulator can loop).
	HorizonSec int64
	// Tasks is the number of tasks to generate.
	Tasks int
	// MemoryToCPURatio is the booked memory (GiB) per booked CPU core. In the
	// Google traces memory demand saturates before CPU relative to the
	// servers' capacity (the paper's premise); the default reproduces that.
	// The paper's modified set doubles the memory demand. Zero selects the
	// default (3.0); negative values are rejected.
	MemoryToCPURatio float64
	// MeanUtilization is the ratio of used to booked resources (DC tasks
	// typically use well under half of what they book). Zero selects the
	// default (0.35); values outside (0, 1] are rejected.
	MeanUtilization float64
	// IdleFraction is the fraction of tasks that are practically idle (CPU
	// utilization below 1%) but still hold their memory — the population
	// Oasis's partial migration targets.
	IdleFraction float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultConfig returns a one-day, 200-machine, 3000-task configuration with
// the original (already memory-leaning) demand mix.
func DefaultConfig() GeneratorConfig {
	return GeneratorConfig{
		Name:             "google-like",
		Machines:         200,
		HorizonSec:       24 * 3600,
		Tasks:            3000,
		MemoryToCPURatio: 3.0,
		MeanUtilization:  0.35,
		IdleFraction:     0.25,
		Seed:             42,
	}
}

// ModifiedConfig returns the same configuration with the memory demand
// doubled relative to CPU, the paper's "modified traces".
func ModifiedConfig() GeneratorConfig {
	cfg := DefaultConfig()
	cfg.Name = "google-like-modified"
	cfg.MemoryToCPURatio = 2 * cfg.MemoryToCPURatio
	return cfg
}

// Generate builds a synthetic trace. Zero-valued MemoryToCPURatio and
// MeanUtilization take the DefaultConfig values; explicitly out-of-range
// tuning is rejected upfront with the valid range (the cliflag idiom) rather
// than silently rewritten, so a typo'd experiment config fails loudly instead
// of producing a subtly different workload.
func Generate(cfg GeneratorConfig) (*Trace, error) {
	if err := (Spec{Machines: cfg.Machines, Tasks: cfg.Tasks, HorizonSec: cfg.HorizonSec}).Validate(); err != nil {
		return nil, err
	}
	if cfg.MemoryToCPURatio == 0 {
		cfg.MemoryToCPURatio = 3.0
	}
	if cfg.MeanUtilization == 0 {
		cfg.MeanUtilization = 0.35
	}
	if cfg.MemoryToCPURatio < 0 {
		return nil, fmt.Errorf("trace: generator MemoryToCPURatio %g out of range (need > 0)", cfg.MemoryToCPURatio)
	}
	if cfg.MeanUtilization < 0 || cfg.MeanUtilization > 1 {
		return nil, fmt.Errorf("trace: generator MeanUtilization %g out of range (need 0 < u <= 1)", cfg.MeanUtilization)
	}
	if cfg.IdleFraction < 0 || cfg.IdleFraction >= 1 {
		return nil, fmt.Errorf("trace: generator IdleFraction %g out of range (need 0 <= f < 1)", cfg.IdleFraction)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{Name: cfg.Name, Machines: cfg.Machines, HorizonSec: cfg.HorizonSec}

	jobID := 0
	for i := 0; i < cfg.Tasks; i++ {
		if i%4 == 0 {
			jobID++
		}
		// Diurnal arrival: more tasks start during the "day" half of the
		// horizon.
		var start int64
		if rng.Float64() < 0.7 {
			start = int64(rng.Float64() * float64(cfg.HorizonSec) / 2)
		} else {
			start = cfg.HorizonSec/2 + int64(rng.Float64()*float64(cfg.HorizonSec)/2)
		}
		// Exponential-ish duration with a mean of ~1/12 of the horizon,
		// truncated to the horizon.
		dur := int64(rng.ExpFloat64() * float64(cfg.HorizonSec) / 12)
		if dur < 60 {
			dur = 60
		}
		end := start + dur
		if end > cfg.HorizonSec {
			end = cfg.HorizonSec
		}
		if end <= start {
			start = end - 60
			if start < 0 {
				start = 0
				end = 60
			}
		}
		bookedCPU := 0.5 + rng.Float64()*3.5 // 0.5 .. 4 cores
		bookedMem := bookedCPU * cfg.MemoryToCPURatio * (0.8 + rng.Float64()*0.4)
		util := cfg.MeanUtilization * (0.5 + rng.Float64())
		if util > 1 {
			util = 1
		}
		usedCPU := bookedCPU * util
		usedMem := bookedMem * util * 1.1 // memory usage tracks booking more closely
		if rng.Float64() < cfg.IdleFraction {
			// Idle task: almost no CPU, but its memory stays allocated.
			usedCPU = 0.005
			usedMem = bookedMem * 0.4
		}
		tr.Tasks = append(tr.Tasks, Task{
			ID:           i,
			JobID:        jobID,
			StartSec:     start,
			EndSec:       end,
			BookedCPU:    bookedCPU,
			BookedMemGiB: bookedMem,
			UsedCPU:      usedCPU,
			UsedMemGiB:   usedMem,
		})
	}
	sort.Slice(tr.Tasks, func(i, j int) bool { return tr.Tasks[i].StartSec < tr.Tasks[j].StartSec })
	// Clamp any memory overuse introduced by the 1.1 factor.
	for i := range tr.Tasks {
		if tr.Tasks[i].UsedMemGiB > tr.Tasks[i].BookedMemGiB {
			tr.Tasks[i].UsedMemGiB = tr.Tasks[i].BookedMemGiB
		}
	}
	return tr, nil
}

// csvHeader is the column layout of the CSV codec.
var csvHeader = []string{"id", "job", "start_sec", "end_sec", "booked_cpu", "booked_mem_gib", "used_cpu", "used_mem_gib"}

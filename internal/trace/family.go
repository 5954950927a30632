package trace

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// The workload-family engine: the paper's evaluation rests on exactly two
// synthetic "google-like" mixes, which is far too narrow a scenario space for
// the online policies to differentiate on. A Family is a seeded,
// deterministic generator with a recognizable statistical shape — diurnal
// sinusoid arrivals, flash-crowd bursts, serverless-style short tasks,
// long-running ML gangs, heavy-tail (Pareto) task sizes — all emitting the
// same Trace the simulators already replay. Compose and Overlay merge
// families into mixed scenarios with disjoint task-ID namespaces.

// FamilyParams is the envelope every family generates into: a Spec, of which
// a family reads the fleet the trace targets (Machines), its duration
// (HorizonSec), the task budget (Tasks) and the seed, and Validate checks
// them. The same params with the same family always produce a byte-identical
// trace.
type FamilyParams = Spec

// Family is one seeded, deterministic workload generator. Implementations
// are stateless value types: Generate is a pure function of the params, so a
// family value is safe to share and reuse.
type Family interface {
	// Name is the family's registry key ("diurnal", "serverless", ...).
	Name() string
	// Describe is a one-line summary of the family's statistical shape.
	Describe() string
	// Generate builds the family's trace for the envelope. Fixed params give
	// a byte-identical trace, and the result always passes Trace.Validate.
	Generate(p FamilyParams) (*Trace, error)
}

// Families returns the bundled generator families in registry order.
func Families() []Family {
	return []Family{Diurnal{}, FlashCrowd{}, Serverless{}, MLBatch{}, HeavyTail{}}
}

// FamilyNames lists the registry keys in Families order, plus the built-in
// "mix" composite (all five families overlaid).
func FamilyNames() []string {
	names := make([]string, 0, 6)
	for _, f := range Families() {
		names = append(names, f.Name())
	}
	return append(names, "mix")
}

// FamilyByName resolves a registry key, including the "mix" composite. An
// unknown name errors with the valid list.
func FamilyByName(name string) (Family, error) {
	for _, f := range Families() {
		if f.Name() == name {
			return f, nil
		}
	}
	if name == "mix" {
		return Compose("mix", Families()...), nil
	}
	return nil, fmt.Errorf("trace: unknown family %q (valid: %s)", name, strings.Join(FamilyNames(), ", "))
}

// GenerateFamily resolves a family by name and generates its trace — the
// one-call form the CLIs and the facade use.
func GenerateFamily(name string, p FamilyParams) (*Trace, error) {
	f, err := FamilyByName(name)
	if err != nil {
		return nil, err
	}
	return f.Generate(p)
}

// finalizeTasks sorts the tasks by (StartSec, ID) and clamps memory overuse,
// the invariants every family's output shares with Generate's.
func finalizeTasks(tasks []Task) {
	sortByStartThenID(tasks)
	for i := range tasks {
		if tasks[i].UsedMemGiB > tasks[i].BookedMemGiB {
			tasks[i].UsedMemGiB = tasks[i].BookedMemGiB
		}
		if tasks[i].UsedCPU > tasks[i].BookedCPU {
			tasks[i].UsedCPU = tasks[i].BookedCPU
		}
	}
}

// clampSpan truncates a (start, duration) pair to [0, horizon] while keeping
// the task at least minDur seconds long.
func clampSpan(start, dur, horizon, minDur int64) (int64, int64) {
	if dur < minDur {
		dur = minDur
	}
	if start < 0 {
		start = 0
	}
	end := start + dur
	if end > horizon {
		end = horizon
		start = end - dur
		if start < 0 {
			start = 0
		}
	}
	if end-start < minDur {
		end = start + minDur
		if end > horizon {
			end = horizon
			start = end - minDur
			if start < 0 {
				start = 0
				end = minDur
				if end > horizon {
					end = horizon
				}
			}
		}
	}
	if end <= start { // horizon shorter than minDur: take everything there is
		start, end = 0, horizon
	}
	return start, end - start
}

// Diurnal generates a sinusoidal day/night arrival pattern: the arrival rate
// follows 1 + diurnalAmplitude*sin over diurnalPeaks cycles of the horizon,
// so the fleet sees a deep night trough and a midday crest — the regime where
// hysteresis and EWMA forecasting pay off against a purely reactive policy.
type Diurnal struct{}

const (
	diurnalAmplitude float64 = 0.8 // the trough runs at 1/9 of the crest's arrival rate
	diurnalPeaks     int     = 1   // a single day in a one-day trace
)

// Name implements Family.
func (Diurnal) Name() string { return "diurnal" }

// Describe implements Family.
func (Diurnal) Describe() string {
	return "sinusoidal day/night arrival rate with a deep night trough"
}

// Generate implements Family.
func (d Diurnal) Generate(p FamilyParams) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	tasks := make([]Task, 0, p.Tasks)
	for i := 0; i < p.Tasks; i++ {
		// Rejection-sample the start against the sinusoid density: trough at
		// t=0 (midnight), crest mid-cycle.
		var start int64
		for {
			u := rng.Float64()
			density := 1 + diurnalAmplitude*math.Sin(2*math.Pi*float64(diurnalPeaks)*u-math.Pi/2)
			if rng.Float64()*(1+diurnalAmplitude) <= density {
				start = int64(u * float64(p.HorizonSec))
				break
			}
		}
		dur := int64(rng.ExpFloat64() * float64(p.HorizonSec) / 16)
		start, dur = clampSpan(start, dur, p.HorizonSec, 60)
		bookedCPU := 0.5 + rng.Float64()*3.5
		bookedMem := bookedCPU * 3 * (0.8 + rng.Float64()*0.4)
		util := 0.3 + rng.Float64()*0.3
		tasks = append(tasks, Task{
			ID: i, JobID: i/4 + 1, StartSec: start, EndSec: start + dur,
			BookedCPU: bookedCPU, BookedMemGiB: bookedMem,
			UsedCPU: bookedCPU * util, UsedMemGiB: bookedMem * util * 1.1,
		})
	}
	finalizeTasks(tasks)
	return &Trace{Name: d.Name(), Machines: p.Machines, HorizonSec: p.HorizonSec, Tasks: tasks}, nil
}

// FlashCrowd generates a low background arrival rate punctuated by a few
// tightly clustered bursts of short, hot tasks — the pattern that punishes a
// consolidated fleet with emergency wakes and rewards standing headroom.
type FlashCrowd struct{}

const (
	flashBursts        int     = 3    // flash crowds across the horizon
	flashBurstFraction float64 = 0.6  // share of tasks inside bursts; the rest trickle uniformly
	flashWidthFraction float64 = 0.02 // burst width over horizon: a half-hour spike in a day
)

// Name implements Family.
func (FlashCrowd) Name() string { return "flashcrowd" }

// Describe implements Family.
func (FlashCrowd) Describe() string {
	return "quiet background load punctuated by tight bursts of short hot tasks"
}

// Generate implements Family.
func (fc FlashCrowd) Generate(p FamilyParams) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	centers := make([]float64, flashBursts)
	for i := range centers {
		centers[i] = (0.1 + 0.8*rng.Float64()) * float64(p.HorizonSec)
	}
	width := flashWidthFraction * float64(p.HorizonSec)
	tasks := make([]Task, 0, p.Tasks)
	for i := 0; i < p.Tasks; i++ {
		var start, dur int64
		var bookedCPU float64
		if rng.Float64() < flashBurstFraction {
			// Burst task: clustered start, short and hot.
			c := centers[rng.Intn(len(centers))]
			start = int64(c + rng.NormFloat64()*width/2)
			dur = int64(rng.ExpFloat64() * float64(p.HorizonSec) / 64)
			bookedCPU = 1 + rng.Float64()*3
		} else {
			// Background trickle.
			start = int64(rng.Float64() * float64(p.HorizonSec))
			dur = int64(rng.ExpFloat64() * float64(p.HorizonSec) / 12)
			bookedCPU = 0.5 + rng.Float64()*2
		}
		start, dur = clampSpan(start, dur, p.HorizonSec, 60)
		bookedMem := bookedCPU * 2.5 * (0.8 + rng.Float64()*0.4)
		util := 0.4 + rng.Float64()*0.4
		tasks = append(tasks, Task{
			ID: i, JobID: i/8 + 1, StartSec: start, EndSec: start + dur,
			BookedCPU: bookedCPU, BookedMemGiB: bookedMem,
			UsedCPU: bookedCPU * util, UsedMemGiB: bookedMem * util,
		})
	}
	finalizeTasks(tasks)
	return &Trace{Name: fc.Name(), Machines: p.Machines, HorizonSec: p.HorizonSec, Tasks: tasks}, nil
}

// Serverless generates function-style invocations: many tiny tasks whose
// durations are dominated by execution times of seconds to minutes, with a
// fraction paying a cold-start penalty on top — the churn-heavy regime where
// per-transition ACPI costs matter most.
type Serverless struct{}

const (
	serverlessColdFraction float64 = 0.3 // share of invocations paying a cold start
	serverlessColdStartSec int64   = 30  // penalty added to a cold invocation's duration
	serverlessMeanExecSec  float64 = 120 // mean warm execution time
)

// Name implements Family.
func (Serverless) Name() string { return "serverless" }

// Describe implements Family.
func (Serverless) Describe() string {
	return "many tiny short tasks, a fraction paying a cold-start penalty"
}

// Generate implements Family.
func (s Serverless) Generate(p FamilyParams) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	tasks := make([]Task, 0, p.Tasks)
	for i := 0; i < p.Tasks; i++ {
		start := int64(rng.Float64() * float64(p.HorizonSec))
		dur := int64(rng.ExpFloat64() * serverlessMeanExecSec)
		if rng.Float64() < serverlessColdFraction {
			dur += serverlessColdStartSec
		}
		start, dur = clampSpan(start, dur, p.HorizonSec, 10)
		bookedCPU := 0.1 + rng.Float64()*0.9
		bookedMem := bookedCPU * 2 * (0.8 + rng.Float64()*0.4)
		util := 0.5 + rng.Float64()*0.4
		tasks = append(tasks, Task{
			ID: i, JobID: i/16 + 1, StartSec: start, EndSec: start + dur,
			BookedCPU: bookedCPU, BookedMemGiB: bookedMem,
			UsedCPU: bookedCPU * util, UsedMemGiB: bookedMem * util,
		})
	}
	finalizeTasks(tasks)
	return &Trace{Name: s.Name(), Machines: p.Machines, HorizonSec: p.HorizonSec, Tasks: tasks}, nil
}

// MLBatch generates long-running training jobs: gangs of tasks submitted
// together, each holding large CPU and memory bookings at high utilization
// for a large fraction of the horizon — the stable, dense regime where
// consolidation has little slack to harvest.
type MLBatch struct{}

const (
	mlGangSize        int     = 4    // tasks per job, arriving together
	mlMinDurationFrac float64 = 0.25 // job duration bounds, as fractions of the horizon
	mlMaxDurationFrac float64 = 0.9
)

// Name implements Family.
func (MLBatch) Name() string { return "mlbatch" }

// Describe implements Family.
func (MLBatch) Describe() string {
	return "long-running high-utilization training gangs submitted together"
}

// Generate implements Family.
func (m MLBatch) Generate(p FamilyParams) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	tasks := make([]Task, 0, p.Tasks)
	var gangStart int64
	var gangDur int64
	for i := 0; i < p.Tasks; i++ {
		if i%mlGangSize == 0 {
			// A new gang: submitted in the first 60% of the horizon, running
			// for a large fraction of it.
			gangStart = int64(rng.Float64() * 0.6 * float64(p.HorizonSec))
			frac := mlMinDurationFrac + rng.Float64()*(mlMaxDurationFrac-mlMinDurationFrac)
			gangDur = int64(frac * float64(p.HorizonSec))
		}
		start, dur := clampSpan(gangStart, gangDur, p.HorizonSec, 600)
		bookedCPU := 2 + rng.Float64()*6
		bookedMem := bookedCPU * 4 * (0.9 + rng.Float64()*0.2)
		util := 0.6 + rng.Float64()*0.3
		tasks = append(tasks, Task{
			ID: i, JobID: i/mlGangSize + 1, StartSec: start, EndSec: start + dur,
			BookedCPU: bookedCPU, BookedMemGiB: bookedMem,
			UsedCPU: bookedCPU * util, UsedMemGiB: bookedMem * util,
		})
	}
	finalizeTasks(tasks)
	return &Trace{Name: m.Name(), Machines: p.Machines, HorizonSec: p.HorizonSec, Tasks: tasks}, nil
}

// HeavyTail generates Pareto-distributed task sizes: most tasks are small,
// but a heavy tail of elephants books an outsized share of the fleet — the
// regime that stresses bin-packing quality and remote-memory placement.
type HeavyTail struct{}

const (
	heavyAlpha  float64 = 1.5  // Pareto shape (smaller is heavier)
	heavyMinCPU float64 = 0.25 // booked-CPU bounds
	heavyMaxCPU float64 = 16
)

// Name implements Family.
func (HeavyTail) Name() string { return "heavytail" }

// Describe implements Family.
func (HeavyTail) Describe() string {
	return "Pareto task sizes: mostly mice, a heavy tail of elephants"
}

// Generate implements Family.
func (h HeavyTail) Generate(p FamilyParams) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	tasks := make([]Task, 0, p.Tasks)
	for i := 0; i < p.Tasks; i++ {
		start := int64(rng.Float64() * float64(p.HorizonSec))
		// Bounded Pareto via inverse transform, clamped to the CPU bounds.
		bookedCPU := heavyMinCPU / math.Pow(1-rng.Float64(), 1/heavyAlpha)
		if bookedCPU > heavyMaxCPU {
			bookedCPU = heavyMaxCPU
		}
		// Duration follows the size: elephants run longer.
		dur := int64(rng.ExpFloat64() * float64(p.HorizonSec) / 24 * (1 + bookedCPU/4))
		start, dur = clampSpan(start, dur, p.HorizonSec, 60)
		bookedMem := bookedCPU * 3 * (0.8 + rng.Float64()*0.4)
		util := 0.3 + rng.Float64()*0.4
		tasks = append(tasks, Task{
			ID: i, JobID: i/4 + 1, StartSec: start, EndSec: start + dur,
			BookedCPU: bookedCPU, BookedMemGiB: bookedMem,
			UsedCPU: bookedCPU * util, UsedMemGiB: bookedMem * util,
		})
	}
	finalizeTasks(tasks)
	return &Trace{Name: h.Name(), Machines: p.Machines, HorizonSec: p.HorizonSec, Tasks: tasks}, nil
}

// composite is the Family returned by Compose.
type composite struct {
	name  string
	parts []Family
}

// Compose returns a family that splits the task budget across the parts
// (earlier parts absorb the remainder), generates each part with a seed
// derived from the envelope's, and overlays the results with disjoint ID
// namespaces. The composite is as deterministic as its parts.
func Compose(name string, parts ...Family) Family {
	return composite{name: name, parts: parts}
}

// Name implements Family.
func (c composite) Name() string { return c.name }

// Describe implements Family.
func (c composite) Describe() string {
	names := make([]string, len(c.parts))
	for i, f := range c.parts {
		names[i] = f.Name()
	}
	return "overlay of " + strings.Join(names, "+")
}

// Generate implements Family.
func (c composite) Generate(p FamilyParams) (*Trace, error) {
	if len(c.parts) == 0 {
		return nil, fmt.Errorf("trace: composite family %q has no parts", c.name)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Tasks < len(c.parts) {
		return nil, fmt.Errorf("trace: composite family %q needs at least %d tasks (one per part), got %d",
			c.name, len(c.parts), p.Tasks)
	}
	share := p.Tasks / len(c.parts)
	rem := p.Tasks % len(c.parts)
	traces := make([]*Trace, len(c.parts))
	for i, f := range c.parts {
		pp := p
		pp.Tasks = share
		if i < rem {
			pp.Tasks++
		}
		// Distinct but derived seeds: the composite is reproducible from the
		// envelope seed alone, and the parts never share an RNG stream.
		pp.Seed = p.Seed + int64(i+1)*1_000_003
		tr, err := f.Generate(pp)
		if err != nil {
			return nil, fmt.Errorf("trace: composite part %q: %w", f.Name(), err)
		}
		traces[i] = tr
	}
	tr, err := Overlay(c.name, traces...)
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// Overlay merges already-generated traces into one scenario: the fleet is
// the largest part's, the horizon the longest, and every part's task and job
// IDs are renumbered into disjoint dense blocks in part order, so the merged
// trace keeps each part's IDs apart, as the CSV reader requires of a file.
func Overlay(name string, parts ...*Trace) (*Trace, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("trace: overlay %q needs at least one part", name)
	}
	out := &Trace{Name: name}
	taskBase, jobBase := 0, 0
	for i, part := range parts {
		if part == nil {
			return nil, fmt.Errorf("trace: overlay %q part %d is nil", name, i)
		}
		if err := part.Validate(); err != nil {
			return nil, fmt.Errorf("trace: overlay %q part %d (%s): %w", name, i, part.Name, err)
		}
		if part.Machines > out.Machines {
			out.Machines = part.Machines
		}
		if part.HorizonSec > out.HorizonSec {
			out.HorizonSec = part.HorizonSec
		}
		maxJob := 0
		for j, t := range part.Tasks {
			t.ID = taskBase + j
			if t.JobID > maxJob {
				maxJob = t.JobID
			}
			t.JobID += jobBase
			out.Tasks = append(out.Tasks, t)
		}
		taskBase += len(part.Tasks)
		jobBase += maxJob + 1
	}
	finalizeTasks(out.Tasks)
	return out, nil
}

package trace

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGenerateDefault(t *testing.T) {
	tr, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Tasks) != DefaultConfig().Tasks {
		t.Errorf("tasks = %d, want %d", len(tr.Tasks), DefaultConfig().Tasks)
	}
	// Tasks are sorted by start time.
	for i := 1; i < len(tr.Tasks); i++ {
		if tr.Tasks[i].StartSec < tr.Tasks[i-1].StartSec {
			t.Fatal("tasks not sorted by start time")
		}
	}
	st := tr.ComputeStats()
	// The generator reproduces the "notoriously low utilization": used
	// resources well below booked.
	if st.MeanUsedCPU >= st.MeanBookedCPU*0.7 {
		t.Errorf("used CPU (%.2f) should be well below booked (%.2f)", st.MeanUsedCPU, st.MeanBookedCPU)
	}
	if st.PeakConcurrentTasks == 0 {
		t.Error("there should be concurrent tasks")
	}
	if st.MemToCPURatio < 2.4 || st.MemToCPURatio > 3.6 {
		t.Errorf("original trace memory:CPU ratio = %.2f, want ~3 (memory-leaning demand)", st.MemToCPURatio)
	}
	// A meaningful share of tasks should be idle (CPU below 1%) so that the
	// Oasis comparison has the population it targets.
	idle := 0
	for _, task := range tr.Tasks {
		if task.UsedCPU < 0.01 {
			idle++
		}
	}
	frac := float64(idle) / float64(len(tr.Tasks))
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("idle task fraction = %.2f, want ~0.25", frac)
	}
}

func TestGenerateModifiedDoublesMemory(t *testing.T) {
	orig, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Generate(ModifiedConfig())
	if err != nil {
		t.Fatal(err)
	}
	ro := orig.ComputeStats().MemToCPURatio
	rm := mod.ComputeStats().MemToCPURatio
	if rm < ro*1.7 || rm > ro*2.3 {
		t.Errorf("modified trace should have ~2x the memory:CPU ratio (%.2f vs %.2f)", rm, ro)
	}
	if mod.Name == orig.Name {
		t.Error("modified trace should be labelled differently")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(DefaultConfig())
	b, _ := Generate(DefaultConfig())
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatal("lengths differ")
	}
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			t.Fatalf("task %d differs between identical configs", i)
		}
	}
	c := DefaultConfig()
	c.Seed = 43
	d, _ := Generate(c)
	same := true
	for i := range a.Tasks {
		if a.Tasks[i] != d.Tasks[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Machines = 0
	if _, err := Generate(bad); err == nil {
		t.Error("zero machines should fail")
	}
	bad = DefaultConfig()
	bad.Tasks = 0
	if _, err := Generate(bad); err == nil {
		t.Error("zero tasks should fail")
	}
	bad = DefaultConfig()
	bad.HorizonSec = 0
	if _, err := Generate(bad); err == nil {
		t.Error("zero horizon should fail")
	}
	// Out-of-range tuning is rejected upfront with the valid range — no more
	// silent rewrites to defaults.
	for _, tc := range []struct {
		name string
		mut  func(*GeneratorConfig)
		want string
	}{
		{"negative ratio", func(c *GeneratorConfig) { c.MemoryToCPURatio = -1 }, "MemoryToCPURatio -1 out of range"},
		{"utilization above 1", func(c *GeneratorConfig) { c.MeanUtilization = 5 }, "MeanUtilization 5 out of range"},
		{"negative utilization", func(c *GeneratorConfig) { c.MeanUtilization = -0.5 }, "MeanUtilization -0.5 out of range"},
		{"negative idle fraction", func(c *GeneratorConfig) { c.IdleFraction = -0.1 }, "IdleFraction -0.1 out of range"},
		{"idle fraction of 1", func(c *GeneratorConfig) { c.IdleFraction = 1 }, "IdleFraction 1 out of range"},
	} {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		_, err := Generate(cfg)
		if err == nil {
			t.Errorf("%s: want error, got none", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the range (want %q)", tc.name, err, tc.want)
		}
	}
	// The zero value still means "use the default", so round-tripped configs
	// that never set the tuning fields keep working.
	zero := DefaultConfig()
	zero.MemoryToCPURatio = 0
	zero.MeanUtilization = 0
	zero.IdleFraction = 0
	if _, err := Generate(zero); err != nil {
		t.Errorf("zero-valued tuning should take defaults, got %v", err)
	}
}

func TestTaskValidate(t *testing.T) {
	good := Task{ID: 1, StartSec: 0, EndSec: 100, BookedCPU: 2, BookedMemGiB: 4, UsedCPU: 1, UsedMemGiB: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Task{
		{ID: 1, StartSec: 100, EndSec: 100, BookedCPU: 1, BookedMemGiB: 1},
		{ID: 1, StartSec: 0, EndSec: 100, BookedCPU: 0, BookedMemGiB: 1},
		{ID: 1, StartSec: 0, EndSec: 100, BookedCPU: 1, BookedMemGiB: 1, UsedCPU: 5},
		{ID: 1, StartSec: 0, EndSec: 100, BookedCPU: 1, BookedMemGiB: 1, UsedMemGiB: 5},
	}
	for i, task := range bad {
		if err := task.Validate(); err == nil {
			t.Errorf("bad task %d validated", i)
		}
	}
	if good.Duration() != 100 {
		t.Error("duration wrong")
	}
}

// TestVMIDFormat pins the load-bearing identity to its task-%d form and to one
// allocation, the string itself.
func TestVMIDFormat(t *testing.T) {
	for _, id := range []int{0, 9, 10, 255, 256, math.MaxInt, math.MinInt, -7} {
		if got, want := (Task{ID: id}).VMID(), fmt.Sprintf("task-%d", id); got != want {
			t.Errorf("VMID of task %d = %q, want %q", id, got, want)
		}
	}
	var sink string
	task := Task{ID: math.MaxInt}
	if allocs := testing.AllocsPerRun(100, func() { sink = task.VMID() }); allocs > 1 {
		t.Errorf("VMID allocates %v times for %q, want 1", allocs, sink)
	}
}

func TestTraceValidate(t *testing.T) {
	tr := &Trace{Name: "x", Machines: 0, HorizonSec: 100}
	if err := tr.Validate(); err == nil {
		t.Error("zero machines should fail")
	}
	tr = &Trace{Name: "x", Machines: 1, HorizonSec: 0}
	if err := tr.Validate(); err == nil {
		t.Error("zero horizon should fail")
	}
	tr = &Trace{Name: "x", Machines: 1, HorizonSec: 100, Tasks: []Task{
		{ID: 1, StartSec: 0, EndSec: 500, BookedCPU: 1, BookedMemGiB: 1},
	}}
	if err := tr.Validate(); err == nil {
		t.Error("task beyond horizon should fail")
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	tr := &Trace{Name: "empty", Machines: 1, HorizonSec: 10}
	st := tr.ComputeStats()
	if st.Tasks != 0 || st.MeanBookedCPU != 0 {
		t.Error("empty trace stats should be zero")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr, _ := Generate(DefaultConfig())
	var buf bytes.Buffer
	if err := tr.EncodeCSV(&buf, false); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "id,job,start_sec") {
		t.Error("CSV should start with the header")
	}
	tasks, err := DecodeCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != len(tr.Tasks) {
		t.Fatalf("round trip lost tasks: %d vs %d", len(tasks), len(tr.Tasks))
	}
	for i := range tasks {
		if tasks[i] != tr.Tasks[i] {
			t.Fatalf("task %d differs after round trip", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := DecodeCSV(strings.NewReader("")); err != nil {
		t.Errorf("empty input should not error: %v", err)
	}
	// Wrong column count (csv reader catches ragged rows itself).
	if _, err := DecodeCSV(strings.NewReader("1,2,3\n")); err == nil {
		t.Error("short row should fail")
	}
	// Bad numbers.
	badRows := []string{
		"x,1,0,10,1,1,0.5,0.5",
		"1,x,0,10,1,1,0.5,0.5",
		"1,1,x,10,1,1,0.5,0.5",
		"1,1,0,x,1,1,0.5,0.5",
		"1,1,0,10,x,1,0.5,0.5",
		"1,1,0,10,1,x,0.5,0.5",
		"1,1,0,10,1,1,x,0.5",
		"1,1,0,10,1,1,0.5,x",
	}
	for i, row := range badRows {
		if _, err := DecodeCSV(strings.NewReader(row + "\n")); err == nil {
			t.Errorf("bad row %d should fail", i)
		}
	}
	// Without a header row the first line is data.
	tasks, err := DecodeCSV(strings.NewReader("1,1,0,10,1,1,0.5,0.5\n"))
	if err != nil || len(tasks) != 1 {
		t.Errorf("headerless parse: %v %d", err, len(tasks))
	}
}

// Property: generated traces always validate and never book zero resources,
// across a range of configurations.
func TestPropertyGeneratedTracesValid(t *testing.T) {
	f := func(tasks uint8, seed int64, modified bool) bool {
		cfg := DefaultConfig()
		if modified {
			cfg = ModifiedConfig()
		}
		cfg.Tasks = 1 + int(tasks)%200
		cfg.Seed = seed
		tr, err := Generate(cfg)
		if err != nil {
			return false
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

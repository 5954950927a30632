package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// DefaultFamilyParams mirrors DefaultConfig's envelope: one simulated day on
// a 200-machine fleet, 3000 tasks, seed 42.
func DefaultFamilyParams() FamilyParams {
	return FamilyParams{Machines: 200, HorizonSec: 24 * 3600, Tasks: 3000, Seed: 42}
}

// familyUnderTest runs one family through the shared property gauntlet and
// returns the trace for family-specific shape checks.
func familyUnderTest(t *testing.T, f Family, p FamilyParams) *Trace {
	t.Helper()
	tr, err := f.Generate(p)
	if err != nil {
		t.Fatalf("%s: %v", f.Name(), err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: generated trace invalid: %v", f.Name(), err)
	}
	if len(tr.Tasks) != p.Tasks {
		t.Fatalf("%s: %d tasks, want %d", f.Name(), len(tr.Tasks), p.Tasks)
	}
	// IDs must be dense and unique: the online admitted-set bitset and the
	// task-%d VMIDs both assume it.
	seen := make(map[int]bool, len(tr.Tasks))
	for _, task := range tr.Tasks {
		if task.ID < 0 || task.ID >= len(tr.Tasks) || seen[task.ID] {
			t.Fatalf("%s: task ID %d not dense/unique in 0..%d", f.Name(), task.ID, len(tr.Tasks)-1)
		}
		seen[task.ID] = true
	}
	// Tasks arrive sorted, the order every replayer assumes.
	if !sort.SliceIsSorted(tr.Tasks, func(i, j int) bool {
		return tr.Tasks[i].StartSec < tr.Tasks[j].StartSec
	}) {
		t.Fatalf("%s: tasks not sorted by StartSec", f.Name())
	}
	// Fixed seed means a byte-identical trace, asserted on the encoded form.
	again, err := f.Generate(p)
	if err != nil {
		t.Fatalf("%s: second generate: %v", f.Name(), err)
	}
	var a, b bytes.Buffer
	if err := tr.EncodeCSV(&a, false); err != nil {
		t.Fatal(err)
	}
	if err := again.EncodeCSV(&b, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%s: same seed produced different traces", f.Name())
	}
	// A different seed must actually change the workload.
	other := p
	other.Seed++
	reseeded, err := f.Generate(other)
	if err != nil {
		t.Fatalf("%s: reseeded generate: %v", f.Name(), err)
	}
	b.Reset()
	if err := reseeded.EncodeCSV(&b, false); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%s: different seeds produced identical traces", f.Name())
	}
	return tr
}

func TestFamilyProperties(t *testing.T) {
	p := DefaultFamilyParams()
	for _, f := range Families() {
		familyUnderTest(t, f, p)
		if f.Describe() == "" {
			t.Errorf("%s: empty description", f.Name())
		}
	}
	// The mix composite obeys the same contract.
	mix, err := FamilyByName("mix")
	if err != nil {
		t.Fatal(err)
	}
	familyUnderTest(t, mix, p)
}

func TestDiurnalShape(t *testing.T) {
	tr := familyUnderTest(t, Diurnal{}, DefaultFamilyParams())
	// The sinusoid troughs at the horizon's edges and crests mid-cycle:
	// ~75% of arrivals belong in the middle half.
	mid := 0
	for _, task := range tr.Tasks {
		if task.StartSec >= tr.HorizonSec/4 && task.StartSec < 3*tr.HorizonSec/4 {
			mid++
		}
	}
	if frac := float64(mid) / float64(len(tr.Tasks)); frac < 0.65 {
		t.Errorf("middle-half arrival fraction %.2f, want >= 0.65 for a diurnal crest", frac)
	}
}

func TestFlashCrowdShape(t *testing.T) {
	tr := familyUnderTest(t, FlashCrowd{}, DefaultFamilyParams())
	// Bucket arrivals; the burst bins must tower over the background.
	const bins = 50
	counts := make([]int, bins)
	for _, task := range tr.Tasks {
		b := int(task.StartSec * bins / tr.HorizonSec)
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	max, mean := 0, float64(len(tr.Tasks))/bins
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max) < 2.5*mean {
		t.Errorf("peak arrival bin %d vs mean %.1f: no flash crowd visible", max, mean)
	}
}

func TestServerlessShape(t *testing.T) {
	tr := familyUnderTest(t, Serverless{}, DefaultFamilyParams())
	s := tr.ComputeStats()
	// Function invocations are seconds-to-minutes, tiny bookings.
	if s.MeanDurationSec > 600 {
		t.Errorf("mean duration %.0fs, want short serverless tasks (<= 600s)", s.MeanDurationSec)
	}
	if s.MeanBookedCPU > 1.5 {
		t.Errorf("mean booked CPU %.2f, want tiny serverless bookings (<= 1.5)", s.MeanBookedCPU)
	}
}

func TestMLBatchShape(t *testing.T) {
	p := DefaultFamilyParams()
	tr := familyUnderTest(t, MLBatch{}, p)
	s := tr.ComputeStats()
	if s.MeanDurationSec < float64(p.HorizonSec)/5 {
		t.Errorf("mean duration %.0fs, want long-running jobs (>= horizon/5)", s.MeanDurationSec)
	}
	if s.MeanUsedCPU/s.MeanBookedCPU < 0.5 {
		t.Errorf("utilization %.2f, want dense high-utilization gangs (>= 0.5)",
			s.MeanUsedCPU/s.MeanBookedCPU)
	}
	// Gang scheduling: every task of a job shares the job's span.
	spans := make(map[int][2]int64)
	for _, task := range tr.Tasks {
		if span, ok := spans[task.JobID]; ok {
			if span[0] != task.StartSec || span[1] != task.EndSec {
				t.Fatalf("job %d tasks disagree on span", task.JobID)
			}
			continue
		}
		spans[task.JobID] = [2]int64{task.StartSec, task.EndSec}
	}
}

func TestHeavyTailShape(t *testing.T) {
	tr := familyUnderTest(t, HeavyTail{}, DefaultFamilyParams())
	cpus := make([]float64, len(tr.Tasks))
	for i, task := range tr.Tasks {
		cpus[i] = task.BookedCPU
	}
	sort.Float64s(cpus)
	median, max := cpus[len(cpus)/2], cpus[len(cpus)-1]
	// Pareto(α=1.5, min=0.25): the median sits under one core while the tail
	// reaches the elephants.
	if median > 1 {
		t.Errorf("median booked CPU %.2f, want mostly mice (<= 1)", median)
	}
	if max < 8 {
		t.Errorf("max booked CPU %.2f, want elephants in the tail (>= 8)", max)
	}
}

func TestComposeOverlayNamespaces(t *testing.T) {
	// Two parts that deliberately reuse the same task and job IDs must come
	// out of Overlay with disjoint dense blocks, as a trace file must.
	mk := func(name string) *Trace {
		tr := &Trace{Name: name, Machines: 10, HorizonSec: 1000}
		for i := 0; i < 10; i++ {
			tr.Tasks = append(tr.Tasks, Task{
				ID: i, JobID: i / 2, StartSec: int64(i * 10), EndSec: int64(i*10 + 100),
				BookedCPU: 1, BookedMemGiB: 2, UsedCPU: 0.5, UsedMemGiB: 1,
			})
		}
		return tr
	}
	merged, err := Overlay("merged", mk("a"), mk("b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Tasks) != 20 {
		t.Fatalf("merged %d tasks, want 20", len(merged.Tasks))
	}
	ids := make(map[int]bool)
	for _, task := range merged.Tasks {
		if task.ID < 0 || task.ID >= 20 || ids[task.ID] {
			t.Fatalf("task ID %d not dense/unique after overlay", task.ID)
		}
		ids[task.ID] = true
	}
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}

	if _, err := Overlay("empty"); err == nil {
		t.Error("overlay of nothing should fail")
	}
	if _, err := Overlay("nil-part", nil); err == nil {
		t.Error("nil part should fail")
	}
	bad := mk("bad")
	bad.Tasks[0].BookedCPU = -1
	if _, err := Overlay("invalid-part", bad); err == nil {
		t.Error("invalid part should fail")
	}
}

func TestComposeBudgetAndErrors(t *testing.T) {
	p := DefaultFamilyParams()
	p.Tasks = 7 // does not divide evenly across 5 parts
	tr, err := Compose("mix", Families()...).Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tasks) != 7 {
		t.Fatalf("composite %d tasks, want the full budget of 7", len(tr.Tasks))
	}
	if _, err := Compose("none").Generate(p); err == nil {
		t.Error("composite with no parts should fail")
	}
	p.Tasks = 2
	if _, err := Compose("mix", Families()...).Generate(p); err == nil {
		t.Error("budget below one task per part should fail")
	}
}

func TestFamilyByName(t *testing.T) {
	for _, name := range FamilyNames() {
		f, err := FamilyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if name != "mix" && f.Name() != name {
			t.Errorf("FamilyByName(%q).Name() = %q", name, f.Name())
		}
	}
	_, err := FamilyByName("nope")
	if err == nil {
		t.Fatal("unknown family should fail")
	}
	if !strings.Contains(err.Error(), "valid:") {
		t.Errorf("error %q should list the valid families", err)
	}
	if _, err := GenerateFamily("nope", DefaultFamilyParams()); err == nil {
		t.Error("GenerateFamily with unknown name should fail")
	}
}

func TestFamilyParamsValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*FamilyParams)
	}{
		{"zero machines", func(p *FamilyParams) { p.Machines = 0 }},
		{"zero horizon", func(p *FamilyParams) { p.HorizonSec = 0 }},
		{"zero tasks", func(p *FamilyParams) { p.Tasks = 0 }},
	} {
		p := DefaultFamilyParams()
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
		if _, err := (Diurnal{}).Generate(p); err == nil {
			t.Errorf("%s: family should reject the params", tc.name)
		}
	}
}

// TestFamilyTracesArePinned pins every generator's exact output: the sha256
// of each family's and each Generate preset's uncompressed CSV at two seeds.
// A golden shows a drift only once it reaches a printed fourth decimal; this
// test fails on any moved byte. Re-record a hash only for a deliberate change
// to a generator's model.
func TestFamilyTracesArePinned(t *testing.T) {
	want := map[string]string{
		"diurnal/42":              "1c7ea7e44d938cd9d3fd7dc7a377ec8674b0cfb0b57904492861fe9f756fee33",
		"diurnal/7":               "66e302f44d069fadac1a0633489eb0f910baf46d8156d04a8e1971ed6a3286e4",
		"flashcrowd/42":           "26bebcdfa9fc63946381ecd38ceee44b82ed8c47d17318b758bf67f334480a71",
		"flashcrowd/7":            "707310b42c830cceecc3ac536d89fab46ae159fa1928cef194b8ea6e9cc21700",
		"google-like-modified/42": "5d508083f00f3328d6c93b1026feb3efb166f05a1c8833597496b14f8a648f82",
		"google-like-modified/7":  "2321559ac0648a86f110e0175484fb8f5b49c0c63deaf8e0000b9fb0f27d1f74",
		"google-like/42":          "d9ec8c02acbe23a56d4846e5b1b12ebe03701995ade0d978d7667e13bf434962",
		"google-like/7":           "ad505509268a3edc0d1e10f4ef0f94f9e66c5bc79bfe8c71838cc1feb0a961d3",
		"heavytail/42":            "2abeb1b0afff21ed12f33fa34162b43de0c78a8ae874780a9dd1d9121b0eb6cb",
		"heavytail/7":             "c360e39671a673485ea4a77d5d8579d6ce028863ad64d900b94b169a4f67f223",
		"mlbatch/42":              "096984c5c0d92c740c574e81950f0d904da0d4e622aa4aa3a70b530d56720215",
		"mlbatch/7":               "9fde964daf18e5186f7ed27bbb228e302f7c142f6a883c02ac4c5dd98890ec6d",
		"serverless/42":           "7bef95f9c70c9544b7ee058b28dd6bdce22781e45a1fbf8b543f7814114bfce5",
		"serverless/7":            "7e2a5803316f9911ed6851918051598e351e2c66c0367031651ba271ae178d63",
	}
	gen := map[string]func(seed int64) (*Trace, error){
		"google-like": func(seed int64) (*Trace, error) {
			cfg := DefaultConfig()
			cfg.Seed = seed
			return Generate(cfg)
		},
		"google-like-modified": func(seed int64) (*Trace, error) {
			cfg := ModifiedConfig()
			cfg.Seed = seed
			return Generate(cfg)
		},
	}
	for _, f := range Families() {
		gen[f.Name()] = func(seed int64) (*Trace, error) {
			p := DefaultFamilyParams()
			p.Seed = seed
			return f.Generate(p)
		}
	}
	if len(want) != 2*len(gen) {
		t.Fatalf("%d pinned hashes for %d generators at two seeds", len(want), len(gen))
	}
	for name, g := range gen {
		for _, seed := range []int64{42, 7} {
			tr, err := g(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			var buf bytes.Buffer
			if err := tr.EncodeCSV(&buf, false); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			key := fmt.Sprintf("%s/%d", name, seed)
			if got := hex.EncodeToString(sum[:]); got != want[key] {
				t.Errorf("%s: sha256 %s, want %s", key, got, want[key])
			}
		}
	}
}

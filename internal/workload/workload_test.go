package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/pagepolicy"
	"repro/internal/swapdev"
	"repro/internal/vm"
)

// Collect materialises the whole stream, so a test can compare replays.
func (s *Stream) Collect() []Access {
	out := make([]Access, 0, s.Remaining())
	for {
		a, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range AllKinds() {
		if k.String() == "" {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should render")
	}
	if len(AllKinds()) != 4 {
		t.Error("the paper evaluates 4 workloads")
	}
}

func TestProfiles(t *testing.T) {
	for _, k := range AllKinds() {
		p := ProfileOf(k)
		if p.Kind != k {
			t.Errorf("%s: profile kind mismatch", k)
		}
		if p.HotFraction <= 0 || p.HotFraction >= 1 {
			t.Errorf("%s: hot fraction %v outside (0,1)", k, p.HotFraction)
		}
		if p.HotHitRate <= 0.5 || p.HotHitRate > 1 {
			t.Errorf("%s: hit rate %v implausible", k, p.HotHitRate)
		}
		if p.Description == "" {
			t.Errorf("%s: profile needs a description", k)
		}
	}
	// The micro-benchmark is the worst case: biggest hot fraction among the
	// profiles that also sweep (lowest effective locality below 50%).
	if ProfileOf(MicroBench).HotFraction <= ProfileOf(DataCaching).HotFraction {
		t.Error("micro-benchmark should have a larger hot set than data caching")
	}
	// Unknown kind still returns something usable.
	if p := ProfileOf(Kind(42)); p.HotFraction <= 0 {
		t.Error("default profile should be usable")
	}
}

func TestStreamDeterminism(t *testing.T) {
	p := ProfileOf(Elasticsearch)
	s1, err := NewStream(p, 256, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := NewStream(p, 256, 2, 7)
	a1 := s1.Collect()
	a2 := s2.Collect()
	if len(a1) != len(a2) || len(a1) != s1.Len() {
		t.Fatalf("lengths differ: %d %d %d", len(a1), len(a2), s1.Len())
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a1[i], a2[i])
		}
	}
	// A different seed gives a different stream.
	s3, _ := NewStream(p, 256, 2, 8)
	a3 := s3.Collect()
	same := true
	for i := range a1 {
		if a1[i] != a3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should produce different streams")
	}
}

func TestStreamValidation(t *testing.T) {
	if _, err := NewStream(ProfileOf(MicroBench), 0, 1, 1); err == nil {
		t.Error("zero pages should fail")
	}
	s, err := NewStream(ProfileOf(MicroBench), 10, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() == 0 {
		t.Error("zero iterations should clamp to one")
	}
	// Accesses stay within the page range.
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		if a.Page < 0 || a.Page >= 10 {
			t.Fatalf("access outside range: %+v", a)
		}
	}
	if s.Remaining() != 0 {
		t.Error("stream should be exhausted")
	}
	if _, ok := s.Next(); ok {
		t.Error("exhausted stream should not emit")
	}
}

func TestStreamLocality(t *testing.T) {
	// The hot set must absorb roughly HotHitRate of the accesses.
	p := ProfileOf(DataCaching)
	s, _ := NewStream(p, 1000, 4, 3)
	hotLimit := int(float64(1000) * p.HotFraction)
	hot, total := 0, 0
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		total++
		if a.Page < hotLimit {
			hot++
		}
	}
	frac := float64(hot) / float64(total)
	if frac < p.HotHitRate-0.05 || frac > 1 {
		t.Errorf("hot fraction of accesses = %.3f, want ~%.3f", frac, p.HotHitRate)
	}
}

func TestRunnerPenaltyDecreasesWithLocalMemory(t *testing.T) {
	// The core Table 1 shape, for every workload.
	r := NewRunner()
	machine := vm.New("t", 64<<20, 48<<20) // small VM keeps the test quick
	for _, k := range AllKinds() {
		var prev float64 = -1
		for i, frac := range []float64{0.2, 0.5, 0.8} {
			res, err := r.RunRAMExt(k, machine, frac, nil, nil)
			if err != nil {
				t.Fatalf("%s at %v: %v", k, frac, err)
			}
			if res.PenaltyPercent < 0 {
				t.Errorf("%s: negative penalty %v", k, res.PenaltyPercent)
			}
			if i > 0 && res.PenaltyPercent > prev+1e-9 {
				t.Errorf("%s: penalty should not increase with local memory (%.2f%% -> %.2f%%)", k, prev, res.PenaltyPercent)
			}
			prev = res.PenaltyPercent
		}
	}
}

func TestRunnerMicroBenchCliff(t *testing.T) {
	// The micro-benchmark's defining feature: catastrophic below 50% local,
	// acceptable (small tens of percent at this simulation scale) at >= 50%.
	r := NewRunner()
	machine := vm.New("t", 64<<20, 48<<20)
	at20, err := r.RunRAMExt(MicroBench, machine, 0.2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	at50, err := r.RunRAMExt(MicroBench, machine, 0.5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	at80, err := r.RunRAMExt(MicroBench, machine, 0.8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if at20.PenaltyPercent < 5*at50.PenaltyPercent {
		t.Errorf("20%% local (%.1f%%) should be dramatically worse than 50%% local (%.1f%%)",
			at20.PenaltyPercent, at50.PenaltyPercent)
	}
	if at80.PenaltyPercent > at50.PenaltyPercent {
		t.Errorf("80%% local (%.1f%%) should beat 50%% local (%.1f%%)", at80.PenaltyPercent, at50.PenaltyPercent)
	}
}

func TestRunnerExplicitSDWorseThanRAMExt(t *testing.T) {
	// Table 2, column v1-RE vs v2-ESD: at the same local fraction, RAM Ext
	// beats the guest-visible swap device.
	r := NewRunner()
	machine := vm.New("t", 64<<20, 48<<20)
	for _, k := range []Kind{Elasticsearch, SparkSQL} {
		re, err := r.RunRAMExt(k, machine, 0.5, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		esd, err := r.RunExplicitSD(k, machine, 0.5, swapdev.RemoteRAM)
		if err != nil {
			t.Fatal(err)
		}
		if esd.PenaltyPercent <= re.PenaltyPercent {
			t.Errorf("%s: explicit SD (%.2f%%) should be worse than RAM Ext (%.2f%%)",
				k, esd.PenaltyPercent, re.PenaltyPercent)
		}
		if esd.SwapTraffic <= re.SwapTraffic {
			t.Errorf("%s: explicit SD should generate more swap traffic (%d vs %d)",
				k, esd.SwapTraffic, re.SwapTraffic)
		}
	}
}

func TestRunnerSwapTechnologyOrdering(t *testing.T) {
	// Table 2 columns: remote RAM < local SSD < local HDD.
	r := NewRunner()
	machine := vm.New("t", 32<<20, 24<<20)
	rram, err := r.RunExplicitSD(Elasticsearch, machine, 0.5, swapdev.RemoteRAM)
	if err != nil {
		t.Fatal(err)
	}
	ssd, err := r.RunExplicitSD(Elasticsearch, machine, 0.5, swapdev.LocalSSD)
	if err != nil {
		t.Fatal(err)
	}
	hdd, err := r.RunExplicitSD(Elasticsearch, machine, 0.5, swapdev.LocalHDD)
	if err != nil {
		t.Fatal(err)
	}
	if !(rram.PenaltyPercent < ssd.PenaltyPercent && ssd.PenaltyPercent < hdd.PenaltyPercent) {
		t.Errorf("swap ordering violated: remote=%.1f%% ssd=%.1f%% hdd=%.1f%%",
			rram.PenaltyPercent, ssd.PenaltyPercent, hdd.PenaltyPercent)
	}
}

func TestRunnerValidation(t *testing.T) {
	r := NewRunner()
	machine := vm.New("t", 32<<20, 16<<20)
	if _, err := r.RunRAMExt(MicroBench, machine, 0, nil, nil); err == nil {
		t.Error("zero local fraction should fail")
	}
	if _, err := r.RunRAMExt(MicroBench, machine, 1.5, nil, nil); err == nil {
		t.Error("local fraction above 1 should fail")
	}
	if _, err := r.RunExplicitSD(MicroBench, machine, -0.1, swapdev.RemoteRAM); err == nil {
		t.Error("negative fraction should fail")
	}
	// Explicit policy is honoured.
	res, err := r.RunRAMExt(MicroBench, machine, 0.5, pagepolicy.NewFIFO(pagepolicy.DefaultCost()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.MajorFaults == 0 {
		t.Error("a 50% local run should fault")
	}
}

func TestPaperVMAndFractions(t *testing.T) {
	v := PaperVM()
	if v.ReservedBytes != 7<<30 || v.WSSBytes != 6<<30 {
		t.Errorf("paper VM misconfigured: %+v", v)
	}
	fr := LocalFractions()
	if len(fr) != 5 || fr[0] != 0.2 || fr[len(fr)-1] != 0.8 {
		t.Errorf("local fractions = %v", fr)
	}
}

func TestScaledPages(t *testing.T) {
	small := vm.New("s", 64<<10, 32<<10)
	if got := scaledPages(small, DefaultSimPages); got != 64 {
		t.Errorf("tiny VM should clamp up to 64 pages, got %d", got)
	}
	big := PaperVM()
	if got := scaledPages(big, DefaultSimPages); got != DefaultSimPages {
		t.Errorf("big VM should clamp down to %d pages, got %d", DefaultSimPages, got)
	}
	mid := vm.New("m", 1<<20, 1<<20) // 256 pages
	if got := scaledPages(mid, DefaultSimPages); got != 256 {
		t.Errorf("mid VM = %d pages, want 256", got)
	}
}

// Property: streams always stay within the page range and produce the
// advertised number of accesses.
func TestPropertyStreamBounds(t *testing.T) {
	prop := func(pagesRaw uint8, seed int64, kindRaw uint8) bool {
		pages := 1 + int(pagesRaw)%512
		kinds := AllKinds()
		k := kinds[int(kindRaw)%len(kinds)]
		s, err := NewStream(ProfileOf(k), pages, 1, seed)
		if err != nil {
			return false
		}
		count := 0
		for {
			a, ok := s.Next()
			if !ok {
				break
			}
			if a.Page < 0 || a.Page >= pages {
				return false
			}
			count++
		}
		return count == s.Len()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

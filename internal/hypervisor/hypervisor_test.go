package hypervisor

import (
	"testing"
	"testing/quick"

	"repro/internal/pagepolicy"
	"repro/internal/swapdev"
)

func newRAMExt(t *testing.T, pages, localFrames int) (*RAMExt, *swapdev.Store) {
	t.Helper()
	store := NewInfinibandStore(pages)
	r, err := NewRAMExt(Config{
		Pages:       pages,
		LocalFrames: localFrames,
		Policy:      pagepolicy.NewMixed(pagepolicy.DefaultCost(), pagepolicy.DefaultMixedWindow),
		Remote:      store,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, store
}

func TestNewRAMExtValidation(t *testing.T) {
	store := NewInfinibandStore(10)
	pol := pagepolicy.NewFIFO(pagepolicy.DefaultCost())
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero pages", Config{Pages: 0, LocalFrames: 1}},
		{"negative frames", Config{Pages: 10, LocalFrames: -1}},
		{"missing policy", Config{Pages: 10, LocalFrames: 5, Remote: store}},
		{"missing remote", Config{Pages: 10, LocalFrames: 5, Policy: pol}},
		{"remote too small", Config{Pages: 100, LocalFrames: 5, Policy: pol, Remote: store}},
	}
	for _, c := range cases {
		if _, err := NewRAMExt(c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// All-local VM needs neither policy nor remote store.
	if _, err := NewRAMExt(Config{Pages: 10, LocalFrames: 10}); err != nil {
		t.Errorf("all-local VM should be valid: %v", err)
	}
	// LocalFrames above Pages is clamped.
	r, err := NewRAMExt(Config{Pages: 10, LocalFrames: 100})
	if err != nil {
		t.Fatal(err)
	}
	if r.LocalFrames() != 10 {
		t.Errorf("local frames = %d, want clamped to 10", r.LocalFrames())
	}
}

func TestAllLocalNoFaultsBeyondFirstTouch(t *testing.T) {
	r, _ := newRAMExt(t, 64, 64)
	for pass := 0; pass < 3; pass++ {
		for p := 0; p < 64; p++ {
			if _, err := r.Access(p, pass == 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := r.Stats()
	if st.MinorFaults != 64 {
		t.Errorf("minor faults = %d, want 64 (one per first touch)", st.MinorFaults)
	}
	if st.MajorFaults != 0 || st.Demotions != 0 {
		t.Errorf("all-local VM must not page: %+v", st)
	}
	if st.Accesses != 3*64 {
		t.Errorf("accesses = %d", st.Accesses)
	}
	if r.ResidentPages() != 64 {
		t.Errorf("resident = %d", r.ResidentPages())
	}
}

func TestDemotionAndPromotion(t *testing.T) {
	// 8 pages, 4 local frames: a sequential sweep must demote and promote.
	r, store := newRAMExt(t, 8, 4)
	for pass := 0; pass < 2; pass++ {
		for p := 0; p < 8; p++ {
			if _, err := r.Access(p, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := r.Stats()
	if st.Demotions == 0 || st.Promotions == 0 {
		t.Fatalf("expected paging activity, got %+v", st)
	}
	if st.MajorFaults == 0 {
		t.Error("major faults should be counted")
	}
	if ss := store.Stats(); ss.SwapOuts != st.Demotions || ss.SwapIns != st.Promotions {
		t.Errorf("store traffic (%d/%d) disagrees with stats (%d/%d)",
			ss.SwapOuts, ss.SwapIns, st.Demotions, st.Promotions)
	}
	if st.PolicyCycles == 0 || st.PolicyNs == 0 {
		t.Error("policy cost should be accounted")
	}
	if st.RemoteNs <= 0 {
		t.Error("remote time should be accounted")
	}
	if st.TotalNs() <= st.LocalNs {
		t.Error("total time should exceed pure local time when paging")
	}
	if r.ResidentPages() != 4 {
		t.Errorf("resident pages = %d, want 4 (frame budget)", r.ResidentPages())
	}
	if r.RemotePages() != 4 {
		t.Errorf("remote pages = %d, want 4", r.RemotePages())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessOutOfRange(t *testing.T) {
	r, _ := newRAMExt(t, 8, 4)
	if _, err := r.Access(-1, false); err == nil {
		t.Error("negative page should fail")
	}
	if _, err := r.Access(8, false); err == nil {
		t.Error("page beyond the space should fail")
	}
}

func TestHotPagesStayLocal(t *testing.T) {
	// With a policy that honours accessed bits, a hot set smaller than local
	// memory should stop faulting once it is resident (the paper's paging
	// policy "keeps hot pages closer in local memory").
	r, _ := newRAMExt(t, 100, 50)
	// Touch everything once to populate.
	for p := 0; p < 100; p++ {
		if _, err := r.Access(p, true); err != nil {
			t.Fatal(err)
		}
	}
	faultsAfterWarmup := r.Stats().MajorFaults
	// Now hammer a 20-page hot set repeatedly.
	for pass := 0; pass < 50; pass++ {
		for p := 0; p < 20; p++ {
			if _, err := r.Access(p, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	extraFaults := r.Stats().MajorFaults - faultsAfterWarmup
	// The hot set (20 pages) fits comfortably in 50 local frames: after at
	// most one refault per hot page, the steady state must be fault-free.
	if extraFaults > 20 {
		t.Errorf("hot set kept faulting: %d extra major faults", extraFaults)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMoreLocalMemoryMeansFewerFaults(t *testing.T) {
	run := func(localFrames int) uint64 {
		r, _ := newRAMExt(t, 200, localFrames)
		for pass := 0; pass < 3; pass++ {
			for p := 0; p < 200; p++ {
				if _, err := r.Access(p, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		return r.Stats().MajorFaults
	}
	f20 := run(40)  // 20% local
	f50 := run(100) // 50% local
	f80 := run(160) // 80% local
	if !(f20 > f50 && f50 > f80) {
		t.Errorf("faults should decrease with local memory: 20%%=%d 50%%=%d 80%%=%d", f20, f50, f80)
	}
}

func TestDataIntegrityThroughDemotions(t *testing.T) {
	// The seal byte written on writes must survive demote/promote cycles; the
	// Access path itself verifies it and errors on corruption.
	r, _ := newRAMExt(t, 16, 4)
	for pass := 0; pass < 5; pass++ {
		for p := 0; p < 16; p++ {
			if _, err := r.Access(p, true); err != nil {
				t.Fatalf("pass %d page %d: %v", pass, p, err)
			}
		}
	}
}

func TestLocalPagesAndRemoteSlots(t *testing.T) {
	r, _ := newRAMExt(t, 8, 4)
	for p := 0; p < 8; p++ {
		if _, err := r.Access(p, true); err != nil {
			t.Fatal(err)
		}
	}
	local := r.LocalPages()
	remote := r.RemotePageSlots()
	if len(local) != 4 {
		t.Errorf("local pages = %v", local)
	}
	if len(remote) != 4 {
		t.Errorf("remote mapping = %v", remote)
	}
	for p := range remote {
		for _, lp := range local {
			if p == lp {
				t.Errorf("page %d is both local and remote", p)
			}
		}
	}
}

func TestPolicyComparisonMixedBeatsClockOnCost(t *testing.T) {
	// Reproduce the Figure 8 bottom-panel trend at small scale: for the same
	// access stream, Mixed spends fewer policy cycles per fault than Clock.
	run := func(pol pagepolicy.Policy) Stats {
		store := NewInfinibandStore(400)
		r, err := NewRAMExt(Config{Pages: 400, LocalFrames: 100, Policy: pol, Remote: store})
		if err != nil {
			t.Fatal(err)
		}
		// Interleave a 50-page hot set with a cold sweep so that accessed
		// bits matter: Clock scans past the hot pages on every eviction,
		// Mixed bounds that scan to its window.
		for pass := 0; pass < 3; pass++ {
			for p := 0; p < 400; p++ {
				if _, err := r.Access(p%50, false); err != nil {
					t.Fatal(err)
				}
				if _, err := r.Access(p, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		return r.Stats()
	}
	clock := run(pagepolicy.NewClock(pagepolicy.DefaultCost()))
	mixed := run(pagepolicy.NewMixed(pagepolicy.DefaultCost(), pagepolicy.DefaultMixedWindow))
	if mixed.PolicyCyclesPerFault() >= clock.PolicyCyclesPerFault() {
		t.Errorf("mixed policy cost per fault (%.0f) should be below clock (%.0f)",
			mixed.PolicyCyclesPerFault(), clock.PolicyCyclesPerFault())
	}
}

// Property: after any access sequence the paging invariants hold and resident
// pages never exceed the local frame budget.
func TestPropertyPagingInvariants(t *testing.T) {
	prop := func(accesses []uint16, localFrac uint8) bool {
		pages := 64
		localFrames := 1 + int(localFrac)%pages
		store := NewInfinibandStore(pages)
		r, err := NewRAMExt(Config{
			Pages:       pages,
			LocalFrames: localFrames,
			Policy:      pagepolicy.NewMixed(pagepolicy.DefaultCost(), 5),
			Remote:      store,
		})
		if err != nil {
			return false
		}
		for i, a := range accesses {
			if _, err := r.Access(int(a)%pages, i%2 == 0); err != nil {
				return false
			}
		}
		if r.ResidentPages() > localFrames {
			return false
		}
		return r.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestExplicitSDValidation(t *testing.T) {
	dev, _ := swapdev.New(swapdev.RemoteRAM, 10)
	if _, err := NewExplicitSD(ExplicitConfig{Pages: 0}); err == nil {
		t.Error("zero pages should fail")
	}
	if _, err := NewExplicitSD(ExplicitConfig{Pages: 10, LocalFrames: -1}); err == nil {
		t.Error("negative RAM should fail")
	}
	if _, err := NewExplicitSD(ExplicitConfig{Pages: 10, LocalFrames: 5}); err == nil {
		t.Error("missing device should fail")
	}
	if _, err := NewExplicitSD(ExplicitConfig{Pages: 100, LocalFrames: 5, Device: dev}); err == nil {
		t.Error("undersized device should fail")
	}
	e, err := NewExplicitSD(ExplicitConfig{Pages: 10, LocalFrames: 5, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	if e.Aggressiveness() != DefaultAggressiveness {
		t.Errorf("aggressiveness = %v", e.Aggressiveness())
	}
}

func TestExplicitSDSwapsThroughDevice(t *testing.T) {
	dev, _ := swapdev.New(swapdev.RemoteRAM, 64)
	e, err := NewExplicitSD(ExplicitConfig{Pages: 64, LocalFrames: 16, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		for p := 0; p < 64; p++ {
			if _, err := e.Access(p, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if e.SwapTraffic() == 0 {
		t.Fatal("expected swap traffic")
	}
	if dev.Stats().SwapOuts == 0 || dev.Stats().SwapIns == 0 {
		t.Error("device should have seen traffic")
	}
	if e.Stats().RemoteNs <= 0 {
		t.Error("swap latency should be accounted")
	}
	if _, err := e.Access(999, false); err == nil {
		t.Error("out-of-range access should fail")
	}
}

func TestExplicitSDSlowerThanRAMExtSameDevice(t *testing.T) {
	// The Table 2 observation: for the same local fraction, the guest-visible
	// swap device performs worse than hypervisor-managed RAM Ext, because the
	// guest generates more swap traffic.
	const pages, local = 256, 128
	store := NewInfinibandStore(pages)
	ram, err := NewRAMExt(Config{
		Pages: pages, LocalFrames: local,
		Policy: pagepolicy.NewMixed(pagepolicy.DefaultCost(), 5),
		Remote: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := swapdev.New(swapdev.RemoteRAM, pages)
	esd, err := NewExplicitSD(ExplicitConfig{Pages: pages, LocalFrames: local, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 4; pass++ {
		for p := 0; p < pages; p++ {
			if _, err := ram.Access(p, true); err != nil {
				t.Fatal(err)
			}
			if _, err := esd.Access(p, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if esd.Stats().TotalNs() <= ram.Stats().TotalNs() {
		t.Errorf("explicit SD (%.0f ns) should be slower than RAM Ext (%.0f ns)",
			esd.Stats().TotalNs(), ram.Stats().TotalNs())
	}
}

func TestExplicitSDHDDSlowerThanRemoteRAM(t *testing.T) {
	run := func(kind swapdev.Kind) float64 {
		dev, _ := swapdev.New(kind, 128)
		e, err := NewExplicitSD(ExplicitConfig{Pages: 128, LocalFrames: 64, Device: dev})
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 3; pass++ {
			for p := 0; p < 128; p++ {
				if _, err := e.Access(p, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		return e.Stats().TotalNs()
	}
	rram := run(swapdev.RemoteRAM)
	ssd := run(swapdev.LocalSSD)
	hdd := run(swapdev.LocalHDD)
	if !(rram < ssd && ssd < hdd) {
		t.Errorf("swap technology ordering violated: remote=%.0f ssd=%.0f hdd=%.0f", rram, ssd, hdd)
	}
}

// TestWarmPagingCycleAllocatesNothing: once every slot a sweep reaches holds
// a page, a demote/promote cycle over the latency-model store writes into
// chunks it already has and allocates nothing.
func TestWarmPagingCycleAllocatesNothing(t *testing.T) {
	r, _ := newRAMExt(t, 64, 16)
	sweep := func() {
		for p := 0; p < 64; p++ {
			if _, err := r.Access(p, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep()
	sweep()
	if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 {
		t.Errorf("a warm demote/promote sweep allocates %.0f times, want 0", allocs)
	}
	if r.Stats().Promotions == 0 {
		t.Fatal("the sweep never promoted a page")
	}
}

func TestStatsHelpers(t *testing.T) {
	var s Stats
	if s.PolicyCyclesPerFault() != 0 {
		t.Error("zero faults should give zero policy cost")
	}
	s.MajorFaults = 4
	s.PolicyCycles = 400
	if s.PolicyCyclesPerFault() != 100 {
		t.Error("policy cycles per fault wrong")
	}
}

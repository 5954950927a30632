package pagepolicy

import (
	"testing"
	"testing/quick"
)

func allPolicies() []Policy {
	c := DefaultCost()
	return []Policy{NewFIFO(c), NewClock(c), NewMixed(c, DefaultMixedWindow)}
}

func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name, DefaultCost())
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("policy name = %q, want %q", p.Name(), name)
		}
	}
	if _, err := New("lru", DefaultCost()); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestEvictEmpty(t *testing.T) {
	for _, p := range allPolicies() {
		if _, _, ok := p.Evict(); ok {
			t.Errorf("%s: eviction from empty policy should fail", p.Name())
		}
		if p.Evictions() != 0 {
			t.Errorf("%s: failed eviction must not count", p.Name())
		}
	}
}

func TestFIFOEvictsOldest(t *testing.T) {
	f := NewFIFO(DefaultCost())
	f.Fault(1)
	f.Fault(2)
	f.Fault(3)
	f.Access(1) // access does not save a page under FIFO
	v, cycles, ok := f.Evict()
	if !ok || v != 1 {
		t.Fatalf("FIFO evicted %d, want 1", v)
	}
	if cycles == 0 {
		t.Error("eviction must cost cycles")
	}
	v, _, _ = f.Evict()
	if v != 2 {
		t.Errorf("second eviction = %d, want 2", v)
	}
	if f.Len() != 1 {
		t.Errorf("len = %d, want 1", f.Len())
	}
}

func TestClockGivesSecondChance(t *testing.T) {
	c := NewClock(DefaultCost())
	c.Fault(1)
	c.Fault(2)
	c.Fault(3)
	c.Access(1) // page 1 gets a second chance
	v, _, ok := c.Evict()
	if !ok || v != 2 {
		t.Fatalf("Clock evicted %d, want 2 (page 1 was accessed)", v)
	}
	// The hand continues from where it stopped: page 3 is next; page 1 stays
	// protected until the hand wraps around.
	v, _, _ = c.Evict()
	if v != 3 {
		t.Errorf("second eviction = %d, want 3", v)
	}
	v, _, _ = c.Evict()
	if v != 1 {
		t.Errorf("third eviction = %d, want 1 (bit was cleared on the first pass)", v)
	}
}

func TestClockAllAccessedWrapsToFront(t *testing.T) {
	c := NewClock(DefaultCost())
	for i := PageID(1); i <= 4; i++ {
		c.Fault(i)
		c.Access(i)
	}
	v, cycles, ok := c.Evict()
	if !ok || v != 1 {
		t.Fatalf("Clock with all bits set evicted %d, want 1", v)
	}
	// The full scan is expensive: at least one iteration per resident page.
	min := DefaultCost().BaseCycles + 4*(DefaultCost().IterationCycles+DefaultCost().AccessedBitCycles)
	if cycles < min {
		t.Errorf("full-scan cycles = %d, want >= %d", cycles, min)
	}
}

func TestMixedWindowThenFIFO(t *testing.T) {
	m := NewMixed(DefaultCost(), 2)
	if m.Window() != 2 {
		t.Fatalf("window = %d", m.Window())
	}
	for i := PageID(1); i <= 5; i++ {
		m.Fault(i)
	}
	// Accessing the first two pages exhausts the clock window, so Mixed falls
	// back to FIFO over the rest of the list and evicts the oldest page
	// beyond the window (page 3).
	m.Access(1)
	m.Access(2)
	v, _, ok := m.Evict()
	if !ok || v != 3 {
		t.Fatalf("Mixed evicted %d, want 3 (FIFO over the rest of the list)", v)
	}
	// With a clear bit inside the window, Mixed behaves like Clock.
	m2 := NewMixed(DefaultCost(), 3)
	m2.Fault(10)
	m2.Fault(11)
	m2.Access(10)
	v, _, _ = m2.Evict()
	if v != 11 {
		t.Errorf("Mixed evicted %d, want 11 (first clear bit in window)", v)
	}
}

func TestMixedDefaultWindow(t *testing.T) {
	m := NewMixed(DefaultCost(), 0)
	if m.Window() != DefaultMixedWindow {
		t.Errorf("window = %d, want default %d", m.Window(), DefaultMixedWindow)
	}
}

func TestMixedCostBounded(t *testing.T) {
	// The paper's motivation for Mixed: its per-fault cost is bounded by the
	// window, while Clock may scan the whole list. Fill both with N accessed
	// pages and compare one eviction's cycle cost.
	const n = 1000
	cost := DefaultCost()
	clock := NewClock(cost)
	mixed := NewMixed(cost, DefaultMixedWindow)
	for i := PageID(0); i < n; i++ {
		clock.Fault(i)
		clock.Access(i)
		mixed.Fault(i)
		mixed.Access(i)
	}
	_, clockCycles, _ := clock.Evict()
	_, mixedCycles, _ := mixed.Evict()
	if mixedCycles*10 > clockCycles {
		t.Errorf("mixed eviction (%d cycles) should be far cheaper than a full clock scan (%d cycles)",
			mixedCycles, clockCycles)
	}
}

func TestRefaultKeepsOrderAndRefreshesBit(t *testing.T) {
	for _, p := range allPolicies() {
		p.Fault(1)
		p.Fault(2)
		p.Fault(1) // refault: must not duplicate the entry
		if p.Len() != 2 {
			t.Errorf("%s: len after refault = %d, want 2", p.Name(), p.Len())
		}
	}
}

func TestRemove(t *testing.T) {
	for _, p := range allPolicies() {
		p.Fault(1)
		p.Fault(2)
		p.Remove(1)
		p.Remove(99) // unknown page: no-op
		if p.Len() != 1 {
			t.Errorf("%s: len after remove = %d, want 1", p.Name(), p.Len())
		}
		v, _, ok := p.Evict()
		if !ok || v != 2 {
			t.Errorf("%s: evicted %d, want 2", p.Name(), v)
		}
		if p.Evictions() != 1 {
			t.Errorf("%s: evictions = %d, want 1", p.Name(), p.Evictions())
		}
	}
}

func TestTotalCyclesAccumulate(t *testing.T) {
	f := NewFIFO(DefaultCost())
	f.Fault(1)
	f.Fault(2)
	f.Evict()
	first := f.TotalCycles()
	f.Evict()
	if f.TotalCycles() <= first {
		t.Error("cycles should accumulate across evictions")
	}
}

// Property: evictions never return a page that is not resident, never return
// the same page twice without an intervening fault, and Len decreases by one
// per successful eviction.
func TestPropertyEvictionConsistency(t *testing.T) {
	prop := func(pages []uint16, policyIdx uint8) bool {
		names := Names()
		p, _ := New(names[int(policyIdx)%len(names)], DefaultCost())
		resident := make(map[PageID]bool)
		for _, raw := range pages {
			id := PageID(raw % 64)
			p.Fault(id)
			resident[id] = true
		}
		for {
			before := p.Len()
			if before != len(resident) {
				return false
			}
			v, _, ok := p.Evict()
			if !ok {
				return len(resident) == 0
			}
			if !resident[v] {
				return false
			}
			delete(resident, v)
			if p.Len() != before-1 {
				return false
			}
		}
	}
	cfg := &quick.Config{MaxCount: 100}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestPolicySteadyStateAllocs: once the table covers the VM's pages, the
// fault handler's cycle — evict a victim, fault the new page in, touch a
// resident one — allocates nothing.
func TestPolicySteadyStateAllocs(t *testing.T) {
	const pages = 4096
	for _, p := range allPolicies() {
		for i := PageID(0); i < pages; i++ {
			p.Fault(i)
		}
		next := PageID(0)
		allocs := testing.AllocsPerRun(1000, func() {
			victim, _, ok := p.Evict()
			if !ok {
				t.Fatalf("%s: nothing to evict", p.Name())
			}
			p.Fault(victim)
			p.Access(next % pages)
			next += 7
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per evict+fault+access cycle, want 0", p.Name(), allocs)
		}
	}
}

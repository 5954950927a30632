package pagepolicy

// The reference model: the container/list + map implementation the policies
// ran on until the page-indexed list replaced it, kept verbatim (types renamed
// ref*) so FuzzPolicyVsReference can hold the replacement to it step by step.
//
// One repair: the original Clock/Mixed Remove left the hand on the removed
// element when that element was the only page tracked, and the next Evict
// then "evicted" the stale element — a page no longer tracked, with Len
// unchanged. No caller reached it (nothing outside tests calls Remove). The
// reference unplaces the hand in that case, as Evict always did for the
// victim it removed.

import "container/list"

// refEntry is one element of the FIFO list shared by all three policies.
type refEntry struct {
	page     PageID
	accessed bool
}

// refBase carries the FIFO list machinery shared by the policies.
type refBase struct {
	cost    Cost
	order   *list.List // front = oldest fault
	index   map[PageID]*list.Element
	cycles  uint64
	evicted uint64
}

func newRefBase(cost Cost) refBase {
	return refBase{cost: cost, order: list.New(), index: make(map[PageID]*list.Element)}
}

func (b *refBase) Fault(p PageID) {
	if el, ok := b.index[p]; ok {
		// Refaulting an already-tracked page refreshes its accessed bit only;
		// its position in the FIFO list is defined by its oldest fault.
		el.Value.(*refEntry).accessed = true
		return
	}
	b.index[p] = b.order.PushBack(&refEntry{page: p})
}

func (b *refBase) Access(p PageID) {
	if el, ok := b.index[p]; ok {
		el.Value.(*refEntry).accessed = true
	}
}

func (b *refBase) Remove(p PageID) {
	if el, ok := b.index[p]; ok {
		b.order.Remove(el)
		delete(b.index, p)
	}
}

func (b *refBase) Len() int { return b.order.Len() }

func (b *refBase) TotalCycles() uint64 { return b.cycles }

func (b *refBase) Evictions() uint64 { return b.evicted }

func (b *refBase) removeElement(el *list.Element) PageID {
	e := el.Value.(*refEntry)
	b.order.Remove(el)
	delete(b.index, e.page)
	return e.page
}

// refFIFO evicts the page with the oldest recorded fault.
type refFIFO struct {
	refBase
}

// newRefFIFO returns a FIFO policy with the given cost parameters.
func newRefFIFO(cost Cost) *refFIFO { return &refFIFO{refBase: newRefBase(cost)} }

// Name implements Policy.
func (f *refFIFO) Name() string { return "fifo" }

// Evict implements Policy: the victim is the front of the FIFO list.
func (f *refFIFO) Evict() (PageID, uint64, bool) {
	cycles := f.cost.BaseCycles
	front := f.order.Front()
	if front == nil {
		f.cycles += cycles
		return 0, cycles, false
	}
	cycles += f.cost.IterationCycles
	victim := f.removeElement(front)
	f.cycles += cycles
	f.evicted++
	return victim, cycles, true
}

type refClock struct {
	refBase
	hand *list.Element
}

// newRefClock returns a Clock policy with the given cost parameters.
func newRefClock(cost Cost) *refClock { return &refClock{refBase: newRefBase(cost)} }

// Name implements Policy.
func (c *refClock) Name() string { return "clock" }

// Remove implements Policy, keeping the hand valid when its element goes.
func (c *refClock) Remove(p PageID) {
	if el, ok := c.index[p]; ok && el == c.hand {
		if c.hand = c.advance(el); c.hand == el {
			c.hand = nil // the one repair, see the file comment
		}
	}
	c.refBase.Remove(p)
}

// advance moves the hand one step, wrapping to the front.
func (c *refClock) advance(el *list.Element) *list.Element {
	if el == nil {
		return c.order.Front()
	}
	next := el.Next()
	if next == nil {
		next = c.order.Front()
	}
	return next
}

// Evict implements Policy.
func (c *refClock) Evict() (PageID, uint64, bool) {
	cycles := c.cost.BaseCycles
	n := c.order.Len()
	if n == 0 {
		c.cycles += cycles
		return 0, cycles, false
	}
	// Amortized cost of the periodic accessed-bit clearing daemon: every
	// ClockClearPeriod evictions it touches the bit of every resident page.
	cycles += uint64(n) * c.cost.AccessedBitCycles / ClockClearPeriod
	if c.hand == nil {
		c.hand = c.order.Front()
	}
	// At most two revolutions: the first may clear every bit, the second is
	// then guaranteed to find a victim.
	for i := 0; i < 2*n; i++ {
		cycles += c.cost.IterationCycles + c.cost.AccessedBitCycles
		e := c.hand.Value.(*refEntry)
		if !e.accessed {
			victimEl := c.hand
			c.hand = c.advance(c.hand)
			if c.hand == victimEl {
				c.hand = nil
			}
			victim := c.removeElement(victimEl)
			c.cycles += cycles
			c.evicted++
			return victim, cycles, true
		}
		e.accessed = false
		c.hand = c.advance(c.hand)
	}
	// Unreachable: after one revolution every bit is clear.
	victim := c.removeElement(c.order.Front())
	c.cycles += cycles
	c.evicted++
	return victim, cycles, true
}

type refMixed struct {
	refBase
	window int
	hand   *list.Element
}

// newRefMixed returns a Mixed policy with the given clock window.
func newRefMixed(cost Cost, window int) *refMixed {
	if window <= 0 {
		window = DefaultMixedWindow
	}
	return &refMixed{refBase: newRefBase(cost), window: window}
}

// Name implements Policy.
func (m *refMixed) Name() string { return "mixed" }

// Window returns the clock window size.
func (m *refMixed) Window() int { return m.window }

// Remove implements Policy, keeping the hand valid when its element goes.
func (m *refMixed) Remove(p PageID) {
	if el, ok := m.index[p]; ok && el == m.hand {
		if m.hand = m.advance(el); m.hand == el {
			m.hand = nil // the one repair, see the file comment
		}
	}
	m.refBase.Remove(p)
}

// advance moves the hand one step, wrapping to the front.
func (m *refMixed) advance(el *list.Element) *list.Element {
	if el == nil {
		return m.order.Front()
	}
	next := el.Next()
	if next == nil {
		next = m.order.Front()
	}
	return next
}

// Evict implements Policy.
func (m *refMixed) Evict() (PageID, uint64, bool) {
	cycles := m.cost.BaseCycles
	n := m.order.Len()
	if n == 0 {
		m.cycles += cycles
		return 0, cycles, false
	}
	if m.hand == nil {
		m.hand = m.order.Front()
	}
	steps := m.window
	if steps > n {
		steps = n
	}
	for i := 0; i < steps; i++ {
		cycles += m.cost.IterationCycles + m.cost.AccessedBitCycles
		e := m.hand.Value.(*refEntry)
		if !e.accessed {
			victimEl := m.hand
			m.hand = m.advance(m.hand)
			if m.hand == victimEl {
				m.hand = nil
			}
			victim := m.removeElement(victimEl)
			m.cycles += cycles
			m.evicted++
			return victim, cycles, true
		}
		e.accessed = false
		m.hand = m.advance(m.hand)
	}
	// Window exhausted: fall back to FIFO over the rest of the list — evict
	// the oldest page that the clock window did not just examine (i.e. the
	// current hand position).
	cycles += m.cost.IterationCycles
	victimEl := m.hand
	if victimEl == nil {
		victimEl = m.order.Front()
	}
	m.hand = m.advance(victimEl)
	if m.hand == victimEl {
		m.hand = nil
	}
	victim := m.removeElement(victimEl)
	m.cycles += cycles
	m.evicted++
	return victim, cycles, true
}

package pagepolicy

import (
	"fmt"
	"math"
	"math/bits"
)

// PageID identifies a guest page tracked by a policy.
type PageID uint64

// Cost models the per-operation CPU cost of a policy, in cycles.
type Cost struct {
	// IterationCycles is the cost of examining one list element.
	IterationCycles uint64
	// AccessedBitCycles is the cost of reading or clearing one accessed bit.
	AccessedBitCycles uint64
	// BaseCycles is the fixed cost of invoking the policy.
	BaseCycles uint64
}

// DefaultCost returns the cost parameters used throughout the repository
// (representative x86 magnitudes: a dependent memory read per list element, a
// page-table walk per accessed-bit probe).
func DefaultCost() Cost {
	return Cost{IterationCycles: 12, AccessedBitCycles: 40, BaseCycles: 120}
}

// Policy selects victim pages for demotion to remote memory.
//
// Page numbers must be dense: a policy's bookkeeping is a table indexed by
// page, so it costs memory proportional to the highest PageID it is given.
// Callers pass a VM's pseudo-physical page numbers, which are < its page
// count.
type Policy interface {
	// Name returns the policy name ("fifo", "clock", "mixed").
	Name() string
	// Fault records that the page generated a page fault and is now resident
	// in local memory (appended to the policy's bookkeeping).
	Fault(p PageID)
	// Access records an access to a resident page (sets its accessed bit).
	Access(p PageID)
	// Evict chooses a victim among resident pages and removes it from the
	// bookkeeping. It returns the victim and the number of CPU cycles the
	// selection consumed. ok is false when no page is resident.
	Evict() (victim PageID, cycles uint64, ok bool)
	// Remove forgets a resident page without counting it as an eviction
	// (used when a VM releases memory or migrates).
	Remove(p PageID)
	// Len returns the number of resident pages tracked.
	Len() int
	// TotalCycles returns the cumulative cycles consumed by Evict calls.
	TotalCycles() uint64
	// Evictions returns the number of successful Evict calls.
	Evictions() uint64
}

// node is one page's links in the FIFO list and its bookkeeping bits.
type node struct {
	next, prev uint32 // table indices; 0 is the list's sentinel
	flags      uint8
}

const (
	tracked  uint8 = 1 << iota // the page is in the list
	accessed                   // its accessed bit
)

// base carries the FIFO list machinery shared by the policies: one doubly
// linked list threaded through a table indexed by page+1. Index 0 is the
// sentinel of the circular list (its next is the oldest fault, its prev the
// newest), so a zeroed table is an empty list and links need no filling. The
// table grows by powers of two to cover the highest page faulted.
type base struct {
	cost    Cost
	nodes   []node
	n       int
	hand    uint32 // Clock/Mixed scan position; 0 = not placed
	cycles  uint64
	evicted uint64
}

// lookup returns the table index of a tracked page. The one PageID whose +1
// wraps lands on the sentinel, which is never tracked.
func (b *base) lookup(p PageID) (uint32, bool) {
	if i := p + 1; i < PageID(len(b.nodes)) && b.nodes[i].flags&tracked != 0 {
		return uint32(i), true
	}
	return 0, false
}

func (b *base) Fault(p PageID) {
	if i, ok := b.lookup(p); ok {
		// Refaulting an already-tracked page refreshes its accessed bit only;
		// its position in the FIFO list is defined by its oldest fault.
		b.nodes[i].flags |= accessed
		return
	}
	if p >= math.MaxUint32 {
		panic(fmt.Sprintf("pagepolicy: page %d breaks the dense page number precondition", p))
	}
	i := uint32(p) + 1
	if int(i) >= len(b.nodes) {
		// Cover the next power of two of pages above p; the sentinel rides
		// on top, so a power-of-two VM ends on a table that fits it exactly.
		grown := make([]node, 1<<bits.Len32(uint32(p))+1)
		copy(grown, b.nodes)
		b.nodes = grown
	}
	tail := b.nodes[0].prev
	b.nodes[i] = node{prev: tail, flags: tracked}
	b.nodes[tail].next = i
	b.nodes[0].prev = i
	b.n++
}

func (b *base) Access(p PageID) {
	if i, ok := b.lookup(p); ok {
		b.nodes[i].flags |= accessed
	}
}

func (b *base) Remove(p PageID) {
	if i, ok := b.lookup(p); ok {
		b.take(i)
	}
}

func (b *base) Len() int { return b.n }

func (b *base) TotalCycles() uint64 { return b.cycles }

func (b *base) Evictions() uint64 { return b.evicted }

// advance returns the index one step after i, wrapping past the sentinel to
// the front; from 0 (hand not placed) that is the front itself.
func (b *base) advance(i uint32) uint32 {
	next := b.nodes[i].next
	if next == 0 {
		next = b.nodes[0].next
	}
	return next
}

// take unlinks the tracked page at index i and returns it, first moving the
// hand to its successor (or unplacing it when i was the only page).
func (b *base) take(i uint32) PageID {
	if b.hand == i {
		if b.hand = b.advance(i); b.hand == i {
			b.hand = 0
		}
	}
	nd := b.nodes[i]
	b.nodes[nd.prev].next = nd.next
	b.nodes[nd.next].prev = nd.prev
	b.nodes[i] = node{}
	b.n--
	return PageID(i - 1)
}

// sweep moves the hand over at most steps pages, clearing accessed bits as it
// passes, and stops on the first page whose bit is already clear. It returns
// the cycles spent and whether the hand rests on such a page. The list must
// not be empty.
func (b *base) sweep(steps int) (cycles uint64, found bool) {
	if b.hand == 0 {
		b.hand = b.nodes[0].next
	}
	for ; steps > 0; steps-- {
		cycles += b.cost.IterationCycles + b.cost.AccessedBitCycles
		nd := &b.nodes[b.hand]
		if nd.flags&accessed == 0 {
			return cycles, true
		}
		nd.flags &^= accessed
		b.hand = b.advance(b.hand)
	}
	return cycles, false
}

// evict bills one successful Evict call that spent cycles choosing the page
// at index i.
func (b *base) evict(i uint32, cycles uint64) (PageID, uint64, bool) {
	b.cycles += cycles
	b.evicted++
	return b.take(i), cycles, true
}

// evictNone bills an Evict call on an empty policy.
func (b *base) evictNone() (PageID, uint64, bool) {
	b.cycles += b.cost.BaseCycles
	return 0, b.cost.BaseCycles, false
}

// FIFO evicts the page with the oldest recorded fault.
type FIFO struct {
	base
}

// NewFIFO returns a FIFO policy with the given cost parameters.
func NewFIFO(cost Cost) *FIFO { return &FIFO{base{cost: cost}} }

// Name implements Policy.
func (f *FIFO) Name() string { return "fifo" }

// Evict implements Policy: the victim is the front of the FIFO list.
func (f *FIFO) Evict() (PageID, uint64, bool) {
	if f.n == 0 {
		return f.evictNone()
	}
	return f.evict(f.nodes[0].next, f.cost.BaseCycles+f.cost.IterationCycles)
}

// ClockClearPeriod is the number of evictions between two runs of the
// accessed-bit clearing daemon ("the accessed bit of all pages is
// periodically cleared" in the paper's Clock description). Its cost is
// charged to the Clock policy; Mixed bounds that management cost to its
// window, which is the paper's motivation for Mixed.
const ClockClearPeriod = 8

// Clock is the second-chance policy: a hand iterates circularly over the
// FIFO list, clearing accessed bits as it passes and evicting the first page
// whose bit is already clear. A page therefore gets a full revolution of the
// hand to prove it is still in use, which protects hot pages; the price is an
// unbounded scan when many consecutive pages have their bits set, plus the
// periodic accessed-bit management over every resident page — the costs the
// paper's Mixed policy was designed to curb.
type Clock struct {
	base
}

// NewClock returns a Clock policy with the given cost parameters.
func NewClock(cost Cost) *Clock { return &Clock{base{cost: cost}} }

// Name implements Policy.
func (c *Clock) Name() string { return "clock" }

// Evict implements Policy.
func (c *Clock) Evict() (PageID, uint64, bool) {
	if c.n == 0 {
		return c.evictNone()
	}
	// Amortized cost of the periodic accessed-bit clearing daemon: every
	// ClockClearPeriod evictions it touches the bit of every resident page.
	daemon := uint64(c.n) * c.cost.AccessedBitCycles / ClockClearPeriod
	// One revolution clears every bit at worst, so the hand stops on a
	// victim within n+1 steps.
	scan, _ := c.sweep(c.n + 1)
	return c.evict(c.hand, c.cost.BaseCycles+daemon+scan)
}

// Mixed applies the Clock policy to a bounded window of the list (advancing
// the same kind of hand, but at most Window steps per eviction); if every
// page in the window had its accessed bit set, it falls back to FIFO and
// evicts the oldest page beyond the window. This bounds both the iteration
// cost and the accessed-bit management of Clock while still avoiding the
// eviction of a page that was recently used, which is why the paper finds it
// the best of the three.
type Mixed struct {
	base
	window int
}

// DefaultMixedWindow is the paper's example window (x = 5).
const DefaultMixedWindow = 5

// NewMixed returns a Mixed policy with the given clock window.
func NewMixed(cost Cost, window int) *Mixed {
	if window <= 0 {
		window = DefaultMixedWindow
	}
	return &Mixed{base: base{cost: cost}, window: window}
}

// Name implements Policy.
func (m *Mixed) Name() string { return "mixed" }

// Window returns the clock window size.
func (m *Mixed) Window() int { return m.window }

// Evict implements Policy.
func (m *Mixed) Evict() (PageID, uint64, bool) {
	if m.n == 0 {
		return m.evictNone()
	}
	scan, found := m.sweep(min(m.window, m.n))
	if !found {
		// Window exhausted: fall back to FIFO over the rest of the list —
		// evict the oldest page that the clock window did not just examine
		// (i.e. the current hand position).
		scan += m.cost.IterationCycles
	}
	return m.evict(m.hand, m.cost.BaseCycles+scan)
}

// New constructs a policy by name: "fifo", "clock" or "mixed".
func New(name string, cost Cost) (Policy, error) {
	switch name {
	case "fifo":
		return NewFIFO(cost), nil
	case "clock":
		return NewClock(cost), nil
	case "mixed":
		return NewMixed(cost, DefaultMixedWindow), nil
	default:
		return nil, fmt.Errorf("pagepolicy: unknown policy %q", name)
	}
}

// Names lists the available policy names in the paper's order.
func Names() []string { return []string{"fifo", "clock", "mixed"} }

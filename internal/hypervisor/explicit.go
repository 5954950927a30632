package hypervisor

import "fmt"

// ExplicitSD models the second remote-memory function of Section 4: a swap
// device, visible to the VM, backed by remote RAM (or by a local SSD/HDD in
// the Table 2 comparison). Unlike RAM Ext, the guest operating system knows
// it has less RAM, which makes its memory management more aggressive: the
// paper measured, for instance, more than 122% additional swap traffic for
// Elasticsearch compared to the hypervisor-managed RAM Ext.
//
// The model keeps the guest's resident set in "guest RAM" (LocalFrames pages)
// and swaps overflow pages to the configured swap device, charging the device
// latency for every swap-in and swap-out. The AggressivenessFactor multiplies
// the swap traffic to capture the guest-visible behaviour difference; it
// defaults to the paper's observation and is exposed as a calibration knob.
type ExplicitSD struct {
	pages       int
	localFrames int
	device      RemoteStore
	cost        CostModel

	// aggressiveness multiplies the swap traffic relative to what a
	// hypervisor-managed policy would generate (>= 1).
	aggressiveness float64
	// extraTraffic accumulates the fractional additional transfers implied by
	// the aggressiveness factor.
	extraTraffic float64

	resident  map[int]bool
	fifo      []int
	slotOf    map[int]int
	freeSlots []int
	// buf carries a swapped page's contents: its page number's low byte.
	buf [1]byte

	stats Stats
}

// DefaultAggressiveness reflects the paper's observation that guest-managed
// swapping generates roughly twice the traffic of hypervisor paging, because
// applications and the guest kernel size their caches to the RAM they see at
// start time.
const DefaultAggressiveness = 2.2

// ExplicitConfig configures an ExplicitSD context.
type ExplicitConfig struct {
	// Pages is the VM's working memory in pages.
	Pages int
	// LocalFrames is the guest-visible RAM in pages.
	LocalFrames int
	// Device is the swap device: a swapdev.Store of a Table 2 kind (remote
	// RAM, SSD or HDD), or the rack's core.RemoteSwapDevice.
	Device RemoteStore
	// Cost is the CPU cost model; DefaultCostModel when zero.
	Cost CostModel
	// Aggressiveness scales swap traffic; DefaultAggressiveness when zero.
	Aggressiveness float64
}

// NewExplicitSD validates the configuration and builds the context.
func NewExplicitSD(cfg ExplicitConfig) (*ExplicitSD, error) {
	if cfg.Pages <= 0 {
		return nil, fmt.Errorf("hypervisor: explicit SD needs at least one page")
	}
	if cfg.LocalFrames < 0 {
		return nil, fmt.Errorf("hypervisor: negative guest RAM")
	}
	if cfg.LocalFrames > cfg.Pages {
		cfg.LocalFrames = cfg.Pages
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	if cfg.Aggressiveness <= 0 {
		cfg.Aggressiveness = DefaultAggressiveness
	}
	needSwap := cfg.Pages - cfg.LocalFrames
	if needSwap > 0 {
		if cfg.Device == nil {
			return nil, fmt.Errorf("hypervisor: a swap device is required when %d pages overflow guest RAM", needSwap)
		}
		if cfg.Device.Slots() < needSwap {
			return nil, fmt.Errorf("hypervisor: swap device has %d slots, need %d", cfg.Device.Slots(), needSwap)
		}
	}
	e := &ExplicitSD{
		pages:          cfg.Pages,
		localFrames:    cfg.LocalFrames,
		device:         cfg.Device,
		cost:           cfg.Cost,
		aggressiveness: cfg.Aggressiveness,
		resident:       make(map[int]bool, cfg.LocalFrames),
		slotOf:         make(map[int]int),
	}
	if cfg.Device != nil {
		// A swapped-in page keeps its slot (swapOut reuses it), so over time
		// every page can hold one: the free list covers Pages slots, not the
		// device. Lowest first, as RAMExt hands them out.
		slots := min(cfg.Pages, cfg.Device.Slots())
		e.freeSlots = make([]int, 0, slots)
		for i := slots - 1; i >= 0; i-- {
			e.freeSlots = append(e.freeSlots, i)
		}
	}
	return e, nil
}

// Stats returns a snapshot of the swap statistics.
func (e *ExplicitSD) Stats() Stats { return e.stats }

// Aggressiveness returns the configured traffic multiplier.
func (e *ExplicitSD) Aggressiveness() float64 { return e.aggressiveness }

// Access simulates one guest access to the page, swapping through the device
// when the page is not resident in guest RAM. It returns the simulated
// latency in nanoseconds.
func (e *ExplicitSD) Access(page int, write bool) (float64, error) {
	if page < 0 || page >= e.pages {
		return 0, ErrBadPage
	}
	e.stats.Accesses++
	ns := e.cost.LocalAccessNs
	e.stats.LocalNs += e.cost.LocalAccessNs
	if e.resident[page] {
		return ns, nil
	}

	// Page fault inside the guest.
	ns += e.cost.FaultTrapNs
	e.stats.FaultNs += e.cost.FaultTrapNs

	// Make room if guest RAM is full: swap out the oldest resident page. The
	// aggressiveness factor models the extra traffic a guest-managed policy
	// produces (read-ahead, dirty writeback of clean-ish pages, cache sizing):
	// every real swap-out accumulates fractional extra page transfers, which
	// are accounted as additional demotions and device time.
	if len(e.resident) >= e.localFrames {
		victim := e.fifo[0]
		e.fifo = e.fifo[1:]
		delete(e.resident, victim)
		outLat, err := e.swapOut(victim)
		if err != nil {
			return ns, err
		}
		e.stats.Demotions++
		e.stats.RemoteNs += outLat
		ns += outLat
		e.extraTraffic += e.aggressiveness - 1
		for e.extraTraffic >= 1 {
			e.extraTraffic--
			e.stats.Demotions++
			e.stats.RemoteNs += outLat
			ns += outLat
		}
		e.stats.MajorFaults++
	} else {
		e.stats.MinorFaults++
	}

	// Swap the requested page in if it had been swapped out before.
	if slot, ok := e.slotOf[page]; ok {
		inLat, err := e.swapIn(slot)
		if err != nil {
			return ns, err
		}
		e.stats.Promotions++
		e.stats.RemoteNs += inLat
		ns += inLat
	}

	e.resident[page] = true
	e.fifo = append(e.fifo, page)
	return ns, nil
}

func (e *ExplicitSD) swapOut(page int) (float64, error) {
	if len(e.freeSlots) == 0 {
		// Reuse the page's previous slot if it has one; otherwise fail.
		if _, ok := e.slotOf[page]; !ok {
			return 0, ErrNoRemoteCapacity
		}
	}
	slot, ok := e.slotOf[page]
	if !ok {
		slot = e.freeSlots[len(e.freeSlots)-1]
		e.freeSlots = e.freeSlots[:len(e.freeSlots)-1]
		e.slotOf[page] = slot
	}
	e.buf[0] = byte(page)
	lat, err := e.device.WritePage(slot, e.buf[:])
	return float64(lat), err
}

func (e *ExplicitSD) swapIn(slot int) (float64, error) {
	lat, err := e.device.ReadPage(slot, e.buf[:])
	return float64(lat), err
}

// SwapTraffic returns the total pages moved to/from the swap device; the
// paper compares this between RAM Ext and Explicit SD ("v2 generates more
// than 122% traffic than v1").
func (e *ExplicitSD) SwapTraffic() uint64 { return e.stats.Demotions + e.stats.Promotions }

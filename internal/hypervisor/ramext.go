package hypervisor

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/pagepolicy"
)

// Errors returned by the paging layer.
var (
	ErrNoRemoteCapacity = errors.New("hypervisor: out of remote memory capacity")
	ErrBadPage          = errors.New("hypervisor: page outside the VM's pseudo-physical space")
)

// RemoteStore is the hypervisor's view of remote memory: a page-granular
// store addressed by slot index. The package doc lists its implementations.
type RemoteStore interface {
	// Slots returns the store capacity in pages.
	Slots() int
	// WritePage stores a page and returns the simulated latency.
	WritePage(slot int, page []byte) (int64, error)
	// ReadPage fetches a page and returns the simulated latency.
	ReadPage(slot int, dst []byte) (int64, error)
}

// CostModel carries the CPU-side costs of the paging machinery.
type CostModel struct {
	// LocalAccessNs is the guest-visible cost of one benchmark operation on a
	// resident page (the micro-benchmark's read/write of a 4 KiB entry).
	LocalAccessNs float64
	// FaultTrapNs is the VM-exit + handler entry cost of a page fault.
	FaultTrapNs float64
	// CyclesPerNs converts policy cycles to time (CPU frequency in GHz).
	CyclesPerNs float64
	// PageSize is the page size in bytes.
	PageSize int
}

// DefaultCostModel returns the cost parameters used across the repository:
// ~3.5 GHz cores, 1 microsecond of useful work per touched page (the
// micro-benchmark iterates and performs read/write operations on each 4 KiB
// entry), 2 microseconds of trap overhead per fault.
func DefaultCostModel() CostModel {
	return CostModel{
		LocalAccessNs: 1000,
		FaultTrapNs:   2000,
		CyclesPerNs:   3.5,
		PageSize:      4096,
	}
}

// pageLocation describes where a pseudo-physical page currently lives.
type pageLocation uint8

const (
	locUnallocated pageLocation = iota // never touched: allocated on first fault
	locLocal                           // resident in a local machine frame
	locRemote                          // demoted to a remote slot
)

// Stats aggregates the paging activity of one VM.
type Stats struct {
	// Accesses is the number of guest page accesses simulated.
	Accesses uint64
	// MinorFaults are first-touch faults satisfied from free local frames.
	MinorFaults uint64
	// MajorFaults are faults that required demoting a page to remote memory
	// and/or fetching one back (the "# page faults" series of Figure 8).
	MajorFaults uint64
	// Demotions counts pages pushed to remote memory.
	Demotions uint64
	// Promotions counts pages fetched back from remote memory.
	Promotions uint64
	// PolicyCycles is the total CPU cycles spent inside the replacement
	// policy (the bottom series of Figure 8).
	PolicyCycles uint64
	// PolicyNs is PolicyCycles converted to time.
	PolicyNs float64
	// RemoteNs is the simulated time spent waiting for remote transfers.
	RemoteNs float64
	// LocalNs is the simulated time spent in useful guest work.
	LocalNs float64
	// FaultNs is the simulated trap/handler overhead.
	FaultNs float64
}

// TotalNs returns the simulated execution time.
func (s Stats) TotalNs() float64 { return s.LocalNs + s.RemoteNs + s.FaultNs + s.PolicyNs }

// PolicyCyclesPerFault returns the mean policy cost per major fault.
func (s Stats) PolicyCyclesPerFault() float64 {
	if s.MajorFaults == 0 {
		return 0
	}
	return float64(s.PolicyCycles) / float64(s.MajorFaults)
}

// RAMExt is the hypervisor paging context of one VM using the RAM Extension
// function: LocalFrames of the VM's pseudo-physical space are backed by local
// machine memory; the remainder lives in remote buffers. The VM is oblivious
// to the split.
type RAMExt struct {
	pages       int
	localFrames int
	policy      pagepolicy.Policy
	remote      RemoteStore
	cost        CostModel

	loc        []pageLocation
	remoteSlot []int32 // page -> remote slot (when locRemote)
	// The two slot tables cover what the VM can occupy, not what the store
	// offers: Pages-LocalFrames pages can be remote at once, plus one because
	// a fault demotes its victim before it releases the promoted page's slot.
	// Slots are handed out lowest first and reused last-freed first, so no
	// slot at or past that bound is ever reached.
	slotOfPage []int32 // remote slot -> page (-1 when free)
	freeSlots  []int32
	freeLocal  int

	// pageSeal holds the synthetic contents of every page so that data
	// integrity through demote/promote cycles is testable. One byte per page
	// is enough to detect corruption without inflating memory.
	pageSeal []byte
	buf      []byte

	stats Stats
}

// Config configures a RAMExt context.
type Config struct {
	// Pages is the VM's pseudo-physical size in pages.
	Pages int
	// LocalFrames is the number of local machine frames granted to the VM.
	LocalFrames int
	// Policy selects demotion victims; required when LocalFrames < Pages.
	Policy pagepolicy.Policy
	// Remote backs the demoted pages; required when LocalFrames < Pages.
	Remote RemoteStore
	// Cost is the CPU cost model; DefaultCostModel when zero.
	Cost CostModel
}

// NewRAMExt validates the configuration and builds the paging context.
func NewRAMExt(cfg Config) (*RAMExt, error) {
	if cfg.Pages <= 0 || cfg.Pages > math.MaxInt32 {
		return nil, fmt.Errorf("hypervisor: VM needs 1 to %d pages, got %d", math.MaxInt32, cfg.Pages)
	}
	if cfg.LocalFrames < 0 {
		return nil, fmt.Errorf("hypervisor: negative local frames")
	}
	if cfg.LocalFrames > cfg.Pages {
		cfg.LocalFrames = cfg.Pages
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	needRemote := cfg.Pages - cfg.LocalFrames
	if needRemote == 0 && cfg.Policy == nil {
		// An all-local VM never evicts; a FIFO policy provides the (cheap)
		// residency bookkeeping.
		cfg.Policy = pagepolicy.NewFIFO(pagepolicy.DefaultCost())
	}
	if needRemote > 0 {
		if cfg.Policy == nil {
			return nil, fmt.Errorf("hypervisor: a replacement policy is required when %d pages are remote", needRemote)
		}
		if cfg.Remote == nil {
			return nil, fmt.Errorf("hypervisor: a remote store is required when %d pages are remote", needRemote)
		}
		if cfg.Remote.Slots() < needRemote {
			return nil, fmt.Errorf("hypervisor: remote store has %d slots, need %d: %w", cfg.Remote.Slots(), needRemote, ErrNoRemoteCapacity)
		}
	}
	r := &RAMExt{
		pages:       cfg.Pages,
		localFrames: cfg.LocalFrames,
		policy:      cfg.Policy,
		remote:      cfg.Remote,
		cost:        cfg.Cost,
		loc:         make([]pageLocation, cfg.Pages),
		remoteSlot:  make([]int32, cfg.Pages),
		pageSeal:    make([]byte, cfg.Pages),
		buf:         make([]byte, cfg.Cost.PageSize),
		freeLocal:   cfg.LocalFrames,
	}
	if cfg.Remote != nil {
		slots := min(needRemote+1, cfg.Remote.Slots())
		r.slotOfPage = make([]int32, slots)
		r.freeSlots = make([]int32, 0, slots)
		for i := int32(slots) - 1; i >= 0; i-- {
			r.slotOfPage[i] = -1
			r.freeSlots = append(r.freeSlots, i)
		}
	}
	return r, nil
}

// Pages returns the VM's pseudo-physical size in pages.
func (r *RAMExt) Pages() int { return r.pages }

// LocalFrames returns the local frame budget.
func (r *RAMExt) LocalFrames() int { return r.localFrames }

// Stats returns a snapshot of the paging statistics.
func (r *RAMExt) Stats() Stats { return r.stats }

// ResidentPages returns the number of pages currently in local memory.
func (r *RAMExt) ResidentPages() int { return r.localFrames - r.freeLocal }

// RemotePages returns the number of pages currently demoted to remote memory.
func (r *RAMExt) RemotePages() int { return int(r.stats.Demotions - r.stats.Promotions) }

// Access simulates one guest access (read or write) to the page and returns
// the simulated latency in nanoseconds. It reproduces the modified KVM page
// fault handler: resident pages are accessed directly; non-present pages
// trigger a fault that allocates a free local frame or demotes a victim
// chosen by the replacement policy, then (if the page had been demoted
// earlier) reloads its contents from remote memory.
func (r *RAMExt) Access(page int, write bool) (float64, error) {
	if page < 0 || page >= r.pages {
		return 0, ErrBadPage
	}
	r.stats.Accesses++
	ns := r.cost.LocalAccessNs
	r.stats.LocalNs += r.cost.LocalAccessNs

	switch r.loc[page] {
	case locLocal:
		r.policy.Access(pagepolicy.PageID(page))
		if write {
			r.pageSeal[page]++
		}
		return ns, nil
	case locUnallocated:
		fault, err := r.faultIn(page, false)
		if err != nil {
			return ns, err
		}
		ns += fault
		if write {
			r.pageSeal[page]++
		}
		return ns, nil
	case locRemote:
		fault, err := r.faultIn(page, true)
		if err != nil {
			return ns, err
		}
		ns += fault
		if write {
			r.pageSeal[page]++
		}
		return ns, nil
	default:
		return ns, fmt.Errorf("hypervisor: page %d in impossible state", page)
	}
}

// faultIn makes the page resident, returning the simulated fault latency.
// fetchRemote indicates the page has contents to reload from remote memory.
func (r *RAMExt) faultIn(page int, fetchRemote bool) (float64, error) {
	ns := r.cost.FaultTrapNs
	r.stats.FaultNs += r.cost.FaultTrapNs

	if r.freeLocal == 0 {
		// Demote a victim to free a frame.
		victim, cycles, ok := r.policy.Evict()
		policyNs := float64(cycles) / r.cost.CyclesPerNs
		r.stats.PolicyCycles += cycles
		r.stats.PolicyNs += policyNs
		ns += policyNs
		if !ok {
			return ns, fmt.Errorf("hypervisor: no victim available for page %d", page)
		}
		demoteNs, err := r.demote(int(victim))
		if err != nil {
			return ns, err
		}
		ns += demoteNs
		r.stats.MajorFaults++
	} else {
		r.stats.MinorFaults++
	}

	if fetchRemote {
		slot := r.remoteSlot[page]
		lat, err := r.remote.ReadPage(int(slot), r.buf)
		if err != nil {
			return ns, fmt.Errorf("hypervisor: promote page %d: %w", page, err)
		}
		if len(r.buf) > 0 && r.buf[0] != r.pageSeal[page] {
			return ns, fmt.Errorf("hypervisor: page %d corrupted through remote memory (seal %d != %d)", page, r.buf[0], r.pageSeal[page])
		}
		r.stats.Promotions++
		r.stats.RemoteNs += float64(lat)
		ns += float64(lat)
		// Release the remote slot.
		r.freeSlots = append(r.freeSlots, slot)
		r.slotOfPage[slot] = -1
	}

	r.freeLocal--
	r.loc[page] = locLocal
	r.policy.Fault(pagepolicy.PageID(page))
	return ns, nil
}

// demote pushes a resident victim page to a free remote slot.
func (r *RAMExt) demote(victim int) (float64, error) {
	if len(r.freeSlots) == 0 {
		return 0, ErrNoRemoteCapacity
	}
	slot := r.freeSlots[len(r.freeSlots)-1]
	r.freeSlots = r.freeSlots[:len(r.freeSlots)-1]
	if len(r.buf) > 0 {
		r.buf[0] = r.pageSeal[victim]
	}
	lat, err := r.remote.WritePage(int(slot), r.buf)
	if err != nil {
		r.freeSlots = append(r.freeSlots, slot)
		return 0, fmt.Errorf("hypervisor: demote page %d: %w", victim, err)
	}
	r.loc[victim] = locRemote
	r.remoteSlot[victim] = slot
	r.slotOfPage[slot] = int32(victim)
	r.freeLocal++
	r.stats.Demotions++
	r.stats.RemoteNs += float64(lat)
	return float64(lat), nil
}

// LocalPages returns the pseudo-physical page numbers currently resident in
// local memory, in ascending order. The migration protocol uses this to
// transfer only the hot/local part of a VM.
func (r *RAMExt) LocalPages() []int {
	out := make([]int, 0, r.ResidentPages())
	for p, l := range r.loc {
		if l == locLocal {
			out = append(out, p)
		}
	}
	return out
}

// RemotePageSlots returns the mapping of demoted pages to remote slots. After
// a migration, ownership of these slots moves to the destination host without
// copying the data.
func (r *RAMExt) RemotePageSlots() map[int]int {
	out := make(map[int]int)
	for p, l := range r.loc {
		if l == locRemote {
			out[p] = int(r.remoteSlot[p])
		}
	}
	return out
}

// CheckInvariants validates the page-table bookkeeping: every local page is
// counted against the frame budget, every remote page has a distinct slot
// inside the slot tables, the demotion/promotion counters agree with the page
// table, and free-slot accounting is consistent. Property tests call it after
// random access sequences.
func (r *RAMExt) CheckInvariants() error {
	local, remote := 0, 0
	slotSeen := make(map[int32]int)
	for p, l := range r.loc {
		switch l {
		case locLocal:
			local++
		case locRemote:
			remote++
			s := r.remoteSlot[p]
			if s < 0 || int(s) >= len(r.slotOfPage) {
				return fmt.Errorf("hypervisor: page %d maps to invalid slot %d", p, s)
			}
			if other, dup := slotSeen[s]; dup {
				return fmt.Errorf("hypervisor: pages %d and %d share remote slot %d", other, p, s)
			}
			slotSeen[s] = p
			if int(r.slotOfPage[s]) != p {
				return fmt.Errorf("hypervisor: slot %d back-pointer is %d, want %d", s, r.slotOfPage[s], p)
			}
		}
	}
	if local != r.localFrames-r.freeLocal {
		return fmt.Errorf("hypervisor: %d local pages but %d frames in use", local, r.localFrames-r.freeLocal)
	}
	if local > r.localFrames {
		return fmt.Errorf("hypervisor: %d local pages exceed the %d-frame budget", local, r.localFrames)
	}
	if remote != r.RemotePages() {
		return fmt.Errorf("hypervisor: %d remote pages but demotions-promotions = %d", remote, r.RemotePages())
	}
	if remote+len(r.freeSlots) > len(r.slotOfPage) {
		return fmt.Errorf("hypervisor: %d remote pages + %d free slots exceed %d slots", remote, len(r.freeSlots), len(r.slotOfPage))
	}
	return nil
}

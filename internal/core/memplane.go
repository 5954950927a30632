package core

import (
	"fmt"
	"sort"

	"repro/internal/ident"
	"repro/internal/memctl"
	"repro/internal/memplane"
)

// MemplaneOf returns (building on first use) the VM's remote-memory data
// plane: an address space scaled like the VM's paging context whose pages
// live in the host's local arena up to the placement's local fraction and
// overflow into the VM's own RAM-ext reservation — the plane is seeded with
// the buffers CreateVM already granted, so data-plane bytes land in exactly
// the remote memory the placement reserved (no double booking against the
// rack's admission control). RAM Ext pages into the low rows of those same
// buffers, so the plane carves only the rows above them, and paging and data
// traffic on one VM never touch each other's bytes. It grows through the
// host agent's guaranteed GS_alloc_ext path only past that reservation. Once
// the plane exists it owns the reservation's handles: its Close (run by
// DestroyVM) releases them.
func (r *Rack) MemplaneOf(vmID string) (*memplane.Plane, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	guest, ok := r.vmLocked(vmID)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownVM, vmID)
	}
	if guest.plane != nil {
		return guest.plane, nil
	}
	host, _ := r.server(guest.Host)
	// RAM Ext never holds more than remote pages + 1 slots (see package
	// hypervisor) and stripes slot s over row s/n of buffer s%n.
	var rows int64
	remote, n := guest.Paging.Pages()-guest.Paging.LocalFrames(), len(guest.buffers)+len(guest.borrowed)
	if remote > 0 && n > 0 {
		rows = int64((remote + n) / n)
	}
	p, err := memplane.New(memplane.Config{
		VM:           vmID,
		LocalBytes:   int64(guest.Paging.LocalFrames()) * memplane.DefaultPageSize,
		AddressBytes: int64(guest.Paging.Pages()) * memplane.DefaultPageSize,
		Agent:        host.Agent,
		Buffers:      guest.buffers,
		SeedOffset:   rows * memplane.DefaultPageSize,
	})
	if err != nil {
		return nil, err
	}
	guest.plane = p
	return p, nil
}

// dataPlanes snapshots the live planes, in VM-name order.
func (r *Rack) dataPlanes() []*memplane.Plane {
	r.mu.Lock()
	defer r.mu.Unlock()
	type named struct {
		name  string
		plane *memplane.Plane
	}
	live := make([]named, 0, r.vmCount)
	for vid, g := range r.vms {
		if g != nil && g.plane != nil {
			live = append(live, named{r.names.Name(ident.ID(vid)), g.plane})
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].name < live[j].name })
	out := make([]*memplane.Plane, len(live))
	for i, n := range live {
		out[i] = n.plane
	}
	return out
}

// ResidentBytes returns the host memory the rack's simulated DRAM occupies:
// the materialised part of every region lent on the fabric plus that of every
// live data plane's local arena, so each written page counts once. The
// gateway evaluates it on every scrape and session report, so it allocates
// nothing; and it never holds the rack lock while taking a plane's, so a
// plane busy with a long op never stalls the rest of the rack.
func (r *Rack) ResidentBytes() int64 {
	total := r.fabric.ResidentBytes()
	for i := 0; ; i++ {
		r.mu.Lock()
		if i >= len(r.vms) {
			r.mu.Unlock()
			return total
		}
		var p *memplane.Plane
		if g := r.vms[i]; g != nil {
			p = g.plane
		}
		r.mu.Unlock()
		if p != nil {
			total += p.ResidentBytes()
		}
	}
}

// CrashDataHost marks a server crashed on every live data plane: remote
// operations against its frames time out until ReviveDataHost or a re-home.
// It does not touch the control plane or the device posture — the fleet's
// crash bookkeeping handles those.
func (r *Rack) CrashDataHost(server string) {
	for _, p := range r.dataPlanes() {
		p.CrashHost(memctl.ServerID(server))
	}
}

// ReviveDataHost clears a crash mark on every live data plane.
func (r *Rack) ReviveDataHost(server string) {
	for _, p := range r.dataPlanes() {
		p.ReviveHost(memctl.ServerID(server))
	}
}

// RehomeDataHost migrates every live page served by the (crashed) server onto
// healthy hosts, plane by plane in VM order, and returns the aggregate
// migration report.
func (r *Rack) RehomeDataHost(server string) (memplane.RehomeReport, error) {
	var total memplane.RehomeReport
	for _, p := range r.dataPlanes() {
		rep, err := p.Rehome(memctl.ServerID(server))
		total.Pages += rep.Pages
		total.Bytes += rep.Bytes
		total.Ns += rep.Ns
		if err != nil {
			return total, fmt.Errorf("core: re-homing %s off %s: %w", p.VM(), server, err)
		}
	}
	return total, nil
}

package fleet

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/memplane"
	"repro/internal/workload"
)

// MemplaneOf returns (building on first use) the data plane of a fleet-placed
// VM — the handle through which workloads push real bytes into zombie
// servers' granted buffers.
func (f *Fleet) MemplaneOf(vmID string) (*memplane.Plane, error) {
	f.mu.Lock()
	rack, ok := f.vmRackLocked(vmID)
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fleet: unknown VM %s", vmID)
	}
	return f.racks[rack].MemplaneOf(vmID)
}

// SetDataChaos arms every rack's future data planes with a chaos plan (fabric
// windows degrade remote charges, looked up at now()).
func (f *Fleet) SetDataChaos(plan *chaos.Plan, now func() int64) {
	for _, r := range f.racks {
		r.SetDataChaos(plan, now)
	}
}

// RehomeServerMemory migrates every live data-plane page served by a crashed
// server onto healthy hosts of its rack and returns the aggregate report. The
// server must be crashed first (CrashServer), otherwise the migration would
// race live traffic to the same frames.
func (f *Fleet) RehomeServerMemory(rack int, server string) (memplane.RehomeReport, error) {
	if err := f.checkRack(rack); err != nil {
		return memplane.RehomeReport{}, err
	}
	f.mu.Lock()
	crashed := f.crashed.Has(server)
	f.mu.Unlock()
	if !crashed {
		return memplane.RehomeReport{}, fmt.Errorf("fleet: %s is not crashed; crash it before re-homing its memory", server)
	}
	f.batchMu.Lock()
	defer f.batchMu.Unlock()
	return f.racks[rack].RehomeDataHost(server)
}

// fillPayload sets buf[i] = byte(c + 3*i), the data-traffic payload of the page
// with c = page + seed. The sequence has period 256 in i, so one period is
// generated and then doubled across the page; every copy starts at a multiple
// of 256, which keeps the phase for lengths that are not.
func fillPayload(buf []byte, c int64) {
	n := len(buf)
	if n > 256 {
		n = 256
	}
	for i := 0; i < n; i++ {
		buf[i] = byte(c + 3*int64(i))
	}
	for n < len(buf) {
		n += copy(buf[n:], buf[:n])
	}
}

// runDataTraffic replays a workload's access stream as real byte traffic
// through the VM's data plane: every access becomes a full-page write or read
// at the workload's page, so the bytes demonstrably traverse the zombie
// servers' buffers (and pay the fabric charges the ledger predicts).
func runDataTraffic(rack *core.Rack, req WorkloadRequest) (memplane.Stats, error) {
	p, err := rack.MemplaneOf(req.VM)
	if err != nil {
		return memplane.Stats{}, err
	}
	guest, err := rack.VM(req.VM)
	if err != nil {
		return memplane.Stats{}, err
	}
	ps := p.PageSize()
	pages := int(req.DataBytes / ps)
	if pages < 1 {
		pages = 1
	}
	if max := guest.Paging.Pages(); pages > max {
		pages = max
	}
	stream, err := workload.NewStream(workload.ProfileOf(req.Kind), pages, req.Iterations, req.Seed)
	if err != nil {
		return memplane.Stats{}, err
	}
	buf := make([]byte, ps)
	for {
		a, ok := stream.Next()
		if !ok {
			break
		}
		addr := int64(a.Page) * ps
		if a.Write {
			fillPayload(buf, int64(a.Page)+req.Seed)
			if _, _, err := p.Write(addr, buf); err != nil {
				return p.Stats(), err
			}
		} else {
			if _, _, err := p.Read(addr, buf); err != nil {
				return p.Stats(), err
			}
		}
	}
	return p.Stats(), nil
}

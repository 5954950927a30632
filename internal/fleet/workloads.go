package fleet

import (
	"fmt"

	"repro/internal/hypervisor"
	"repro/internal/memplane"
	"repro/internal/pool"
	"repro/internal/workload"
)

// WorkloadRequest asks the fleet to replay a workload against one VM.
type WorkloadRequest struct {
	VM         string
	Kind       workload.Kind
	Iterations int
	Seed       int64
	// DataBytes, when positive, switches the replay from the simulated paging
	// context to the VM's data plane: the workload's access stream is driven
	// as real page-sized reads and writes through memplane, so the bytes
	// actually traverse the zombie servers' granted buffers. The value sizes
	// the traffic's address span (capped at the VM's paging scale).
	DataBytes int64
}

// WorkloadResult is the outcome of one request, in request order.
type WorkloadResult struct {
	VM   string
	Rack string
	Kind workload.Kind
	// Stats carries the VM's accumulated paging counters after the replay
	// (paging mode only).
	Stats hypervisor.Stats
	// Data carries the VM's accumulated data-plane counters after the replay
	// (DataBytes mode only).
	Data memplane.Stats
	// Err is non-empty when the replay failed; other requests proceed.
	Err string
}

// RunWorkloads replays a batch of workloads across the fleet on the worker
// pool: requests are grouped by hosting rack, each rack shard replays its
// requests in batch order, and the results land in the batch-ordered slice.
// Replays only touch their own VM's paging context and the fabrics backing
// its buffers, so shards are independent and the results are bit-identical
// for any Workers value.
func (f *Fleet) RunWorkloads(reqs []WorkloadRequest) []WorkloadResult {
	f.batchMu.Lock()
	defer f.batchMu.Unlock()

	results := make([]WorkloadResult, len(reqs))
	byRack := make([][]int, len(f.racks))
	// One lock acquisition for the whole routing pass: the per-request work
	// under it is a registry probe and a slice index.
	f.mu.Lock()
	for i, req := range reqs {
		results[i].VM = req.VM
		results[i].Kind = req.Kind
		ri, ok := f.vmRackLocked(req.VM)
		if !ok {
			results[i].Err = fmt.Sprintf("fleet: unknown VM %s", req.VM)
			continue
		}
		results[i].Rack = f.names[ri]
		byRack[ri] = append(byRack[ri], i)
	}
	f.mu.Unlock()

	pool.Run(len(f.racks), f.cfg.Workers, func(ri int) {
		rack := f.racks[ri]
		for _, i := range byRack[ri] {
			req := reqs[i]
			if req.DataBytes > 0 {
				data, err := runDataTraffic(rack, req)
				results[i].Data = data
				if err != nil {
					results[i].Err = err.Error()
				}
				continue
			}
			stats, err := rack.RunWorkload(req.VM, req.Kind, req.Iterations, req.Seed)
			if err != nil {
				results[i].Err = err.Error()
				continue
			}
			results[i].Stats = stats
		}
	})
	f.observeWorkloads(byRack, results)
	return results
}

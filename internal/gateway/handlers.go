package gateway

import (
	"errors"
	"fmt"
	"math"
	"net/http"

	"repro/internal/acpi"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/vm"
	"repro/internal/workload"
)

// createFleetRequest builds a session: a racks×servers fleet, optionally
// with the tail servers of every rack pushed into Sz so the fleet starts
// with a remote-memory pool.
type createFleetRequest struct {
	Racks          int `json:"racks"`
	Servers        int `json:"servers"`
	MemGiB         int `json:"mem_gib"`
	Workers        int `json:"workers"`
	ZombiesPerRack int `json:"zombies_per_rack"`
}

type createFleetResponse struct {
	ID        string  `json:"id"`
	Racks     int     `json:"racks"`
	Servers   int     `json:"servers"`
	MemGiB    int     `json:"mem_gib"`
	Zombies   int     `json:"zombies"`
	RemoteGiB float64 `json:"remote_gib"`
}

// Bounds on a request that are not deployment settings: a 1 TiB board is far
// past the paper's 16 GiB servers and keeps mem_gib<<30 inside a uint64,
// workers past 256 goroutines buy nothing on any host, 4096 VMs overfill the
// largest fleet the gateway builds, and a workloads item is a replay of at
// most 1000 passes, not a request that pins a core for hours. The same holds
// for an autopilot or chaos run: its trace is generated before the request is
// answered, so a fleet of 10 000 machines, 100 000 tasks, a week of horizon
// and 100 000 ticks bound what one request can make the daemon compute.
const (
	maxMemGiB       = 1024
	maxWorkers      = 256
	maxPlaceCount   = 4096
	maxIterations   = 1000
	maxAPMachines   = 10_000
	maxAPTasks      = 100_000
	maxAPHorizonSec = 7 * 24 * 3600
	maxAPTicks      = 100_000
)

func (s *Server) handleCreateFleet(w http.ResponseWriter, r *http.Request) {
	req := createFleetRequest{Racks: 2, Servers: 4, MemGiB: 16, Workers: 2}
	if !decodeJSON(w, r, &req) {
		return
	}
	// Every field is bounded on its own before any two are multiplied or
	// shifted, so no product below can wrap.
	switch {
	case req.Racks < 1 || req.Racks > s.cfg.MaxServers:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("racks %d out of range (need 1..%d)", req.Racks, s.cfg.MaxServers))
		return
	case req.Servers < 1 || req.Servers > s.cfg.MaxServers:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("servers %d out of range (need 1..%d)", req.Servers, s.cfg.MaxServers))
		return
	case req.MemGiB < 1 || req.MemGiB > maxMemGiB:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("mem_gib %d out of range (need 1..%d)", req.MemGiB, maxMemGiB))
		return
	case req.Workers < 1 || req.Workers > maxWorkers:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("workers %d out of range (need 1..%d)", req.Workers, maxWorkers))
		return
	case req.ZombiesPerRack < 0 || req.ZombiesPerRack >= req.Servers:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("zombies_per_rack %d must leave an active server (servers %d)", req.ZombiesPerRack, req.Servers))
		return
	case req.Racks*req.Servers > s.cfg.MaxServers:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("fleet of %d servers exceeds the gateway cap of %d", req.Racks*req.Servers, s.cfg.MaxServers))
		return
	}

	zombies := 0
	buildStatus := http.StatusBadRequest
	sess, err := s.manager.Create(req.Racks, req.Servers, req.MemGiB, func() (*fleet.Fleet, error) {
		board := acpi.DefaultBoardSpec()
		board.MemoryBytes = uint64(req.MemGiB) << 30
		f, err := fleet.New(fleet.Config{
			Racks:   req.Racks,
			Rack:    core.Config{Servers: req.Servers, Board: board},
			Workers: req.Workers,
		})
		if err != nil {
			return nil, err
		}
		for ri := 0; ri < req.Racks; ri++ {
			names := f.Rack(ri).Servers()
			for z := 0; z < req.ZombiesPerRack; z++ {
				if err := f.PushToZombie(ri, names[len(names)-1-z]); err != nil {
					buildStatus = http.StatusInternalServerError
					return nil, err
				}
				zombies++
			}
		}
		return f, nil
	})
	if errors.Is(err, ErrSessionLimit) {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if err != nil {
		writeError(w, buildStatus, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, createFleetResponse{
		ID:        sess.ID,
		Racks:     req.Racks,
		Servers:   req.Servers,
		MemGiB:    req.MemGiB,
		Zombies:   zombies,
		RemoteGiB: float64(sess.Fleet().FreeRemoteMemory()) / float64(1<<30),
	})
}

type fleetSummary struct {
	ID      string `json:"id"`
	Racks   int    `json:"racks"`
	Servers int    `json:"servers"`
	VMs     int    `json:"vms"`
}

func (s *Server) handleListFleets(w http.ResponseWriter, r *http.Request) {
	ids := s.manager.IDs()
	out := make([]fleetSummary, 0, len(ids))
	for _, id := range ids {
		sess, ok := s.manager.Get(id)
		if !ok {
			continue // evicted between listing and resolving
		}
		sess.mu.Lock()
		out = append(out, fleetSummary{ID: sess.ID, Racks: sess.racks, Servers: sess.servers, VMs: sess.placed})
		sess.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, map[string]any{"fleets": out})
}

func (s *Server) handleDeleteFleet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.manager.Delete(id) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown fleet %q", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// placeVMsRequest places count identical VMs; the gateway names them
// "<fleet>-vm-<n>". WssGiB defaults to 75% of GiB, the fleetsim convention;
// VCPUs defaults to the paper's 8-vCPU VMs (a full default board).
type placeVMsRequest struct {
	Count  int     `json:"count"`
	GiB    float64 `json:"gib"`
	WssGiB float64 `json:"wss_gib"`
	VCPUs  int     `json:"vcpus"`
}

type placementJSON struct {
	VM          string  `json:"vm"`
	Rack        string  `json:"rack,omitempty"`
	Host        string  `json:"host,omitempty"`
	LocalGiB    float64 `json:"local_gib"`
	RemoteGiB   float64 `json:"remote_gib"`
	BorrowedGiB float64 `json:"borrowed_gib"`
	From        string  `json:"from,omitempty"`
	Error       string  `json:"error,omitempty"`
}

func (s *Server) handlePlaceVMs(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	req := placeVMsRequest{Count: 1, GiB: 8, VCPUs: 8}
	if !decodeJSON(w, r, &req) {
		return
	}
	switch {
	case req.Count < 1 || req.Count > maxPlaceCount:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("count %d out of range (need 1..%d)", req.Count, maxPlaceCount))
		return
	case req.GiB <= 0:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("gib %g out of range (need > 0)", req.GiB))
		return
	case req.VCPUs < 1:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("vcpus %d out of range (need >= 1)", req.VCPUs))
		return
	}
	if req.WssGiB <= 0 {
		req.WssGiB = req.GiB * 0.75
	}

	sess.mu.Lock()
	f := sess.fleet
	first := sess.vmSeq
	sess.vmSeq += req.Count
	sess.mu.Unlock()

	specs := make([]vm.VM, 0, req.Count)
	for i := 0; i < req.Count; i++ {
		spec := vm.New(fmt.Sprintf("%s-vm-%d", sess.ID, first+i),
			int64(req.GiB*float64(1<<30)), int64(req.WssGiB*float64(1<<30)))
		spec.VCPUs = req.VCPUs
		specs = append(specs, spec)
	}
	placements, err := f.PlaceVMs(specs, core.CreateVMOptions{})
	if err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	out := make([]placementJSON, 0, len(placements))
	placed := 0
	for _, p := range placements {
		pj := placementJSON{VM: p.VM, Rack: p.Rack, Host: p.Host, From: p.BorrowedFrom, Error: p.Err}
		if p.Err == "" {
			placed++
			pj.LocalGiB = float64(p.LocalBytes) / float64(1<<30)
			pj.RemoteGiB = float64(p.RemoteBytes) / float64(1<<30)
			pj.BorrowedGiB = float64(p.BorrowedBytes) / float64(1<<30)
		}
		out = append(out, pj)
	}
	sess.mu.Lock()
	sess.placed += placed
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"placed": placed, "placements": out})
}

// workloadsRequest replays a batch of workloads. DataMiB > 0 routes an item
// through the memplane data plane (real bytes through zombie buffers).
type workloadsRequest struct {
	Items []workloadItem `json:"items"`
}

type workloadItem struct {
	VM         string `json:"vm"`
	Kind       string `json:"kind"`
	Iterations int    `json:"iterations"`
	Seed       int64  `json:"seed"`
	DataMiB    int64  `json:"data_mib"`
}

type workloadResultJSON struct {
	VM          string  `json:"vm"`
	Rack        string  `json:"rack,omitempty"`
	Kind        string  `json:"kind"`
	Error       string  `json:"error,omitempty"`
	Accesses    uint64  `json:"accesses,omitempty"`
	MajorFaults uint64  `json:"major_faults,omitempty"`
	RemoteMs    float64 `json:"remote_ms,omitempty"`
	LocalOps    uint64  `json:"local_ops,omitempty"`
	RemoteOps   uint64  `json:"remote_ops,omitempty"`
	RemoteKiB   uint64  `json:"remote_kib,omitempty"`
	ChargedMs   float64 `json:"charged_ms,omitempty"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var req workloadsRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, "items is empty")
		return
	}
	reqs := make([]fleet.WorkloadRequest, 0, len(req.Items))
	for i, it := range req.Items {
		kind, err := workload.KindByName(it.Kind)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("items[%d]: %v", i, err))
			return
		}
		if it.DataMiB < 0 || it.DataMiB > math.MaxInt64>>20 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("items[%d]: data_mib out of range", i))
			return
		}
		if it.Iterations > maxIterations {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("items[%d]: iterations %d out of range (need at most %d)", i, it.Iterations, maxIterations))
			return
		}
		iters := it.Iterations
		if iters < 1 {
			iters = 1
		}
		reqs = append(reqs, fleet.WorkloadRequest{
			VM:         it.VM,
			Kind:       kind,
			Iterations: iters,
			Seed:       it.Seed,
			DataBytes:  it.DataMiB << 20,
		})
	}
	results := sess.Fleet().RunWorkloads(reqs)
	out := make([]workloadResultJSON, 0, len(results))
	for _, res := range results {
		rj := workloadResultJSON{VM: res.VM, Rack: res.Rack, Kind: res.Kind.String(), Error: res.Err}
		if res.Err == "" {
			rj.Accesses = res.Stats.Accesses
			rj.MajorFaults = res.Stats.MajorFaults
			rj.RemoteMs = res.Stats.RemoteNs / 1e6
			rj.LocalOps = res.Data.LocalOps
			rj.RemoteOps = res.Data.RemoteOps
			rj.RemoteKiB = (res.Data.RemoteBytesRead + res.Data.RemoteBytesWritten) >> 10
			rj.ChargedMs = float64(res.Data.ChargedNs) / 1e6
		}
		out = append(out, rj)
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": out})
}

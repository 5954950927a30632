package core

import (
	"fmt"
	"sort"

	"repro/internal/acpi"
	"repro/internal/consolidation"
	"repro/internal/memctl"
	"repro/internal/migration"
)

// This file adds the ZombieStack orchestration on top of the rack: the
// migration protocol of Section 5.3, the periodic consolidation loop of
// Section 5.2 and the transparent fail-over of the global memory controller
// described in Section 4.1.

// MigrateVM moves a VM to another host with the ZombieStack protocol: the VM
// is paused, only the hot pages resident in the source host's local memory
// are copied, and the ownership of its remote buffers is re-pointed to the
// destination — the data in the zombie servers' memory does not move.
func (r *Rack) MigrateVM(vmID, destName string) (migration.Result, error) {
	guest, err := r.VM(vmID)
	if err != nil {
		return migration.Result{}, err
	}
	dest, ok := r.server(destName)
	src, _ := r.server(guest.Host)
	if !ok {
		return migration.Result{}, fmt.Errorf("%w: %s", ErrUnknownServer, destName)
	}
	if destName == guest.Host {
		return migration.Result{}, fmt.Errorf("core: VM %s is already on %s", vmID, destName)
	}
	if dest.Platform.State() != acpi.S0 {
		return migration.Result{}, fmt.Errorf("core: destination %s is not awake (%s)", destName, dest.Platform.State())
	}

	// The destination must hold the VM's local part (the hot pages); the
	// remote part stays where it is.
	destFree := int64(r.cfg.Board.MemoryBytes) - r.cfg.HostReservedBytes - r.lentBytes(dest)
	r.mu.Lock()
	for _, g := range dest.vms {
		destFree -= g.LocalBytes
	}
	r.mu.Unlock()
	if destFree < guest.LocalBytes {
		return migration.Result{}, fmt.Errorf("core: destination %s has %d bytes free, VM needs %d locally",
			destName, destFree, guest.LocalBytes)
	}

	// Estimate the transfer with the protocol model. The WSS ratio comes from
	// the VM spec; the local fraction from the placement decision.
	proto := migration.NewZombieStack()
	proto.BufferSize = r.controller.BufferSize()
	localFrac := float64(guest.LocalBytes) / float64(guest.Spec.ReservedBytes)
	if localFrac <= 0 {
		localFrac = 1
	}
	res, err := proto.Migrate(guest.Spec, guest.Spec.WSSRatio(), localFrac)
	if err != nil {
		return migration.Result{}, err
	}

	// Ownership-pointer update for the remote buffers.
	if len(guest.buffers) > 0 {
		ids := make([]memctl.BufferID, len(guest.buffers))
		for i, b := range guest.buffers {
			ids[i] = b.ID
		}
		if err := r.controller.TransferBuffers(memctl.ServerID(guest.Host), memctl.ServerID(destName), ids); err != nil {
			return migration.Result{}, err
		}
	}

	// Move the bookkeeping and advance the simulated clock by the migration
	// duration (the VM is paused for it under the post-copy-style protocol).
	r.mu.Lock()
	delete(src.vms, vmID)
	dest.vms[vmID] = guest
	guest.Host = destName
	if guest.RemoteBytes > 0 {
		dest.role = RoleUser
	}
	r.mu.Unlock()
	r.AdvanceClock(int64(res.DurationNs))

	// Update CPU utilization accounting on both hosts.
	r.refreshUtilization(src)
	r.refreshUtilization(dest)
	return res, nil
}

// refreshUtilization re-derives a host's CPU utilization from its VMs.
func (r *Rack) refreshUtilization(s *Server) {
	r.mu.Lock()
	var vcpus int
	for _, g := range s.vms {
		vcpus += g.Spec.VCPUs
	}
	util := float64(vcpus) / float64(r.cfg.Board.TotalCores())
	if util > 1 {
		util = 1
	}
	r.mu.Unlock()
	s.Energy.SetUtilization(r.Now(), util)
}

// ConsolidationReport describes one pass of the rack consolidation loop.
type ConsolidationReport struct {
	// Underloaded and Overloaded are the hosts the detector classified.
	Underloaded []string
	Overloaded  []string
	// Migrated maps VM IDs to their destination hosts.
	Migrated map[string]string
	// PushedToZombie lists hosts suspended into Sz by this pass.
	PushedToZombie []string
	// Woken lists hosts woken from Sz to receive VMs.
	Woken []string
}

// ConsolidateOnce runs one pass of the ZombieStack consolidation loop
// (Section 5.2): detect underloaded and overloaded hosts, migrate their VMs
// with the 30%-of-WSS placement rule, push emptied hosts into the Sz state
// and wake zombies when nothing else fits.
func (r *Rack) ConsolidateOnce() (ConsolidationReport, error) {
	report := ConsolidationReport{Migrated: make(map[string]string)}

	// Build the planner's view of the rack.
	loads := make([]consolidation.HostLoad, 0, len(r.sortedServers))
	for _, s := range r.sortedServers {
		r.mu.Lock()
		var vms []consolidation.VMDemand
		var usedCPU float64
		var usedLocal int64
		for _, g := range s.vms {
			usedCPU += float64(g.Spec.VCPUs)
			usedLocal += g.LocalBytes
			vms = append(vms, consolidation.VMDemand{
				ID:           g.Spec.ID,
				BookedCPU:    float64(g.Spec.VCPUs),
				BookedMemGiB: float64(g.Spec.ReservedBytes) / float64(1<<30),
				UsedCPU:      float64(g.Spec.VCPUs) * 0.3,
				UsedMemGiB:   float64(g.Spec.WSSBytes) / float64(1<<30),
			})
		}
		sort.Slice(vms, func(i, j int) bool { return vms[i].ID < vms[j].ID })
		freeLocal := int64(r.cfg.Board.MemoryBytes) - r.cfg.HostReservedBytes - r.lentBytes(s) - usedLocal
		state := s.Platform.State()
		r.mu.Unlock()
		loads = append(loads, consolidation.HostLoad{
			ID:             s.Name,
			CPUUtilization: usedCPU / float64(r.cfg.Board.TotalCores()),
			VMs:            vms,
			FreeMemGiB:     float64(freeLocal) / float64(1<<30),
			Suspended:      state != acpi.S0,
		})
	}

	plan := consolidation.PlanSteps(loads, true)
	report.Underloaded = plan.HostNames(plan.UnderloadedHosts)
	report.Overloaded = plan.HostNames(plan.OverloadedHosts)

	// Wake the hosts the planner needs before migrating onto them.
	for _, name := range plan.HostNames(plan.Wake) {
		if err := r.Wake(name); err != nil {
			return report, fmt.Errorf("core: consolidation wake %s: %w", name, err)
		}
		report.Woken = append(report.Woken, name)
	}

	// Execute the migrations in deterministic order: sorted by VM name, the
	// same order the old map-keyed plan was executed in.
	moves := append([]consolidation.Migration(nil), plan.Migrations...)
	sort.Slice(moves, func(i, j int) bool {
		return plan.Names.Name(moves[i].VM) < plan.Names.Name(moves[j].VM)
	})
	for _, m := range moves {
		id, dest := plan.Names.Name(m.VM), plan.Names.Name(m.Dest)
		if _, err := r.MigrateVM(id, dest); err != nil {
			// A failed migration keeps the VM where it is; the source host
			// simply cannot be suspended this round.
			continue
		}
		report.Migrated[id] = dest
	}

	// Suspend the emptied hosts into the zombie state so their memory keeps
	// serving the rack.
	for _, name := range plan.HostNames(plan.Suspend) {
		s, err := r.Server(name)
		if err != nil {
			continue
		}
		r.mu.Lock()
		empty := len(s.vms) == 0
		r.mu.Unlock()
		if !empty {
			continue
		}
		if err := r.PushToZombie(name); err != nil {
			continue
		}
		report.PushedToZombie = append(report.PushedToZombie, name)
	}
	return report, nil
}

// FailoverController simulates the loss of the global memory controller: the
// secondary controller detects the missed heartbeats, promotes itself and
// rebuilds the controller state from its mirrored operation log. The rack
// then points every agent-facing operation at the rebuilt controller.
//
// The data held in zombie servers' memory is unaffected by the fail-over;
// only the allocation metadata moves, which is why the paper calls the
// secondary's takeover transparent.
func (r *Rack) FailoverController(nowNs int64) (*memctl.GlobalController, error) {
	if !r.secondary.Tick(nowNs) {
		return nil, fmt.Errorf("core: the primary controller is still heartbeating; no fail-over")
	}
	opts := []memctl.Option{}
	if r.cfg.BufferSize > 0 {
		opts = append(opts, memctl.WithBufferSize(r.cfg.BufferSize))
	}
	rebuilt := r.secondary.Rebuild(opts...)
	r.mu.Lock()
	r.controller = rebuilt
	r.mu.Unlock()
	// Every agent re-establishes its channel with the promoted controller so
	// reclaim notifications and scavenging keep working after the take-over.
	for _, s := range r.sortedServers {
		if err := s.Agent.Retarget(rebuilt); err != nil {
			return nil, fmt.Errorf("core: fail-over retarget %s: %w", s.Name, err)
		}
	}
	r.syncAdmissionCapacity()
	return rebuilt, nil
}

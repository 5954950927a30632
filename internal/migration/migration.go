package migration

import (
	"fmt"

	"repro/internal/vm"
)

// The migration path is 10 GbE-like (live migration traffic normally rides
// the datacenter network, not the RDMA fabric), and the protocols' costs are
// fixed.
const (
	bandwidthBytesPerSec float64 = 1.1e9   // sustained migration throughput
	perPageOverheadNs    float64 = 200     // per-page protocol overhead
	rttNs                float64 = 200_000 // control round-trip: start, handshakes, switchover
	// copyRounds is vanilla's pre-copy iteration count. The paper observes
	// that vanilla migration time barely depends on the WSS because this
	// count is fixed.
	copyRounds int = 3
	// dirtyRate is the share of the WSS redirtied (and therefore recopied)
	// per pre-copy round while the VM keeps running.
	dirtyRate         float64 = 0.12
	ownershipUpdateNs float64 = 20_000 // ZombieStack's cost of re-pointing one remote buffer
)

// Result describes one migration.
type Result struct {
	// Protocol is "vanilla-precopy" or "zombiestack".
	Protocol string
	// BytesTransferred is the memory actually copied to the destination.
	BytesTransferred int64
	// PagesTransferred is the page count copied.
	PagesTransferred int64
	// DurationNs is the total migration time.
	DurationNs float64
	// DowntimeNs is the time the VM was paused.
	DowntimeNs float64
	// RemoteOwnershipUpdates counts remote buffers whose ownership pointer
	// was switched instead of copying the data (ZombieStack only).
	RemoteOwnershipUpdates int
}

// DurationSeconds returns the migration time in seconds, the unit of Fig. 9.
func (r Result) DurationSeconds() float64 { return r.DurationNs / 1e9 }

// Vanilla models the unmodified pre-copy protocol: copyRounds rounds, each
// after the first recopying the dirtyRate share of the WSS.
type Vanilla struct{}

// NewVanilla returns the vanilla protocol.
func NewVanilla() *Vanilla { return &Vanilla{} }

// Migrate estimates the migration of the VM. wssRatio is the fraction of the
// VM's reserved memory that is actively written (the x axis of Fig. 9).
func (*Vanilla) Migrate(machine vm.VM, wssRatio float64) (Result, error) {
	if err := machine.Validate(); err != nil {
		return Result{}, err
	}
	if wssRatio < 0 || wssRatio > 1 {
		return Result{}, fmt.Errorf("migration: wss ratio %v outside [0,1]", wssRatio)
	}
	pageSize := int64(machine.EffectivePageSize())

	// Round 1 copies the whole reservation; each further round copies the
	// pages the running VM redirtied (a fraction of the WSS).
	bytes := machine.ReservedBytes
	wssBytes := int64(float64(machine.ReservedBytes) * wssRatio)
	for i := 1; i < copyRounds; i++ {
		bytes += int64(float64(wssBytes) * dirtyRate)
	}
	// The final stop-and-copy round transfers the last dirty set.
	finalDirty := int64(float64(wssBytes) * dirtyRate)
	bytes += finalDirty

	pages := bytes / pageSize
	transferNs := float64(bytes)/bandwidthBytesPerSec*1e9 +
		float64(pages)*perPageOverheadNs + rttNs
	downtime := float64(finalDirty)/bandwidthBytesPerSec*1e9 + rttNs
	return Result{
		Protocol:         "vanilla-precopy",
		BytesTransferred: bytes,
		PagesTransferred: pages,
		DurationNs:       transferNs,
		DowntimeNs:       downtime,
	}, nil
}

// ZombieStack models the paper's protocol: stop the VM, copy the local (hot)
// part, update ownership of the remote buffers, resume on the destination.
type ZombieStack struct {
	// BufferSize is the remote buffer granularity (for counting updates).
	BufferSize int64
}

// NewZombieStack returns the protocol over 64 MiB remote buffers.
func NewZombieStack() *ZombieStack { return &ZombieStack{BufferSize: 64 << 20} }

// Migrate estimates the migration of a VM whose localFraction of reserved
// memory is local to the source host (the rest lives in remote buffers).
// Only the local pages that belong to the working set are hot and need to be
// copied; the cold local pages are demoted to remote buffers as part of the
// switchover (ownership updates, no copy).
func (z *ZombieStack) Migrate(machine vm.VM, wssRatio, localFraction float64) (Result, error) {
	if err := machine.Validate(); err != nil {
		return Result{}, err
	}
	if wssRatio < 0 || wssRatio > 1 {
		return Result{}, fmt.Errorf("migration: wss ratio %v outside [0,1]", wssRatio)
	}
	if localFraction <= 0 || localFraction > 1 {
		return Result{}, fmt.Errorf("migration: local fraction %v outside (0,1]", localFraction)
	}
	pageSize := int64(machine.EffectivePageSize())

	// The replacement policy keeps hot pages local, so the memory to copy is
	// the intersection of the WSS and the local fraction.
	localBytes := int64(float64(machine.ReservedBytes) * localFraction)
	wssBytes := int64(float64(machine.ReservedBytes) * wssRatio)
	hotLocal := wssBytes
	if hotLocal > localBytes {
		hotLocal = localBytes
	}
	pages := hotLocal / pageSize

	remoteBytes := machine.ReservedBytes - localBytes
	updates := 0
	if remoteBytes > 0 && z.BufferSize > 0 {
		updates = int((remoteBytes + z.BufferSize - 1) / z.BufferSize)
	}

	transferNs := float64(hotLocal)/bandwidthBytesPerSec*1e9 +
		float64(pages)*perPageOverheadNs +
		float64(updates)*ownershipUpdateNs + rttNs
	// Post-copy style: the VM is stopped for the whole (short) transfer.
	return Result{
		Protocol:               "zombiestack",
		BytesTransferred:       hotLocal,
		PagesTransferred:       pages,
		DurationNs:             transferNs,
		DowntimeNs:             transferNs,
		RemoteOwnershipUpdates: updates,
	}, nil
}

// Figure9Point is one x position of Fig. 9: migration time of both protocols
// for a given WSS ratio.
type Figure9Point struct {
	WSSRatio   float64
	VanillaSec float64
	ZombieSec  float64
}

// Figure9 sweeps the WSS ratio (the paper uses 20..80% of the VM's memory)
// and returns both protocols' migration times. localFraction is the share of
// the VM's memory kept local under ZombieStack (50% per the placement rule).
func Figure9(machine vm.VM, wssRatios []float64, localFraction float64) ([]Figure9Point, error) {
	v := NewVanilla()
	z := NewZombieStack()
	out := make([]Figure9Point, 0, len(wssRatios))
	for _, w := range wssRatios {
		rv, err := v.Migrate(machine, w)
		if err != nil {
			return nil, err
		}
		rz, err := z.Migrate(machine, w, localFraction)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure9Point{WSSRatio: w, VanillaSec: rv.DurationSeconds(), ZombieSec: rz.DurationSeconds()})
	}
	return out, nil
}

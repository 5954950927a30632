package core

import (
	"fmt"
	"sync"

	"repro/internal/hypervisor"
	"repro/internal/swapdev"
)

// This file implements the rack-level Explicit SD function (Section 4.5): a
// swap device exposed to a VM whose slots are backed by remote memory buffers
// allocated best-effort through GS_alloc_swap. Swap-outs are one-sided RDMA
// writes to the zombie (or active) server holding the buffer, and every write
// is also mirrored asynchronously to local storage so the data survives a
// reclaim of the remote memory (the split-driver model's fault-tolerance
// path).

// RemoteSwapDevice is a hypervisor.RemoteStore made of two stores written
// slot for slot: a bufferStore striped over the remote buffers, and a
// local-HDD swapdev.Store that mirrors it.
type RemoteSwapDevice struct {
	mu sync.Mutex

	host   *Server
	remote *bufferStore
	mirror *swapdev.Store

	reclaimed bool
	inUse     []bool
	stats     swapdev.Stats
}

var _ hypervisor.RemoteStore = (*RemoteSwapDevice)(nil)

// CreateSwapDevice allocates a best-effort remote swap device of up to
// requestBytes for the named host (the paper's GS_alloc_swap path). The
// returned device may be smaller than requested when the rack has little
// free remote memory; it is nil (with no error) when none is available.
func (r *Rack) CreateSwapDevice(hostName string, requestBytes int64) (*RemoteSwapDevice, error) {
	host, err := r.Server(hostName)
	if err != nil {
		return nil, err
	}
	if requestBytes <= 0 {
		return nil, fmt.Errorf("core: swap device needs a positive size")
	}
	buffers, err := host.Agent.RequestSwap(requestBytes)
	if err != nil {
		return nil, err
	}
	if len(buffers) == 0 {
		return nil, nil
	}
	remote := newBufferStore(buffers, 0)
	mirror, err := swapdev.New(swapdev.LocalHDD, remote.Slots())
	if err != nil {
		return nil, err
	}
	return &RemoteSwapDevice{host: host, remote: remote, mirror: mirror, inUse: make([]bool, remote.Slots())}, nil
}

// Slots implements hypervisor.RemoteStore.
func (d *RemoteSwapDevice) Slots() int { return len(d.inUse) }

// Buffers returns the number of remote buffers backing the device.
func (d *RemoteSwapDevice) Buffers() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.remote.buffers)
}

// WritePage implements hypervisor.RemoteStore: a one-sided RDMA write to the
// remote buffer plus the asynchronous mirror write, whose latency is not
// charged. After a reclaim the mirror holds the only copy, and its write is
// charged instead. The mirror goes first: it checks the slot and the page.
func (d *RemoteSwapDevice) WritePage(slot int, page []byte) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	lat, err := d.mirror.WritePage(slot, page)
	if err != nil {
		return 0, err
	}
	if !d.reclaimed {
		if lat, err = d.remote.WritePage(slot, page); err != nil {
			return 0, err
		}
	}
	d.inUse[slot] = true
	d.stats.SwapOuts++
	d.stats.BytesWritten += uint64(len(page))
	d.stats.TotalNs += lat
	return lat, nil
}

// ReadPage implements hypervisor.RemoteStore: a one-sided RDMA read, or the
// slow local mirror path once the remote copy has been reclaimed.
func (d *RemoteSwapDevice) ReadPage(slot int, dst []byte) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if slot < 0 || slot >= len(d.inUse) {
		return 0, swapdev.ErrSlotOutOfRange
	}
	if !d.inUse[slot] {
		return 0, swapdev.ErrEmptySlot
	}
	var from hypervisor.RemoteStore = d.remote
	if d.reclaimed {
		from = d.mirror
	}
	lat, err := from.ReadPage(slot, dst)
	if err != nil {
		return 0, err
	}
	d.stats.SwapIns++
	d.stats.BytesRead += uint64(len(dst))
	d.stats.TotalNs += lat
	return lat, nil
}

// Free marks the slot empty.
func (d *RemoteSwapDevice) Free(slot int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if slot >= 0 && slot < len(d.inUse) {
		d.inUse[slot] = false
	}
	d.mirror.Free(slot)
}

// Stats returns the device counters.
func (d *RemoteSwapDevice) Stats() swapdev.Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// MirrorWrites returns the number of asynchronous local mirror writes.
func (d *RemoteSwapDevice) MirrorWrites() uint64 { return d.mirror.Stats().SwapOuts }

// MarkReclaimed switches the device to its degraded mode: the remote memory
// has been taken back (US_reclaim), so swapped pages are served from the
// local mirror until the device is released. The paper's design keeps the VM
// running — slower, but correct.
func (d *RemoteSwapDevice) MarkReclaimed() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reclaimed = true
}

// Reclaimed reports whether the device is running on its local mirror.
func (d *RemoteSwapDevice) Reclaimed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reclaimed
}

// Release returns the device's remote buffers to the rack; the device keeps
// serving from its mirror.
func (d *RemoteSwapDevice) Release() error {
	d.mu.Lock()
	buffers := d.remote.buffers
	d.remote = &bufferStore{}
	d.reclaimed = true
	d.mu.Unlock()
	if len(buffers) == 0 {
		return nil
	}
	return d.host.Agent.ReleaseBuffers(buffers)
}

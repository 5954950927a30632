package rdma

import (
	"fmt"
)

// QueuePair is a reliable-connected queue pair between two devices. Work is
// posted on the local side; completions are delivered to the associated
// CompletionQueue. One-sided verbs (Read, Write) never involve the remote
// CPU: they only require the remote device's memory path to be serving.
type QueuePair struct {
	local  *Device
	remote *Device
	cq     *CompletionQueue

	// recvQueue holds posted receive work requests on THIS side, consumed by
	// SENDs from the peer.
	recvQueue []recvWR

	connected bool
	peer      *QueuePair
}

type recvWR struct {
	wrID uint64
	buf  []byte
}

// CreateQueuePair creates a queue pair on the device, bound to the completion
// queue. It must be connected with Connect before use.
func (d *Device) CreateQueuePair(cq *CompletionQueue) *QueuePair {
	return &QueuePair{local: d, cq: cq}
}

// Connect pairs two queue pairs (the out-of-band connection establishment a
// real deployment does through a connection manager).
func Connect(a, b *QueuePair) error {
	if a == nil || b == nil {
		return fmt.Errorf("rdma: cannot connect nil queue pairs")
	}
	if a.connected || b.connected {
		return fmt.Errorf("rdma: queue pair already connected")
	}
	if a.local.fabric != b.local.fabric {
		return fmt.Errorf("rdma: queue pairs belong to different fabrics")
	}
	a.remote, b.remote = b.local, a.local
	a.peer, b.peer = b, a
	a.connected, b.connected = true, true
	return nil
}

// Connected reports whether the queue pair has a peer.
func (qp *QueuePair) Connected() bool { return qp.connected }

// checkInitiatorLocked validates that this side may initiate a verb, with the
// fabric lock held: every verb takes that lock once, for the check, the
// transfer and the completion together.
func (qp *QueuePair) checkInitiatorLocked() error {
	if !qp.connected {
		return ErrQPNotConnected
	}
	if !qp.local.up {
		return ErrDeviceDown
	}
	return nil
}

// Read performs a one-sided RDMA READ: copy length bytes starting at
// remoteOffset of the remote region identified by rkey into dst. The remote
// CPU is not involved; only the remote memory path must be serving. The
// returned latency is the simulated completion time, also pushed to the CQ.
func (qp *QueuePair) Read(wrID uint64, dst []byte, rkey uint32, remoteOffset, length int) (int64, error) {
	if length > len(dst) {
		return 0, fmt.Errorf("rdma: read length %d exceeds destination buffer %d", length, len(dst))
	}
	f := qp.local.fabric
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := qp.checkInitiatorLocked(); err != nil {
		return 0, qp.failLocked(wrID, "READ", err)
	}
	if !qp.remote.serving {
		return 0, qp.failLocked(wrID, "READ", ErrRemoteNotServing)
	}
	mr, ok := qp.remote.lookupRegion(rkey)
	if !ok || !mr.remoteReadable {
		return 0, qp.failLocked(wrID, "READ", ErrInvalidKey)
	}
	if err := mr.store.ReadAt(dst[:length], int64(remoteOffset)); err != nil {
		return 0, qp.failLocked(wrID, "READ", ErrOutOfBounds)
	}
	lat := qp.transferNsLocked(f.model.OneSidedLatencyNs, length)
	f.stats.Reads++
	f.stats.BytesRead += uint64(length)
	f.addTime(lat)
	qp.cq.push(WorkCompletion{WRID: wrID, Op: "READ", ByteLen: length, LatencyNs: lat})
	return lat, nil
}

// Write performs a one-sided RDMA WRITE: copy src into the remote region at
// remoteOffset. Like Read, it does not involve the remote CPU.
func (qp *QueuePair) Write(wrID uint64, src []byte, rkey uint32, remoteOffset int) (int64, error) {
	f := qp.local.fabric
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := qp.checkInitiatorLocked(); err != nil {
		return 0, qp.failLocked(wrID, "WRITE", err)
	}
	if !qp.remote.serving {
		return 0, qp.failLocked(wrID, "WRITE", ErrRemoteNotServing)
	}
	mr, ok := qp.remote.lookupRegion(rkey)
	if !ok || !mr.remoteWritable {
		return 0, qp.failLocked(wrID, "WRITE", ErrInvalidKey)
	}
	before := mr.store.Resident()
	if err := mr.store.WriteAt(src, int64(remoteOffset)); err != nil {
		return 0, qp.failLocked(wrID, "WRITE", ErrOutOfBounds)
	}
	qp.remote.resident += mr.store.Resident() - before
	lat := qp.transferNsLocked(f.model.OneSidedLatencyNs, len(src))
	f.stats.Writes++
	f.stats.BytesWritten += uint64(len(src))
	f.addTime(lat)
	qp.cq.push(WorkCompletion{WRID: wrID, Op: "WRITE", ByteLen: len(src), LatencyNs: lat})
	return lat, nil
}

// PostRecv posts a receive work request that a peer SEND will consume. The
// buffer bounds the acceptable message size.
func (qp *QueuePair) PostRecv(wrID uint64, size int) {
	qp.recvQueue = append(qp.recvQueue, recvWR{wrID: wrID, buf: make([]byte, size)})
}

// Send performs a two-sided SEND to the peer, consuming one of its posted
// receives. Unlike the one-sided verbs it requires the remote NIC to be up
// (the remote CPU must eventually reap the completion), so it cannot target a
// zombie server.
func (qp *QueuePair) Send(wrID uint64, payload []byte) (int64, error) {
	f := qp.local.fabric
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := qp.checkInitiatorLocked(); err != nil {
		return 0, qp.failLocked(wrID, "SEND", err)
	}
	if !qp.remote.up {
		return 0, qp.failLocked(wrID, "SEND", ErrDeviceDown)
	}
	peer := qp.peer
	if len(peer.recvQueue) == 0 {
		return 0, qp.failLocked(wrID, "SEND", ErrNoReceivePosted)
	}
	rwr := peer.recvQueue[0]
	peer.recvQueue = peer.recvQueue[1:]
	if len(payload) > len(rwr.buf) {
		return 0, qp.failLocked(wrID, "SEND", fmt.Errorf("rdma: payload %d exceeds posted receive %d", len(payload), len(rwr.buf)))
	}
	n := copy(rwr.buf, payload)
	lat := qp.transferNsLocked(f.model.TwoSidedLatencyNs, len(payload))
	f.stats.Sends++
	f.stats.BytesSent += uint64(len(payload))
	f.addTime(lat)
	qp.cq.push(WorkCompletion{WRID: wrID, Op: "SEND", ByteLen: len(payload), LatencyNs: lat})
	peer.cq.push(WorkCompletion{WRID: rwr.wrID, Op: "RECV", ByteLen: n, LatencyNs: lat, Payload: rwr.buf[:n]})
	return lat, nil
}

// transferNsLocked prices one transfer on this queue pair with the fabric
// lock held. A queue pair with an uplink endpoint crosses the rack boundary,
// so its operations pay the inter-rack premium and are accounted separately.
func (qp *QueuePair) transferNsLocked(base int64, size int) int64 {
	f := qp.local.fabric
	if !qp.local.interRack && !qp.remote.interRack {
		return f.model.TransferNs(base, size)
	}
	lat := f.model.CrossRackTransferNs(base, size)
	f.stats.InterRackOps++
	f.stats.InterRackBytes += uint64(size)
	f.stats.InterRackNs += lat
	return lat
}

// failLocked records a failed work request with the fabric lock held.
func (qp *QueuePair) failLocked(wrID uint64, op string, err error) error {
	qp.local.fabric.stats.FailedOps++
	qp.cq.push(WorkCompletion{WRID: wrID, Op: op, Status: err})
	return err
}

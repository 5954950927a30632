package memctl

import (
	"sync"
)

// SecondaryController is the secondary-ctr of Section 4.1: it monitors the
// global controller's heartbeats and synchronously mirrors every operation so
// that it can take over transparently when the primary fails.
type SecondaryController struct {
	mu sync.Mutex

	// ops is the mirrored operation log, in sequence order.
	ops []Operation
	// lastSeq is the highest sequence number applied.
	lastSeq uint64

	// Heartbeat monitoring.
	lastHeartbeatNs int64
	nowNs           int64
	promoted        bool
}

// DefaultHeartbeatTimeoutNs is the failure-detection timeout (2 seconds).
const DefaultHeartbeatTimeoutNs int64 = 2_000_000_000

// NewSecondaryController creates a secondary controller that promotes itself
// after DefaultHeartbeatTimeoutNs without a heartbeat.
func NewSecondaryController() *SecondaryController {
	return &SecondaryController{}
}

// Apply implements Mirror: the primary streams every operation here
// synchronously.
func (s *SecondaryController) Apply(op Operation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops = append(s.ops, op)
	if op.Seq > s.lastSeq {
		s.lastSeq = op.Seq
	}
}

// Operations returns the number of mirrored operations.
func (s *SecondaryController) Operations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ops)
}

// LastSeq returns the last mirrored sequence number.
func (s *SecondaryController) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// Heartbeat records a heartbeat from the primary at the given simulated time.
func (s *SecondaryController) Heartbeat(nowNs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if nowNs > s.nowNs {
		s.nowNs = nowNs
	}
	s.lastHeartbeatNs = nowNs
}

// Tick advances the secondary's clock and checks the heartbeat deadline. It
// returns true when the primary is considered failed and the secondary has
// promoted itself.
func (s *SecondaryController) Tick(nowNs int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if nowNs > s.nowNs {
		s.nowNs = nowNs
	}
	if s.promoted {
		return true
	}
	if s.nowNs-s.lastHeartbeatNs > DefaultHeartbeatTimeoutNs {
		s.promoted = true
	}
	return s.promoted
}

// Promoted reports whether the secondary has taken over.
func (s *SecondaryController) Promoted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promoted
}

// Rebuild constructs a fresh GlobalController from the mirrored operation
// log. Buffer IDs are not guaranteed to be identical to the failed primary's
// (agents re-establish their channels after a failover), but the set of
// servers, their roles and the lent memory are reconstructed. The secondary
// uses this when it promotes itself.
func (s *SecondaryController) Rebuild(opts ...Option) *GlobalController {
	s.mu.Lock()
	ops := append([]Operation(nil), s.ops...)
	s.mu.Unlock()

	g := NewGlobalController(opts...)
	// Replay only the server-membership and delegation operations; live
	// allocations are re-established by the agents after failover (the data
	// itself is unaffected: it lives in the zombie servers' DRAM).
	for _, op := range ops {
		switch op.Kind {
		case "register":
			_ = g.RegisterServer(op.Server, op.Bytes, nil, nil)
		case "unregister":
			_ = g.UnregisterServer(op.Server)
		case "goto_zombie":
			specs := make([]BufferSpec, len(op.IDs))
			for i := range specs {
				specs[i] = BufferSpec{Offset: int64(i) * g.BufferSize(), Size: g.BufferSize()}
			}
			_, _ = g.GotoZombie(op.Server, specs)
		case "delegate_active":
			specs := make([]BufferSpec, len(op.IDs))
			for i := range specs {
				specs[i] = BufferSpec{Offset: int64(i) * g.BufferSize(), Size: g.BufferSize()}
			}
			_, _ = g.DelegateActive(op.Server, specs)
		case "reclaim":
			_, _ = g.Reclaim(op.Server, len(op.IDs))
		}
	}
	return g
}

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
// log. It replays membership, every lending (scavenged buffers included)
// under the primary's buffer IDs and rkeys, and every reclaim by the IDs it
// took, so the rebuilt table serves exactly what the primary's did. Grants
// are not replayed: the rebuilt table lists all lent memory as free, and
// handles the primary issued go stale (the data itself is unaffected: it
// lives in the lenders' DRAM). The secondary uses this when it promotes
// itself.
func (s *SecondaryController) Rebuild(opts ...Option) *GlobalController {
	s.mu.Lock()
	ops := append([]Operation(nil), s.ops...)
	s.mu.Unlock()

	g := NewGlobalController(opts...)
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, op := range ops {
		switch op.Kind {
		case "register", "goto_zombie", "delegate_active", "reclaim":
			g.applyLocked(op)
		}
	}
	return g
}

package gateway

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/autopilot"
	"repro/internal/chaos"
	"repro/internal/fleet"
)

// Session is one tenant's isolated slice of the gateway: a fleet, its
// placements, an optional chaos plan and the current (or last) autopilot
// run. All fields behind mu; the fleet has its own internal locking, so
// handlers hold mu only around session bookkeeping, never across a long
// fleet or autopilot operation.
type Session struct {
	// ID is the session handle ("f-1", "f-2", ...).
	ID string

	mu sync.Mutex
	// lastUsed is the idle-eviction clock, refreshed by every authenticated
	// request that resolves the session.
	lastUsed time.Time
	fleet    *fleet.Fleet
	racks    int
	servers  int
	memGiB   int
	// vmSeq numbers the VMs the session places; placed counts the
	// successful placements.
	vmSeq  int
	placed int
	// chaosName/chaosSeed are the scenario the next autopilot run replays
	// under (rebuilt for the run's own horizon and fleet size); chaosPreview
	// is the plan built at POST time for the response tally.
	chaosName    string
	chaosSeed    int64
	chaosPreview *chaos.Plan
	// run is the current or last autopilot run, nil before the first one.
	run *autopilotRun
}

// Fleet returns the session's fleet.
func (s *Session) Fleet() *fleet.Fleet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fleet
}

// autopilotRun is the state of one background autopilot run: the buffered
// tick events every subscriber replays, a broadcast channel replaced on each
// append so live subscribers block without polling, and the terminal state
// (report or error) once the goroutine finishes.
type autopilotRun struct {
	policy  string
	planner string
	chaotic bool

	mu     sync.Mutex
	notify chan struct{}
	events []autopilot.TickEvent
	done   bool
	report autopilot.Report
	chaosR chaos.Report
	err    error
}

func newAutopilotRun(policy, planner string, chaotic bool) *autopilotRun {
	return &autopilotRun{policy: policy, planner: planner, chaotic: chaotic, notify: make(chan struct{})}
}

// append buffers one tick event and wakes every waiting subscriber.
func (r *autopilotRun) append(ev autopilot.TickEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	close(r.notify)
	r.notify = make(chan struct{})
	r.mu.Unlock()
}

// finish records the terminal state and wakes the subscribers one last time.
func (r *autopilotRun) finish(report autopilot.Report, chaosR chaos.Report, err error) {
	r.mu.Lock()
	r.report = report
	r.chaosR = chaosR
	r.err = err
	r.done = true
	close(r.notify)
	r.mu.Unlock()
}

// snapshot returns the events from index from on, the done flag, and the
// channel that will be closed on the next change — the subscriber's wait
// handle when it has caught up.
func (r *autopilotRun) snapshot(from int) (evs []autopilot.TickEvent, done bool, wait <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if from < len(r.events) {
		evs = r.events[from:len(r.events):len(r.events)]
	}
	return evs, r.done, r.notify
}

// Manager owns the concurrent session registry: an RW-mutexed map of live
// sessions, a monotonic ID sequence, and a background evictor that retires
// sessions idle longer than the TTL. A zero TTL disables eviction.
type Manager struct {
	ttl time.Duration
	now func() time.Time
	max int

	mu       sync.RWMutex
	sessions map[string]*Session
	// building counts slots claimed by Create calls still building their
	// fleet; they count against max like live sessions.
	building int
	seq      int

	stop     chan struct{}
	evicted  chan string // non-nil in tests that watch the evictor
	evictorW sync.WaitGroup
}

// NewManager builds a registry. ttl <= 0 disables idle eviction; every > 0
// sets the evictor's scan period (default ttl/4, floored at 50ms);
// maxSessions bounds the registry (0 means 64). now is the clock, nil for
// time.Now — tests inject a fake to drive eviction deterministically.
func NewManager(ttl, every time.Duration, maxSessions int, now func() time.Time) *Manager {
	if now == nil {
		now = time.Now
	}
	if maxSessions <= 0 {
		maxSessions = 64
	}
	m := &Manager{
		ttl:      ttl,
		now:      now,
		max:      maxSessions,
		sessions: make(map[string]*Session),
		stop:     make(chan struct{}),
	}
	if ttl > 0 {
		if every <= 0 {
			every = ttl / 4
		}
		if every < 50*time.Millisecond {
			every = 50 * time.Millisecond
		}
		m.evictorW.Add(1)
		go m.evictLoop(every)
	}
	return m
}

// Close stops the evictor. Live sessions stay resolvable until deleted.
func (m *Manager) Close() {
	select {
	case <-m.stop:
		return // already closed
	default:
	}
	close(m.stop)
	m.evictorW.Wait()
}

// ErrSessionLimit is returned by Create when the registry is full.
var ErrSessionLimit = errors.New("gateway: session limit reached")

// Create claims a registry slot, builds the fleet, and registers a session
// around it. The slot is claimed first, so a full registry refuses before
// build runs and pays for nothing; build runs outside the registry lock, and
// its error is returned as is with the slot given back.
func (m *Manager) Create(racks, servers, memGiB int, build func() (*fleet.Fleet, error)) (*Session, error) {
	m.mu.Lock()
	if len(m.sessions)+m.building >= m.max {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d live)", ErrSessionLimit, m.max)
	}
	m.building++
	m.mu.Unlock()
	registered := false
	defer func() {
		// Also reached when build panics (the recovery middleware turns
		// that into a 500), so a slot is never leaked.
		if !registered {
			m.mu.Lock()
			m.building--
			m.mu.Unlock()
		}
	}()

	f, err := build()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	registered = true
	m.building--
	m.seq++
	s := &Session{
		ID:       fmt.Sprintf("f-%d", m.seq),
		lastUsed: m.now(),
		fleet:    f,
		racks:    racks,
		servers:  servers,
		memGiB:   memGiB,
	}
	m.sessions[s.ID] = s
	return s, nil
}

// Get resolves a session and refreshes its idle clock.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.RLock()
	s, ok := m.sessions[id]
	m.mu.RUnlock()
	if !ok {
		return nil, false
	}
	s.mu.Lock()
	s.lastUsed = m.now()
	s.mu.Unlock()
	return s, true
}

// Delete removes a session from the registry. The session's fleet is
// garbage; in-flight handlers holding the pointer finish against it.
func (m *Manager) Delete(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.sessions[id]; !ok {
		return false
	}
	delete(m.sessions, id)
	return true
}

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.sessions)
}

// IDs returns the live session IDs, sorted.
func (m *Manager) IDs() []string {
	m.mu.RLock()
	ids := make([]string, 0, len(m.sessions))
	for id := range m.sessions {
		ids = append(ids, id)
	}
	m.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// live snapshots the registered sessions, in no particular order.
func (m *Manager) live() []*Session {
	m.mu.RLock()
	defer m.mu.RUnlock()
	live := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		live = append(live, s)
	}
	return live
}

// ResidentBytes sums, over live sessions, the host memory their simulated
// DRAM occupies (fleet.Fleet.ResidentBytes). It takes every rack's fabric
// and plane locks in turn, so it is kept out of Totals, which each of the
// other session gauges evaluates.
func (m *Manager) ResidentBytes() int64 {
	var total int64
	for _, s := range m.live() {
		if f := s.Fleet(); f != nil {
			total += f.ResidentBytes()
		}
	}
	return total
}

// Totals is the aggregate view of the registry served by the /metrics
// session gauges.
type Totals struct {
	Sessions        int
	PlacedVMs       int
	AutopilotActive int
	RemoteBytes     int64
}

// Totals aggregates across live sessions at scrape time. Fleet state is
// read outside the session lock (the fleet has its own locking), so a
// scrape never blocks a long placement.
func (m *Manager) Totals() Totals {
	live := m.live()
	t := Totals{Sessions: len(live)}
	for _, s := range live {
		s.mu.Lock()
		t.PlacedVMs += s.placed
		run := s.run
		f := s.fleet
		s.mu.Unlock()
		if run != nil {
			run.mu.Lock()
			if !run.done {
				t.AutopilotActive++
			}
			run.mu.Unlock()
		}
		if f != nil {
			t.RemoteBytes += f.FreeRemoteMemory()
		}
	}
	return t
}

// evictLoop scans the registry every period and retires idle sessions.
func (m *Manager) evictLoop(every time.Duration) {
	defer m.evictorW.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			for _, id := range m.evictIdle() {
				if m.evicted != nil {
					select {
					case m.evicted <- id:
					case <-m.stop:
						return
					}
				}
			}
		}
	}
}

// evictIdle removes and returns every session idle longer than the TTL.
func (m *Manager) evictIdle() []string {
	deadline := m.now().Add(-m.ttl)
	m.mu.Lock()
	defer m.mu.Unlock()
	var gone []string
	for id, s := range m.sessions {
		s.mu.Lock()
		idle := s.lastUsed.Before(deadline)
		s.mu.Unlock()
		if idle {
			delete(m.sessions, id)
			gone = append(gone, id)
		}
	}
	sort.Strings(gone)
	return gone
}

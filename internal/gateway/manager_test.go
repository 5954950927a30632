package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// TestManagerEvictIdle drives the eviction policy directly with a fake
// clock: only sessions idle beyond the TTL go, and Get refreshes the clock.
func TestManagerEvictIdle(t *testing.T) {
	clock := newFakeClock(time.Unix(9000, 0))
	m := NewManager(time.Minute, 0, 8, clock.Now)
	m.Close() // the policy is tested directly; no background evictor needed

	a, err := m.Create(1, 1, 1, noFleet)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Create(1, 1, 1, noFleet)
	if err != nil {
		t.Fatal(err)
	}

	// Half the TTL in, refresh a only.
	clock.Advance(40 * time.Second)
	if _, ok := m.Get(a.ID); !ok {
		t.Fatalf("session %s vanished before its TTL", a.ID)
	}
	// Past b's TTL, inside a's refreshed one.
	clock.Advance(30 * time.Second)
	if gone := m.evictIdle(); len(gone) != 1 || gone[0] != b.ID {
		t.Fatalf("evictIdle = %v, want [%s]", gone, b.ID)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after eviction, want 1", m.Len())
	}
	// Idle long enough and a goes too.
	clock.Advance(2 * time.Minute)
	if gone := m.evictIdle(); len(gone) != 1 || gone[0] != a.ID {
		t.Fatalf("evictIdle = %v, want [%s]", gone, a.ID)
	}
	if m.Len() != 0 {
		t.Fatalf("registry not drained: Len = %d", m.Len())
	}
}

// TestManagerEvictorLoop runs the background evictor against the fake clock
// and watches retirements arrive on the test hook channel.
func TestManagerEvictorLoop(t *testing.T) {
	clock := newFakeClock(time.Unix(9000, 0))
	m := &Manager{
		ttl:      time.Minute,
		now:      clock.Now,
		max:      8,
		sessions: make(map[string]*Session),
		stop:     make(chan struct{}),
		evicted:  make(chan string, 8),
	}
	m.evictorW.Add(1)
	go m.evictLoop(10 * time.Millisecond)
	defer m.Close()

	s, err := m.Create(1, 1, 1, noFleet)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute)
	select {
	case id := <-m.evicted:
		if id != s.ID {
			t.Fatalf("evicted %s, want %s", id, s.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("evictor never retired the idle session")
	}
	if m.Len() != 0 {
		t.Fatalf("registry not drained: Len = %d", m.Len())
	}
}

// noFleet is the build step of manager tests that need no fleet.
func noFleet() (*fleet.Fleet, error) { return nil, nil }

// TestManagerSessionLimit pins the 0-means-default and hard-cap behaviour.
func TestManagerSessionLimit(t *testing.T) {
	m := NewManager(0, 0, 2, nil)
	defer m.Close()
	if _, err := m.Create(1, 1, 1, noFleet); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(1, 1, 1, noFleet); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(1, 1, 1, noFleet); err == nil {
		t.Fatal("third session admitted past the limit")
	}
	if got := m.IDs(); len(got) != 2 || got[0] != "f-1" || got[1] != "f-2" {
		t.Fatalf("IDs = %v, want [f-1 f-2]", got)
	}
	if !m.Delete("f-1") || m.Delete("f-1") {
		t.Fatal("Delete did not report first-removal semantics")
	}
	if _, err := m.Create(1, 1, 1, noFleet); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
}

// TestManagerRefusesBeforeBuilding pins the order of Create: a full registry
// answers ErrSessionLimit without running the build step, so the refused
// request constructs no fleet and registers no rdma region; a build that
// fails or panics gives its slot back.
func TestManagerRefusesBeforeBuilding(t *testing.T) {
	m := NewManager(0, 0, 1, nil)
	defer m.Close()
	var built []*fleet.Fleet
	build := func() (*fleet.Fleet, error) {
		f, err := fleet.New(fleet.Config{Racks: 1, Rack: core.Config{Servers: 2}})
		if err != nil {
			return nil, err
		}
		built = append(built, f)
		return f, f.PushToZombie(0, f.Rack(0).Servers()[1])
	}
	regions := func() (n int) {
		for _, f := range built {
			for _, name := range f.Rack(0).Servers() {
				n += f.Rack(0).Fabric().Device(name).Regions()
			}
		}
		return n
	}

	boom := errors.New("boom")
	if _, err := m.Create(1, 2, 16, func() (*fleet.Fleet, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failed build: err = %v, want boom", err)
	}
	func() {
		defer func() { _ = recover() }()
		_, _ = m.Create(1, 2, 16, func() (*fleet.Fleet, error) { panic("boom") })
	}()
	if _, err := m.Create(1, 2, 16, build); err != nil {
		t.Fatalf("create after a failed and a panicked build: %v (their slots leaked)", err)
	}
	lent := regions()
	if lent == 0 {
		t.Fatal("the admitted session's zombie lent no region; the test would prove nothing")
	}

	if _, err := m.Create(1, 2, 16, build); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("create on a full registry: err = %v, want ErrSessionLimit", err)
	}
	if len(built) != 1 || regions() != lent {
		t.Fatalf("refused create built %d fleet(s) and moved the region count %d -> %d", len(built)-1, lent, regions())
	}
}

// TestGatewayConcurrentSessions drives N tenants concurrently through a real
// httptest server — create, place, workloads, report, delete — with the
// background evictor running, and asserts session isolation (every placement
// carries its own fleet's prefix, counts never bleed) and that the registry
// drains to empty. Run under -race this exercises the manager, quota cache
// and session locking together.
func TestGatewayConcurrentSessions(t *testing.T) {
	const (
		tenants = 8
		token   = "secret"
	)
	srv, ts := newTestGateway(t, Config{
		Token:      token,
		SessionTTL: 30 * time.Second, // evictor live, but nobody should idle out
		EvictEvery: 20 * time.Millisecond,
	})

	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for g := 0; g < tenants; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs <- driveSession(ts.URL, token, g)
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if n := srv.Manager().Len(); n != 0 {
		t.Fatalf("registry not drained after all tenants deleted: %d live (%v)", n, srv.Manager().IDs())
	}
}

// driveSession is one tenant's full lifecycle against the gateway.
func driveSession(base, token string, g int) error {
	do := func(method, path, body string) (int, string, error) {
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			return 0, "", err
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, "", err
		}
		return resp.StatusCode, string(b), nil
	}

	status, body, err := do(http.MethodPost, "/v1/fleets", `{"racks":1,"servers":3,"mem_gib":2,"workers":1,"zombies_per_rack":1}`)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("tenant %d create: status %d body %s", g, status, body)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(body), &created); err != nil || created.ID == "" {
		return fmt.Errorf("tenant %d create: bad body %s", g, body)
	}
	id := created.ID

	// Place a tenant-specific number of VMs and check the names carry this
	// session's prefix — the isolation invariant.
	wantVMs := 1 + g%3
	status, body, err = do(http.MethodPost, "/v1/fleets/"+id+"/vms", fmt.Sprintf(`{"count":%d,"gib":0.5,"vcpus":1}`, wantVMs))
	if err != nil {
		return err
	}
	var placed struct {
		Placed     int `json:"placed"`
		Placements []struct {
			VM string `json:"vm"`
		} `json:"placements"`
	}
	if status != http.StatusOK || json.Unmarshal([]byte(body), &placed) != nil {
		return fmt.Errorf("tenant %d place: status %d body %s", g, status, body)
	}
	if placed.Placed != wantVMs {
		return fmt.Errorf("tenant %d placed %d VMs, want %d", g, placed.Placed, wantVMs)
	}
	for _, p := range placed.Placements {
		if !strings.HasPrefix(p.VM, id+"-vm-") {
			return fmt.Errorf("tenant %d leaked a foreign VM name %q (fleet %s)", g, p.VM, id)
		}
	}

	// A workload on our first VM must succeed; the report must count exactly
	// our placements.
	vm := placed.Placements[0].VM
	status, body, err = do(http.MethodPost, "/v1/fleets/"+id+"/workloads",
		fmt.Sprintf(`{"items":[{"vm":%q,"kind":"micro-benchmark","iterations":1,"seed":%d}]}`, vm, g+1))
	if err != nil {
		return err
	}
	if status != http.StatusOK || strings.Contains(body, `"error"`) {
		return fmt.Errorf("tenant %d workload: status %d body %s", g, status, body)
	}
	status, body, err = do(http.MethodGet, "/v1/fleets/"+id+"/report", "")
	if err != nil {
		return err
	}
	var rep struct {
		Fleet struct {
			VMs int `json:"vms"`
		} `json:"fleet"`
	}
	if status != http.StatusOK || json.Unmarshal([]byte(body), &rep) != nil {
		return fmt.Errorf("tenant %d report: status %d body %s", g, status, body)
	}
	if rep.Fleet.VMs != wantVMs {
		return fmt.Errorf("tenant %d report counts %d VMs, want %d — cross-session bleed", g, rep.Fleet.VMs, wantVMs)
	}

	if status, body, err = do(http.MethodDelete, "/v1/fleets/"+id, ""); err != nil {
		return err
	}
	if status != http.StatusNoContent {
		return fmt.Errorf("tenant %d delete: status %d body %s", g, status, body)
	}
	if status, _, err = do(http.MethodGet, "/v1/fleets/"+id+"/report", ""); err != nil {
		return err
	}
	if status != http.StatusNotFound {
		return fmt.Errorf("tenant %d session resolvable after delete: status %d", g, status)
	}
	return nil
}

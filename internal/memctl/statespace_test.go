package memctl

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestStateSpace checks every reachable memctl state in a small scope.
// Following Bowen (Provably Correct Systems), it enumerates every order of the
// protocol's operations instead of sampling some: one user and two lenders,
// "zombie" (goes to Sz) and "active" (stays active and can be scavenged), 3
// lendable buffers each, and a primary controller mirrored to a secondary.
//
// The search is breadth-first to stateDepth operations. Each prefix is
// replayed from scratch on a fresh rack, and states are deduplicated on a
// canonical key: the buffer table, the lenders' roles, the user's handles and
// the generation. After every transition the laws hold (see laws), and from
// every new state the close sequence terminates fairly in the sense of
// Ciccone & Padovani: the user releases every handle, each lender reclaims
// everything, and the rack ends with an empty table, no registered region and
// every lender's memory back. A violation prints the operation sequence that
// reaches it.
func TestStateSpace(t *testing.T) {
	frontier := [][]ssOp{nil}
	seen := map[string]bool{newSSWorld(t).key(): true}
	transitions := 0
	for depth := 0; depth < stateDepth; depth++ {
		var next [][]ssOp
		for _, prefix := range frontier {
			for _, op := range replay(t, prefix).ops() {
				path := append(slices.Clip(prefix), op)
				w := replay(t, path[:len(path)-1])
				before := w.visible()
				inert, err := w.apply(op)
				if err == nil {
					err = w.laws()
				}
				if err == nil && inert && w.visible() != before {
					err = errors.New("a stale or repeated release changed the table or the user's handles")
				}
				if err != nil {
					t.Fatalf("after %v: %v", path, err)
				}
				transitions++
				if k := w.key(); !seen[k] {
					seen[k] = true
					next = append(next, path)
					if err := w.close(); err != nil {
						t.Fatalf("closing after %v: %v", path, err)
					}
				}
			}
		}
		frontier = next
	}
	t.Logf("depth %d: %d distinct states, %d transitions", stateDepth, len(seen), transitions)
}

// ssOp is one protocol step: kind names it, arg is its size or index.
type ssOp struct {
	kind string
	arg  int
}

func (o ssOp) String() string { return fmt.Sprintf("%s(%d)", o.kind, o.arg) }

// ssWorld is one rack of the scope and every handle its user was ever issued.
type ssWorld struct {
	r      *testRack
	gen    int // fail-overs so far
	issued []*RemoteBuffer
}

func newSSWorld(t *testing.T) *ssWorld {
	return &ssWorld{r: newSizedRack(t, 4, 1, "user", "zombie", "active")}
}

// replay builds a fresh rack and runs path on it.
func replay(t *testing.T, path []ssOp) *ssWorld {
	w := newSSWorld(t)
	for i, op := range path {
		if _, err := w.apply(op); err != nil {
			t.Fatalf("replaying %v: step %d: %v", path, i, err)
		}
	}
	return w
}

// ops lists the operations enabled in w.
func (w *ssWorld) ops() []ssOp {
	ops := []ssOp{
		{"goto-zombie", 0}, {"delegate-active", 0},
		{"request-ext", 1}, {"request-ext", 2}, {"request-swap", 1},
		{"wake-zombie", 1}, {"wake-zombie", -1}, {"wake-active", 1}, {"wake-active", -1},
		{"failover", 0},
	}
	for i := range w.r.agents["user"].UsedBufferHandles() {
		ops = append(ops, ssOp{"release", i})
	}
	for i := range w.replayable() {
		ops = append(ops, ssOp{"replay", i})
	}
	return ops
}

// apply runs op. inert reports that op must change nothing visible: a
// release of a handle that is stale or was already released.
func (w *ssWorld) apply(op ssOp) (inert bool, err error) {
	user := w.r.agents["user"]
	switch op.kind {
	case "goto-zombie":
		_, err = w.r.agents["zombie"].DelegateAndGoZombie()
	case "delegate-active":
		_, err = w.r.agents["active"].DelegateWhileActive(testBufSize)
	case "request-ext", "request-swap":
		var hs []*RemoteBuffer
		if op.kind == "request-ext" {
			hs, err = user.RequestExt(int64(op.arg) * testBufSize)
		} else {
			hs, err = user.RequestSwap(int64(op.arg) * testBufSize)
		}
		if errors.Is(err, ErrAdmissionControl) || errors.Is(err, ErrNotEnoughMemory) {
			err = nil
		}
		w.issued = append(w.issued, hs...)
	case "release":
		h := user.UsedBufferHandles()[op.arg]
		inert = h.gen != w.r.ctr.Generation()
		err = user.ReleaseBuffers([]*RemoteBuffer{h})
	case "replay":
		inert = true
		err = user.ReleaseBuffers([]*RemoteBuffer{w.replayable()[op.arg]})
	case "wake-zombie", "wake-active":
		_, err = w.r.agents[ServerID(strings.TrimPrefix(op.kind, "wake-"))].WakeAndReclaim(op.arg)
	case "failover":
		w.gen++
		err = w.r.failover()
	}
	return inert, err
}

// replayable returns one handle per (ID, generation) among those the user was
// issued and no longer holds: released, reclaimed, or stale and dropped.
func (w *ssWorld) replayable() []*RemoteBuffer {
	used := w.r.agents["user"].used
	seen := make(map[[2]uint64]bool)
	var out []*RemoteBuffer
	for _, h := range w.issued {
		k := [2]uint64{uint64(h.ID), h.gen}
		if used[h.ID] != h && !seen[k] {
			seen[k] = true
			out = append(out, h)
		}
	}
	return out
}

// key is the canonical state: the generation, the lenders' roles, the table
// (without offsets and rkeys, which only name things) and the user's handles.
func (w *ssWorld) key() string {
	g := w.r.ctr
	var b strings.Builder
	fmt.Fprintf(&b, "gen %d|", w.gen)
	for _, id := range []ServerID{"zombie", "active"} {
		role, _ := g.Role(id)
		fmt.Fprintf(&b, "%s %v|", id, role)
	}
	for _, r := range g.db.recs {
		fmt.Fprintf(&b, "%d %s %v %s %t|", r.ID, r.Host, r.Type, r.User, r.Guaranteed)
	}
	for _, h := range w.r.agents["user"].UsedBufferHandles() {
		fmt.Fprintf(&b, "h%d current=%t|", h.ID, h.gen == g.Generation())
	}
	return b.String()
}

// visible is what a stale or repeated release must leave alone: the table and
// the handles the user holds at the current generation.
func (w *ssWorld) visible() string {
	var b strings.Builder
	for _, r := range w.r.ctr.db.recs {
		fmt.Fprintf(&b, "%+v|", *r)
	}
	fmt.Fprint(&b, w.held())
	return b.String()
}

// held returns the IDs of the handles the user holds at the current
// generation, ascending.
func (w *ssWorld) held() []BufferID {
	var ids []BufferID
	for _, h := range w.r.agents["user"].UsedBufferHandles() {
		if h.gen == w.r.ctr.Generation() {
			ids = append(ids, h.ID)
		}
	}
	return ids
}

// laws checks the state after a transition:
//   - the table's per-record invariants hold;
//   - each server lends exactly the bytes the table lists it as serving, files
//     each such buffer (by ID, or by rkey if scavenged) and registers one
//     region per buffer;
//   - the user's current-generation handles name exactly its grants;
//   - the secondary's log rebuilds the primary's lendings: roles, IDs, rkeys.
func (w *ssWorld) laws() error {
	g := w.r.ctr
	if err := g.CheckInvariants(); err != nil {
		return err
	}
	for _, id := range []ServerID{"user", "zombie", "active"} {
		a, served := w.r.agents[id], g.BuffersServedBy(id)
		var bytes int64
		for _, b := range served {
			bytes += b.Size
			_, byID := a.served[b.ID]
			_, byRKey := a.scavenged[b.RKey]
			if !byID && !byRKey {
				return fmt.Errorf("%s does not file buffer %d it serves", id, b.ID)
			}
		}
		if a.servedBytes != bytes {
			return fmt.Errorf("%s lends %d bytes, the table lists %d", id, a.servedBytes, bytes)
		}
		if n := w.r.devices[id].Regions(); n != len(served) {
			return fmt.Errorf("%s registers %d regions for %d served buffers", id, n, len(served))
		}
	}
	var granted []BufferID
	for _, b := range g.BuffersOf("user") {
		granted = append(granted, b.ID)
	}
	if held := w.held(); !slices.Equal(held, granted) {
		return fmt.Errorf("user holds %v at the current generation, the table grants it %v", held, granted)
	}
	if got, want := lendings(w.r.sec.Rebuild(WithBufferSize(testBufSize))), lendings(g); got != want {
		return fmt.Errorf("the mirror rebuilds %s, the primary lends %s", got, want)
	}
	return nil
}

// lendings renders a controller's roles and lent records, grants aside.
func lendings(g *GlobalController) string {
	var b strings.Builder
	for _, id := range g.Servers() {
		role, _ := g.Role(id)
		fmt.Fprintf(&b, "%s %v|", id, role)
	}
	for _, r := range g.db.recs {
		fmt.Fprintf(&b, "%d %s %v %d+%d rkey %d|", r.ID, r.Host, r.Type, r.Offset, r.Size, r.RKey)
	}
	return b.String()
}

// close runs the close sequence on w and checks where it ends.
func (w *ssWorld) close() error {
	user := w.r.agents["user"]
	if err := user.ReleaseBuffers(user.UsedBufferHandles()); err != nil {
		return err
	}
	for _, id := range []ServerID{"zombie", "active"} {
		if _, err := w.r.agents[id].WakeAndReclaim(-1); err != nil {
			return err
		}
	}
	if n := len(w.r.ctr.db.recs); n != 0 {
		return fmt.Errorf("%d buffers left in the table", n)
	}
	for _, id := range []ServerID{"user", "zombie", "active"} {
		if n := w.r.devices[id].Regions(); n != 0 {
			return fmt.Errorf("%s still registers %d regions", id, n)
		}
		if free, want := w.r.agents[id].FreeMemory(), int64(3*testBufSize); free != want {
			return fmt.Errorf("%s has %d bytes free, want %d", id, free, want)
		}
	}
	return nil
}

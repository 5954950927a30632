package memctl

import (
	"slices"
	"sync"
	"testing"
)

// TestWakeAndReclaimReleasesScavengedRegions pins a region leak on the
// scavenge path: AS_get_free_mem registers RDMA regions for the buffers an
// active server offers, but the controller assigns their IDs only after the
// callback returns, so the agent cannot file them under served[id]. A later
// WakeAndReclaim must still find and deregister them (by rkey), otherwise
// every scavenge leaks its regions for the lifetime of the device.
func TestWakeAndReclaimReleasesScavengedRegions(t *testing.T) {
	r := newTestRack(t, "user", "helper")
	// No zombies: the guaranteed allocation scavenges the active helper.
	handles, err := r.agents["user"].RequestExt(4 * testBufSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.devices["helper"].Regions(); got == 0 {
		t.Fatal("scavenge should have registered regions on the helper")
	}
	// Return the buffers so the reclaim below is the quiet, no-notify path.
	if err := ReleaseHandles(handles); err != nil {
		t.Fatal(err)
	}
	if _, err := r.agents["helper"].WakeAndReclaim(-1); err != nil {
		t.Fatal(err)
	}
	if got := r.devices["helper"].Regions(); got != 0 {
		t.Fatalf("helper still holds %d regions after reclaiming everything (scavenged-region leak)", got)
	}
	if got, want := r.agents["helper"].FreeMemory(), int64(12*testBufSize); got != want {
		t.Fatalf("helper free memory = %d, want %d", got, want)
	}
}

// TestReclaimRacingDelegate hammers the window between a delegation's
// controller announcement and the agent recording the granted IDs: a
// concurrent WakeAndReclaim can reclaim those very IDs first. The agent must
// not end up with stale served entries or leaked regions — after a final
// full reclaim the server is exactly as it started.
func TestReclaimRacingDelegate(t *testing.T) {
	r := newTestRack(t, "user", "helper")
	helper := r.agents["helper"]

	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := helper.DelegateWhileActive(0); err != nil {
				t.Errorf("delegate: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := helper.WakeAndReclaim(-1); err != nil {
				t.Errorf("reclaim: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// Quiesce: reclaim whatever the last delegation round left behind.
	if _, err := helper.WakeAndReclaim(-1); err != nil {
		t.Fatal(err)
	}
	if got := helper.ServedBuffers(); got != 0 {
		t.Fatalf("%d stale served entries after full reclaim", got)
	}
	if got := r.devices["helper"].Regions(); got != 0 {
		t.Fatalf("%d leaked regions after full reclaim", got)
	}
	if got, want := helper.FreeMemory(), int64(12*testBufSize); got != want {
		t.Fatalf("helper free memory = %d, want %d", got, want)
	}
	if err := r.ctr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleHandleReleaseAfterFailover pins the fail-over collision fix: a
// rebuilt controller lists the primary's lent buffers as free under the same
// IDs, so a handle issued by the dead primary can carry the same ID as a
// fresh allocation made by another server after the take-over. Releasing the
// stale handle must be a no-op — not an error, and above all not a release of
// the other server's buffer.
func TestStaleHandleReleaseAfterFailover(t *testing.T) {
	r := newTestRack(t, "user-a", "user-b", "zombie")
	if _, err := r.agents["zombie"].DelegateAndGoZombie(); err != nil {
		t.Fatal(err)
	}
	stale, err := r.agents["user-a"].RequestExt(2 * testBufSize)
	if err != nil {
		t.Fatal(err)
	}

	// The primary dies; every agent retargets to the rebuilt controller.
	if err := r.failover(); err != nil {
		t.Fatal(err)
	}
	rebuilt := r.ctr

	// Another server allocates from the rebuilt pool, which lists the stale
	// handles' buffers as free under their IDs.
	fresh, err := r.agents["user-b"].RequestExt(2 * testBufSize)
	if err != nil {
		t.Fatal(err)
	}
	collision := false
	for _, s := range stale {
		for _, f := range fresh {
			if s.ID == f.ID {
				collision = true
			}
		}
	}
	if !collision {
		t.Fatalf("test needs colliding IDs to bite: stale %v vs fresh %v", stale, fresh)
	}

	// Releasing the stale handles must not error and must not free user-b's
	// allocation out from under it.
	if err := r.agents["user-a"].ReleaseBuffers(stale); err != nil {
		t.Fatalf("stale release after fail-over: %v", err)
	}
	held := rebuilt.BuffersOf("user-b")
	if len(held) != len(fresh) {
		t.Fatalf("user-b holds %d buffers after the stale release, want %d", len(held), len(fresh))
	}
	// Fresh handles still release cleanly.
	if err := r.agents["user-b"].ReleaseBuffers(fresh); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverReclaimsScavengedBuffers pins that a fail-over keeps the buffers
// lent through AS_get_free_mem: if the rebuilt controller forgot them, the
// lender could never take them back and their regions would leak.
func TestFailoverReclaimsScavengedBuffers(t *testing.T) {
	r := newTestRack(t, "user", "helper")
	// No zombies: the guaranteed grant scavenges half of the helper's 12
	// free buffers.
	if _, err := r.agents["user"].RequestExt(4 * testBufSize); err != nil {
		t.Fatal(err)
	}
	if err := r.failover(); err != nil {
		t.Fatal(err)
	}
	n, err := r.agents["helper"].WakeAndReclaim(-1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Errorf("reclaimed %d buffers after the fail-over, want the 6 scavenged", n)
	}
	if got := r.devices["helper"].Regions(); got != 0 {
		t.Errorf("helper still holds %d regions after reclaiming everything", got)
	}
	if got, want := r.agents["helper"].FreeMemory(), int64(12*testBufSize); got != want {
		t.Errorf("helper free memory = %d, want %d", got, want)
	}
}

// TestFailoverKeepsReclaimedIDs pins that the rebuilt controller serves the
// primary's buffer IDs: it replays a reclaim by the IDs it took, not by their
// count, so the lender's regions and the rebuilt table still agree.
func TestFailoverKeepsReclaimedIDs(t *testing.T) {
	r := newTestRack(t, "user", "zombie")
	zombie := r.agents["zombie"]
	if _, err := zombie.DelegateAndGoZombie(); err != nil { // IDs 1–12
		t.Fatal(err)
	}
	if _, err := r.agents["user"].RequestExt(testBufSize); err != nil { // ID 1
		t.Fatal(err)
	}
	if _, err := zombie.WakeAndReclaim(2); err != nil { // the free IDs 2 and 3
		t.Fatal(err)
	}
	served := func() (ids []BufferID) {
		for _, b := range r.ctr.BuffersServedBy("zombie") {
			ids = append(ids, b.ID)
		}
		return ids
	}
	want := served()
	if err := r.failover(); err != nil {
		t.Fatal(err)
	}
	if got := served(); !slices.Equal(got, want) {
		t.Errorf("the rebuilt controller serves %v, the primary served %v", got, want)
	}
	if _, err := zombie.WakeAndReclaim(-1); err != nil {
		t.Fatal(err)
	}
	if regions, entries := r.devices["zombie"].Regions(), zombie.ServedBuffers(); regions != 0 || entries != 0 {
		t.Errorf("after a full reclaim the zombie holds %d regions and %d served entries, want 0 and 0", regions, entries)
	}
}

package migration

import (
	"testing"
	"testing/quick"

	"repro/internal/vm"
)

func testVM() vm.VM { return vm.New("mig-vm", 8<<30, 4<<30) }

func TestVanillaMigration(t *testing.T) {
	v := NewVanilla()
	res, err := v.Migrate(testVM(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != "vanilla-precopy" {
		t.Errorf("protocol = %q", res.Protocol)
	}
	if res.BytesTransferred < testVM().ReservedBytes {
		t.Error("pre-copy must transfer at least the full reservation")
	}
	if res.DurationNs <= 0 || res.DowntimeNs <= 0 {
		t.Error("duration and downtime must be positive")
	}
	if res.DowntimeNs >= res.DurationNs {
		t.Error("pre-copy downtime must be far below the total duration")
	}
	if res.DurationSeconds() <= 0 {
		t.Error("seconds conversion broken")
	}
}

func TestVanillaValidation(t *testing.T) {
	v := NewVanilla()
	if _, err := v.Migrate(vm.VM{}, 0.5); err == nil {
		t.Error("invalid VM should fail")
	}
	if _, err := v.Migrate(testVM(), -0.1); err == nil {
		t.Error("negative wss ratio should fail")
	}
	if _, err := v.Migrate(testVM(), 1.1); err == nil {
		t.Error("wss ratio above 1 should fail")
	}
}

func TestVanillaInsensitiveToWSS(t *testing.T) {
	// The paper: vanilla migration time is almost unaffected by the WSS.
	v := NewVanilla()
	low, _ := v.Migrate(testVM(), 0.2)
	high, _ := v.Migrate(testVM(), 0.8)
	ratio := high.DurationNs / low.DurationNs
	if ratio > 1.5 {
		t.Errorf("vanilla migration should be nearly flat in WSS, got ratio %.2f", ratio)
	}
}

func TestZombieStackMigration(t *testing.T) {
	z := NewZombieStack()
	res, err := z.Migrate(testVM(), 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != "zombiestack" {
		t.Errorf("protocol = %q", res.Protocol)
	}
	// Only the hot local part is copied: at most half the reservation here.
	if res.BytesTransferred > testVM().ReservedBytes/2 {
		t.Errorf("zombiestack copied %d bytes, should copy at most the local half", res.BytesTransferred)
	}
	if res.RemoteOwnershipUpdates == 0 {
		t.Error("remote buffers should be re-pointed, not copied")
	}
	if res.DowntimeNs != res.DurationNs {
		t.Error("the post-copy-style protocol pauses the VM for the whole transfer")
	}
}

func TestZombieStackValidation(t *testing.T) {
	z := NewZombieStack()
	if _, err := z.Migrate(vm.VM{}, 0.5, 0.5); err == nil {
		t.Error("invalid VM should fail")
	}
	if _, err := z.Migrate(testVM(), 2, 0.5); err == nil {
		t.Error("bad wss ratio should fail")
	}
	if _, err := z.Migrate(testVM(), 0.5, 0); err == nil {
		t.Error("zero local fraction should fail")
	}
	if _, err := z.Migrate(testVM(), 0.5, 1.2); err == nil {
		t.Error("local fraction above one should fail")
	}
}

func TestZombieStackGrowsWithWSS(t *testing.T) {
	// ZombieStack copies the hot set, so its time grows with the WSS until
	// the WSS exceeds the local fraction, after which it saturates.
	z := NewZombieStack()
	prev := -1.0
	for _, w := range []float64{0.2, 0.4, 0.6, 0.8} {
		r, err := z.Migrate(testVM(), w, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if r.DurationNs < prev {
			t.Errorf("zombiestack time should not decrease with WSS")
		}
		prev = r.DurationNs
	}
	saturated, _ := z.Migrate(testVM(), 0.6, 0.5)
	more, _ := z.Migrate(testVM(), 0.9, 0.5)
	if more.BytesTransferred != saturated.BytesTransferred {
		t.Error("beyond the local fraction the copied bytes should saturate")
	}
}

func TestZombieBeatsVanilla(t *testing.T) {
	// Fig. 9's headline: ZombieStack is faster, dramatically so at small WSS.
	pts, err := Figure9(testVM(), []float64{0.2, 0.4, 0.6, 0.8}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.ZombieSec >= p.VanillaSec {
			t.Errorf("wss=%.0f%%: zombiestack (%.2fs) should beat vanilla (%.2fs)", p.WSSRatio*100, p.ZombieSec, p.VanillaSec)
		}
	}
	// The advantage is largest at the smallest WSS.
	gainLow := pts[0].VanillaSec / pts[0].ZombieSec
	gainHigh := pts[len(pts)-1].VanillaSec / pts[len(pts)-1].ZombieSec
	if gainLow <= gainHigh {
		t.Errorf("the speedup should shrink as the WSS grows (%.1fx vs %.1fx)", gainLow, gainHigh)
	}
}

func TestFigure9PropagatesErrors(t *testing.T) {
	if _, err := Figure9(testVM(), []float64{-1}, 0.5); err == nil {
		t.Error("invalid ratio should propagate")
	}
	if _, err := Figure9(testVM(), []float64{0.5}, 0); err == nil {
		t.Error("invalid local fraction should propagate")
	}
}

// Property: for any valid parameters the ZombieStack protocol never copies
// more than the vanilla one.
func TestPropertyZombieCopiesLess(t *testing.T) {
	v := NewVanilla()
	z := NewZombieStack()
	machine := testVM()
	f := func(wssRaw, localRaw uint8) bool {
		wss := float64(wssRaw%100) / 100
		local := 0.01 + float64(localRaw%99)/100
		rv, err := v.Migrate(machine, wss)
		if err != nil {
			return false
		}
		rz, err := z.Migrate(machine, wss, local)
		if err != nil {
			return false
		}
		return rz.BytesTransferred <= rv.BytesTransferred
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package memplane

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chaos"
	"repro/internal/memctl"
)

// diffOp is one step of the seeded differential workload.
type diffOp struct {
	write bool
	addr  int64
	size  int
}

// diffStream generates a seeded op mix: page-aligned and unaligned, sub-page
// and multi-page, over an address space several times the local arena so the
// allocator overflows to remote grants.
func diffStream(seed int64, n int, span int64) []diffOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]diffOp, 0, n)
	for i := 0; i < n; i++ {
		size := 1 + rng.Intn(int(2*DefaultPageSize))
		addr := rng.Int63n(span - int64(size))
		ops = append(ops, diffOp{write: rng.Float64() < 0.6, addr: addr, size: size})
	}
	return ops
}

// diffHarness owns one plane plus the rig under it.
type diffHarness struct {
	rig   *rig
	plane *Plane
}

// newDiffHarness builds a rig and a plane over it. Both harnesses of a
// differential run are constructed with identical arguments, so their memctl
// state evolves identically; only the transport differs.
func newDiffHarness(t *testing.T, ledger bool, plan *chaos.Plan, now func() int64) *diffHarness {
	t.Helper()
	names := []string{"user-00", "zombie-01", "zombie-02"}
	r := newRig(t, names, []string{"zombie-01", "zombie-02"})
	var transport Transport
	if ledger {
		transport = LedgerTransport{Model: r.fabric.Model()}
	}
	p, err := New(Config{
		VM:           "vm",
		AddressBytes: testSpan,
		LocalBytes:   4 * DefaultPageSize,
		Agent:        r.user(t, names),
		Transport:    transport,
		Chaos:        plan,
		Now:          now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &diffHarness{rig: r, plane: p}
}

// apply replays one op, returning the bytes completed and a comparable
// outcome signature.
func (h *diffHarness) apply(op diffOp, buf []byte) (int, string) {
	if op.write {
		n, ns, err := h.plane.Write(op.addr, buf[:op.size])
		return n, fmt.Sprintf("w n=%d ns=%d timeout=%v", n, ns, errors.Is(err, ErrRemoteTimeout))
	}
	n, ns, err := h.plane.Read(op.addr, buf[:op.size])
	return n, fmt.Sprintf("r n=%d ns=%d timeout=%v", n, ns, errors.Is(err, ErrRemoteTimeout))
}

// runDifferential drives the same seeded stream through a byte-moving plane
// and the pure-ledger plane, comparing every op outcome and the final
// counters bit for bit. When crashAt is non-negative, both planes crash (and
// later re-home) zombie-01 at the same op index.
func runDifferential(t *testing.T, plan *chaos.Plan, crashAt int) {
	t.Helper()
	const nOps = 400
	span := int64(24) * DefaultPageSize

	var clock int64
	now := func() int64 { return clock }
	real := newDiffHarness(t, false, plan, now)
	ledger := newDiffHarness(t, true, plan, now)

	// An independent shadow of expected contents, for the read-back proof.
	shadow := make([]byte, span)
	written := make([]bool, span)

	victim := memctl.ServerID("zombie-01")
	rehomeAt := -1
	if crashAt >= 0 {
		rehomeAt = crashAt + nOps/4
	}
	ops := diffStream(42, nOps, span)
	bufA := make([]byte, 2*DefaultPageSize)
	bufB := make([]byte, 2*DefaultPageSize)
	for i, op := range ops {
		// One simulated second per op exercises chaos windows over the run.
		clock = int64(i)
		if i == crashAt {
			real.plane.CrashHost(victim)
			ledger.plane.CrashHost(victim)
		}
		if i == rehomeAt {
			repR, errR := real.plane.Rehome(victim)
			repL, errL := ledger.plane.Rehome(victim)
			if errR != nil || errL != nil {
				t.Fatalf("rehome: real=%v ledger=%v", errR, errL)
			}
			if repR != repL {
				t.Fatalf("rehome reports diverged: real %+v ledger %+v", repR, repL)
			}
		}
		fillPattern(bufA[:op.size], op.addr, byte(i))
		fillPattern(bufB[:op.size], op.addr, byte(i))
		done, outR := real.apply(op, bufA)
		_, outL := ledger.apply(op, bufB)
		if outR != outL {
			t.Fatalf("op %d (%+v) diverged:\n real   %s\n ledger %s", i, op, outR, outL)
		}
		if op.write {
			// Track expectations only for the bytes the write completed.
			copy(shadow[op.addr:op.addr+int64(done)], bufA[:done])
			for j := 0; j < done; j++ {
				written[op.addr+int64(j)] = true
			}
		}
	}

	// Bytes-moved, buffers-granted and charges are bit-identical.
	if sr, sl := real.plane.Stats(), ledger.plane.Stats(); sr != sl {
		t.Fatalf("stats diverged:\n real   %+v\n ledger %+v", sr, sl)
	}
	if ar, al := real.plane.AllocStats(), ledger.plane.AllocStats(); ar != al {
		t.Fatalf("alloc stats diverged:\n real   %+v\n ledger %+v", ar, al)
	}

	// The byte-moving plane must agree with the shadow everywhere that is
	// still reachable (re-home the victim first if it is still down).
	if crashAt >= 0 && rehomeAt >= nOps {
		if _, err := real.plane.Rehome(victim); err != nil {
			t.Fatal(err)
		}
		if _, err := ledger.plane.Rehome(victim); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, DefaultPageSize)
	for base := int64(0); base < span; base += DefaultPageSize {
		if _, _, err := real.plane.Read(base, got); err != nil {
			t.Fatalf("verify read at %d: %v", base, err)
		}
		for j := int64(0); j < DefaultPageSize; j++ {
			addr := base + j
			want := byte(0)
			if written[addr] {
				want = shadow[addr]
			}
			if got[j] != want {
				t.Fatalf("byte %d = %#x, want %#x (written=%v)", addr, got[j], want, written[addr])
			}
		}
	}
	if err := real.plane.Table().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMemplaneMatchesLedger pins the data plane bit-identical to the
// pure-ledger cost arithmetic: same bytes moved, same buffers granted, same
// RDMA charges — fault-free and under the bundled "light" chaos scenario.
func TestMemplaneMatchesLedger(t *testing.T) {
	t.Run("fault-free", func(t *testing.T) {
		runDifferential(t, nil, -1)
	})
	t.Run("light-chaos", func(t *testing.T) {
		plan, err := chaos.Scenario("light", 400, 16, 7)
		if err != nil {
			t.Fatal(err)
		}
		// Derive the crash instant from the plan so the fault schedule, not
		// the test, decides when the data plane loses its serving host.
		crashAt := 100
		if crashes := plan.FaultsIn(chaos.ServerCrash, 0, 400); len(crashes) > 0 {
			crashAt = int(crashes[0].AtSec)
		}
		runDifferential(t, plan, crashAt)
	})
	t.Run("degraded-charges-differ-from-clean", func(t *testing.T) {
		// Sanity: the light plan must actually change charges somewhere,
		// otherwise the chaos leg of this test proves nothing.
		plan, err := chaos.Scenario("light", 400, 16, 7)
		if err != nil {
			t.Fatal(err)
		}
		degradedSomewhere := false
		for s := int64(0); s < 400; s++ {
			if plan.FabricFactorAt(s) > 1 {
				degradedSomewhere = true
				break
			}
		}
		if !degradedSomewhere {
			t.Skip("light plan has no fabric window inside the horizon; charges still compared above")
		}
	})
}

// TestDegradeArithmetic pins the shared degradation math.
func TestDegradeArithmetic(t *testing.T) {
	if got := degrade(1000, 1); got != 1000 {
		t.Fatalf("factor 1: %d", got)
	}
	if got := degrade(1000, 2.5); got != 2500 {
		t.Fatalf("factor 2.5: %d", got)
	}
	if got := degrade(1000, 0.5); got != 1000 {
		t.Fatalf("factor <1 must not speed up: %d", got)
	}
}

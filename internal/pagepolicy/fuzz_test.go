package pagepolicy

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"
)

// pair is a policy and the reference model it must match.
type pair struct {
	got, want Policy
}

func newPair(kind, window uint8) pair {
	c := DefaultCost()
	switch kind % 3 {
	case 0:
		return pair{NewFIFO(c), newRefFIFO(c)}
	case 1:
		return pair{NewClock(c), newRefClock(c)}
	default:
		w := int(window%8) + 1
		return pair{NewMixed(c, w), newRefMixed(c, w)}
	}
}

// listOf returns a policy's tracked pages oldest fault first with their
// accessed bits, and the page under the hand (ok false when the hand is not
// placed). refListOf does the same for a reference model.
func listOf(t *testing.T, p Policy) (pages []refEntry, hand PageID, ok bool) {
	t.Helper()
	var b *base
	switch p := p.(type) {
	case *FIFO:
		b = &p.base
	case *Clock:
		b = &p.base
	case *Mixed:
		b = &p.base
	default:
		t.Fatalf("unknown policy type %T", p)
	}
	if b.n > 0 {
		for i := b.nodes[0].next; i != 0; i = b.nodes[i].next {
			if b.nodes[i].flags&tracked == 0 {
				t.Fatalf("%s: untracked page %d is linked", p.Name(), i-1)
			}
			pages = append(pages, refEntry{PageID(i - 1), b.nodes[i].flags&accessed != 0})
		}
	}
	if len(pages) != b.n {
		t.Fatalf("%s: %d pages linked, Len %d", p.Name(), len(pages), b.n)
	}
	if b.hand == 0 {
		return pages, 0, false
	}
	return pages, PageID(b.hand) - 1, true
}

func refListOf(t *testing.T, p Policy) (pages []refEntry, hand PageID, ok bool) {
	t.Helper()
	var order *list.List
	var at *list.Element
	switch p := p.(type) {
	case *refFIFO:
		order = p.order
	case *refClock:
		order, at = p.order, p.hand
	case *refMixed:
		order, at = p.order, p.hand
	default:
		t.Fatalf("unknown reference type %T", p)
	}
	for el := order.Front(); el != nil; el = el.Next() {
		pages = append(pages, *el.Value.(*refEntry))
	}
	if at == nil {
		return pages, 0, false
	}
	return pages, at.Value.(*refEntry).page, true
}

// Operations of the differential driver; each consumes one argument byte.
const (
	opFault      = iota // Fault(arg % nearPages): includes refaults of tracked pages
	opAccess            // Access(arg % nearPages)
	opEvict             // Evict, also on an empty policy
	opRemove            // Remove(arg % nearPages), tracked or not
	opRemoveHand        // Remove the page under the hand (opRemove when not placed)
	opFaultFar          // Fault(arg * farStride): forces the table to grow
	numOps
)

const (
	nearPages = 24
	farStride = 17
)

// step applies one operation to both sides and requires them to agree on
// everything observable, and on the list and hand behind it.
func (pr pair) step(t *testing.T, op, arg byte) {
	t.Helper()
	near := PageID(arg % nearPages)
	switch op % numOps {
	case opFault:
		pr.got.Fault(near)
		pr.want.Fault(near)
	case opAccess:
		pr.got.Access(near)
		pr.want.Access(near)
	case opEvict:
		v, cyc, ok := pr.got.Evict()
		wv, wcyc, wok := pr.want.Evict()
		if v != wv || cyc != wcyc || ok != wok {
			t.Fatalf("%s: Evict = (%d, %d, %v), reference (%d, %d, %v)", pr.got.Name(), v, cyc, ok, wv, wcyc, wok)
		}
	case opRemoveHand:
		if _, hand, ok := listOf(t, pr.got); ok {
			near = hand
		}
		fallthrough
	case opRemove:
		pr.got.Remove(near)
		pr.want.Remove(near)
	case opFaultFar:
		far := PageID(arg) * farStride
		pr.got.Fault(far)
		pr.want.Fault(far)
	}
	if g, w := pr.got.Len(), pr.want.Len(); g != w {
		t.Fatalf("%s: Len = %d, reference %d", pr.got.Name(), g, w)
	}
	if g, w := pr.got.TotalCycles(), pr.want.TotalCycles(); g != w {
		t.Fatalf("%s: TotalCycles = %d, reference %d", pr.got.Name(), g, w)
	}
	if g, w := pr.got.Evictions(), pr.want.Evictions(); g != w {
		t.Fatalf("%s: Evictions = %d, reference %d", pr.got.Name(), g, w)
	}
	pages, hand, placed := listOf(t, pr.got)
	wpages, whand, wplaced := refListOf(t, pr.want)
	if !slices.Equal(pages, wpages) {
		t.Fatalf("%s: list = %v, reference %v", pr.got.Name(), pages, wpages)
	}
	if placed != wplaced || hand != whand {
		t.Fatalf("%s: hand = (%d, %v), reference (%d, %v)", pr.got.Name(), hand, placed, whand, wplaced)
	}
}

// FuzzPolicyVsReference drives each policy and the container/list reference
// model with the same Fault / Access / Evict / Remove sequence: ops is read
// two bytes at a time as (operation, argument).
func FuzzPolicyVsReference(f *testing.F) {
	for kind := uint8(0); kind < 3; kind++ {
		// Evict on empty, fault three, refault a tracked page, drain, evict on
		// empty again.
		f.Add(kind, uint8(1), []byte{opEvict, 0, opFault, 1, opFault, 2, opFault, 3, opFault, 2,
			opAccess, 1, opEvict, 0, opEvict, 0, opEvict, 0, opEvict, 0})
		// Place the hand (all bits set, so the first Evict wraps), then remove
		// the page under it, down to removing the only page left, and go on.
		f.Add(kind, uint8(2), []byte{opFault, 1, opFault, 2, opFault, 3, opAccess, 1, opAccess, 2, opAccess, 3,
			opEvict, 0, opRemoveHand, 0, opRemoveHand, 0, opFault, 2, opFault, 5, opAccess, 5, opEvict, 0, opEvict, 0})
		// Far faults grow the table under a placed hand; unknown and
		// out-of-table pages are no-ops for Access and Remove.
		f.Add(kind, uint8(5), []byte{opFault, 0, opFault, 23, opAccess, 0, opEvict, 0, opFaultFar, 9, opFaultFar, 200,
			opRemove, 7, opAccess, 7, opFaultFar, 9, opEvict, 0, opEvict, 0, opEvict, 0})
	}
	f.Fuzz(func(t *testing.T, kind, window uint8, ops []byte) {
		pr := newPair(kind, window)
		for i := 0; i+1 < len(ops); i += 2 {
			pr.step(t, ops[i], ops[i+1])
		}
	})
}

// TestPolicyVsReferenceLongRuns is the fuzz target's driver on sequences far
// longer than the fuzzer keeps: the lists fill, drain and refill many times.
func TestPolicyVsReferenceLongRuns(t *testing.T) {
	for kind := uint8(0); kind < 3; kind++ {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pr := newPair(kind, uint8(seed))
			for i := 0; i < 5000; i++ {
				pr.step(t, byte(rng.Intn(numOps)), byte(rng.Intn(256)))
			}
		}
	}
}

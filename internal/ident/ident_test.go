package ident

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestRegistryRoundTrip checks the basic name <-> ID contract: dense IDs in
// first-intern order, stable on re-intern, recoverable by Name.
func TestRegistryRoundTrip(t *testing.T) {
	r := NewRegistry()
	names := []string{"rack-00/server-00", "rack-00/server-01", "vm-7", ""}
	for i, name := range names {
		if id := r.Intern(name); id != ID(i) {
			t.Fatalf("Intern(%q) = %d, want dense %d", name, id, i)
		}
	}
	for i, name := range names {
		if id := r.Intern(name); id != ID(i) {
			t.Errorf("re-Intern(%q) = %d, want stable %d", name, id, i)
		}
		if got := r.Name(ID(i)); got != name {
			t.Errorf("Name(%d) = %q, want %q", i, got, name)
		}
		if id, ok := r.Lookup(name); !ok || id != ID(i) {
			t.Errorf("Lookup(%q) = (%d,%v), want (%d,true)", name, id, ok, i)
		}
	}
	if _, ok := r.Lookup("never-interned"); ok {
		t.Error("Lookup of an unknown name reported present")
	}
	if r.Len() != len(names) {
		t.Errorf("Len() = %d, want %d", r.Len(), len(names))
	}
}

// TestRegistryConcurrentIntern is the property test behind the hot-path
// claim: many goroutines interning overlapping name sets still agree on a
// single ID per name, every ID round-trips back to its name, and the ID
// space stays dense. Run with -race.
func TestRegistryConcurrentIntern(t *testing.T) {
	const goroutines = 8
	const namesPerG = 200
	r := NewRegistry()
	var wg sync.WaitGroup
	got := make([]map[string]ID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			seen := make(map[string]ID, namesPerG)
			for i := 0; i < namesPerG; i++ {
				// Overlapping name space: every goroutine interns from the same
				// pool, so most interns race with another goroutine's.
				name := fmt.Sprintf("server-%03d", rng.Intn(100))
				id := r.Intern(name)
				if prev, ok := seen[name]; ok && prev != id {
					t.Errorf("goroutine %d: %q interned as %d then %d", g, name, prev, id)
					return
				}
				seen[name] = id
				if back := r.Name(id); back != name {
					t.Errorf("goroutine %d: Name(Intern(%q)) = %q", g, name, back)
					return
				}
			}
			got[g] = seen
		}(g)
	}
	wg.Wait()
	// Cross-goroutine agreement and a dense ID space.
	agreed := make(map[string]ID)
	for g, seen := range got {
		for name, id := range seen {
			if prev, ok := agreed[name]; ok && prev != id {
				t.Fatalf("goroutine %d disagrees on %q: %d vs %d", g, name, id, prev)
			}
			agreed[name] = id
		}
	}
	used := make(map[ID]bool)
	for name, id := range agreed {
		if id < 0 || int(id) >= r.Len() {
			t.Fatalf("%q has out-of-range ID %d (Len %d)", name, id, r.Len())
		}
		if used[id] {
			t.Fatalf("ID %d assigned to two names", id)
		}
		used[id] = true
	}
	if len(agreed) != r.Len() {
		t.Fatalf("registry holds %d names, goroutines saw %d", r.Len(), len(agreed))
	}
}

// TestSet exercises the bitset against a reference map across random
// operations, including IDs past the first word.
func TestSet(t *testing.T) {
	var s Set
	ref := make(map[ID]bool)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		id := ID(rng.Intn(300))
		switch rng.Intn(3) {
		case 0:
			s.Add(id)
			ref[id] = true
		case 1:
			s.Remove(id)
			delete(ref, id)
		default:
			if s.Has(id) != ref[id] {
				t.Fatalf("step %d: Has(%d) = %v, ref %v", i, id, s.Has(id), ref[id])
			}
		}
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len() = %d, ref %d", s.Len(), len(ref))
	}
	if s.Has(None) {
		t.Error("Has(None) must be false")
	}
	clone := s.Clone()
	for id := range ref {
		s.Remove(id)
	}
	if s.Len() != 0 || clone.Len() != len(ref) {
		t.Error("Clone shares storage with the original")
	}
	var members int
	clone.Each(func(id ID) {
		if !ref[id] {
			t.Fatalf("Each yielded non-member %d", id)
		}
		members++
	})
	if members != len(ref) {
		t.Fatalf("Each yielded %d members, want %d", members, len(ref))
	}
}

// TestNameSet checks the name-addressed wrapper, including the nil-is-empty
// contract the exclusion paths rely on.
func TestNameSet(t *testing.T) {
	reg := NewRegistry()
	var nilSet *NameSet
	if nilSet.Has("anything") || nilSet.Len() != 0 || nilSet.Clone() != nil {
		t.Fatal("nil NameSet must behave as empty")
	}
	s := NewNameSet(reg)
	s.Add("b")
	s.Add("a")
	s.Add("b")
	if !s.Has("a") || !s.Has("b") || s.Has("c") || s.Len() != 2 {
		t.Fatalf("membership wrong: %v", s.Names())
	}
	if !s.HasID(reg.MustLookup(t, "b")) {
		t.Error("HasID misses an added name")
	}
	clone := s.Clone()
	s.Remove("a")
	s.Remove("never-seen")
	if s.Has("a") || !clone.Has("a") {
		t.Error("Remove leaked into the clone or failed")
	}
	// Names come back in first-intern order.
	if names := clone.Names(); len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Errorf("Names() = %v, want [b a]", names)
	}
	if clone.Registry() != reg {
		t.Error("Clone must share the registry")
	}
}

// MustLookup is a test helper fetching an ID that must exist.
func (r *Registry) MustLookup(t *testing.T, name string) ID {
	t.Helper()
	id, ok := r.Lookup(name)
	if !ok {
		t.Fatalf("name %q not interned", name)
	}
	return id
}

// Package ident provides the dense-ID registry behind the control plane's
// hot paths: string names (servers, VMs, racks) are interned once into small
// consecutive integers, and the structures that used to key on
// map[string]string / map[string]bool index slices and bitsets by those
// integers instead. Names survive only at the API and rendering edges; the
// per-epoch and per-batch loops never hash a string.
//
// A Registry is an append-only intern table: IDs are assigned in first-intern
// order, never reused, and remain valid for the registry's lifetime, so a
// dense slice indexed by ID stays valid as the registry grows. Interning and
// lookup are safe for concurrent use.
//
// Set is a bitset over IDs — the replacement for map[string]bool membership
// sets (wake sets, crash sets, host exclusion). NameSet pairs a Set with the
// Registry that scopes it, for call sites that still receive names.
package ident

import (
	"math/bits"
	"sync"
)

// ID is a dense registry-scoped identifier. IDs start at 0 and are assigned
// consecutively in intern order.
type ID int32

// None is the zero-value "no ID" sentinel for slices that need a hole marker.
const None ID = -1

// Registry interns names into dense IDs. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	ids   map[string]ID
	names []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ids: make(map[string]ID)}
}

// Intern returns the name's ID, assigning the next dense ID on first sight.
func (r *Registry) Intern(name string) ID {
	r.mu.RLock()
	id, ok := r.ids[name]
	r.mu.RUnlock()
	if ok {
		return id
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.ids[name]; ok {
		return id
	}
	id = ID(len(r.names))
	r.ids[name] = id
	r.names = append(r.names, name)
	return id
}

// Lookup returns the name's ID without interning it.
func (r *Registry) Lookup(name string) (ID, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.ids[name]
	return id, ok
}

// Name returns the name behind an ID; it panics on an ID the registry never
// assigned, exactly like an out-of-range slice index.
func (r *Registry) Name(id ID) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.names[id]
}

// Len returns the number of interned names; IDs [0, Len) are valid.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.names)
}

// Set is a bitset over registry IDs. The zero value is an empty set. Set is
// NOT safe for concurrent mutation; clone per goroutine instead (the batch
// paths snapshot once and share read-only).
type Set struct {
	words []uint64
}

// Add inserts id into the set.
func (s *Set) Add(id ID) {
	w := int(id) >> 6
	for w >= len(s.words) {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << (uint(id) & 63)
}

// Remove deletes id from the set.
func (s *Set) Remove(id ID) {
	w := int(id) >> 6
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(id) & 63)
	}
}

// Has reports membership. IDs beyond the set's capacity are simply absent.
func (s *Set) Has(id ID) bool {
	if id < 0 {
		return false
	}
	w := int(id) >> 6
	return w < len(s.words) && s.words[w]&(1<<(uint(id)&63)) != 0
}

// Len counts the members.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy.
func (s *Set) Clone() Set {
	return Set{words: append([]uint64(nil), s.words...)}
}

// Words returns the set's bitset, ID i at bit i%64 of word i/64, for a caller
// that walks the members a word at a time. It is shared with the set and must
// not be mutated.
func (s *Set) Words() []uint64 { return s.words }

// Each calls fn for every member in ascending ID order.
func (s *Set) Each(fn func(ID)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(ID(wi<<6 + b))
			w &^= 1 << uint(b)
		}
	}
}

// NameSet is a membership set addressed by name: a bitset scoped by the
// registry that interned the names. It replaces map[string]bool in call
// chains that cross a name-typed API boundary (crashed servers, excluded
// hosts): Has costs one read-locked map probe and one bit test, and the set
// itself can be snapshot for a batch with Clone (the registry is shared).
type NameSet struct {
	reg *Registry
	set Set
}

// NewNameSet returns an empty name set over the registry.
func NewNameSet(reg *Registry) *NameSet {
	return &NameSet{reg: reg}
}

// Add inserts a name, interning it if needed.
func (n *NameSet) Add(name string) {
	n.set.Add(n.reg.Intern(name))
}

// Remove deletes a name; unknown names are a no-op.
func (n *NameSet) Remove(name string) {
	if id, ok := n.reg.Lookup(name); ok {
		n.set.Remove(id)
	}
}

// Has reports membership; names the registry never saw are absent. A nil
// NameSet is empty.
func (n *NameSet) Has(name string) bool {
	if n == nil {
		return false
	}
	id, ok := n.reg.Lookup(name)
	return ok && n.set.Has(id)
}

// HasID reports membership by interned ID. A nil NameSet is empty.
func (n *NameSet) HasID(id ID) bool {
	return n != nil && n.set.Has(id)
}

// Len counts the members; a nil NameSet has none.
func (n *NameSet) Len() int {
	if n == nil {
		return 0
	}
	return n.set.Len()
}

// Clone returns an independent membership copy sharing the registry. Cloning
// a nil NameSet returns nil (still an empty set).
func (n *NameSet) Clone() *NameSet {
	if n == nil {
		return nil
	}
	return &NameSet{reg: n.reg, set: n.set.Clone()}
}

// Registry returns the registry scoping this set.
func (n *NameSet) Registry() *Registry { return n.reg }

// Names returns the member names in ascending ID (first-intern) order.
func (n *NameSet) Names() []string {
	if n == nil {
		return nil
	}
	out := make([]string, 0, n.set.Len())
	n.set.Each(func(id ID) { out = append(out, n.reg.Name(id)) })
	return out
}

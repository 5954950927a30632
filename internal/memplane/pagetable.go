package memplane

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/memctl"
)

// Errors returned by the page table.
var (
	ErrAlreadyMapped = errors.New("memplane: page is already mapped")
	ErrNotMapped     = errors.New("memplane: page is not mapped")
	ErrFrameAliased  = errors.New("memplane: frame is already mapped by another page")
)

// FrameKind distinguishes local frames (backed by the plane's arena) from
// remote frames (backed by a memctl-granted buffer on another server).
type FrameKind uint8

// The two frame kinds.
const (
	FrameLocal FrameKind = iota
	FrameRemote
)

// String names the kind.
func (k FrameKind) String() string {
	if k == FrameLocal {
		return "local"
	}
	return "remote"
}

// Frame is the physical backing of one virtual page: either an offset into a
// plane's local arena, or a slice of a remote buffer granted through the
// memctl protocol ({ServerID, BufferID, offset}).
type Frame struct {
	Kind FrameKind

	// Arena names the local arena a FrameLocal offset belongs to (the owning
	// plane's VM ID), so two planes sharing a page table cannot alias each
	// other's local offsets.
	Arena string
	// LocalOff is the byte offset into the arena (FrameLocal only).
	LocalOff int64

	// Host serves the remote buffer (FrameRemote only).
	Host memctl.ServerID
	// Buffer is the controller's buffer ID (FrameRemote only).
	Buffer memctl.BufferID
	// Offset is the frame's byte offset inside the buffer (FrameRemote only).
	Offset int64

	// rb is the live handle used by byte-moving transports.
	rb *memctl.RemoteBuffer
}

// Remote reports whether the frame lives on another server.
func (f Frame) Remote() bool { return f.Kind == FrameRemote }

// String renders the frame for diagnostics.
func (f Frame) String() string {
	if f.Kind == FrameLocal {
		return fmt.Sprintf("local{%s+%d}", f.Arena, f.LocalOff)
	}
	return fmt.Sprintf("remote{%s buf=%d off=%d}", f.Host, f.Buffer, f.Offset)
}

// frameKey is the identity of a frame for aliasing checks.
type frameKey struct {
	kind   FrameKind
	arena  string
	host   memctl.ServerID
	buffer memctl.BufferID
	off    int64
}

func keyOf(f Frame) frameKey {
	if f.Kind == FrameLocal {
		return frameKey{kind: FrameLocal, arena: f.Arena, off: f.LocalOff}
	}
	return frameKey{kind: FrameRemote, host: f.Host, buffer: f.Buffer, off: f.Offset}
}

// entryKey addresses one virtual page of one VM.
type entryKey struct {
	vm   string
	page int64
}

// vmIndex is one VM's translations, keyed by page number alone. A Plane holds
// its VM's index for its whole life, so Unmap never deletes an empty one;
// only drop (Plane.Close) does.
type vmIndex map[int64]Frame

// PageTable translates (VM, page) to frames. It enforces the one invariant
// everything else rests on: no frame is ever mapped by two pages — two VMs
// (or two pages of one VM) can never alias the same physical backing. It is
// safe for concurrent use.
type PageTable struct {
	mu       sync.RWMutex
	pageSize int64
	vms      map[string]vmIndex
	owners   map[frameKey]entryKey
}

// NewPageTable creates an empty table with the given page size.
func NewPageTable(pageSize int64) *PageTable {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &PageTable{
		pageSize: pageSize,
		vms:      make(map[string]vmIndex),
		owners:   make(map[frameKey]entryKey),
	}
}

// PageSize returns the table's page size.
func (t *PageTable) PageSize() int64 { return t.pageSize }

// index returns a VM's live index, creating it on first use.
func (t *PageTable) index(vm string) vmIndex {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.indexLocked(vm)
}

// indexLocked is index with t.mu held for writing.
func (t *PageTable) indexLocked(vm string) vmIndex {
	ix := t.vms[vm]
	if ix == nil {
		ix = make(vmIndex)
		t.vms[vm] = ix
	}
	return ix
}

// drop unmaps every page of a VM and forgets its index, so a table that
// outlives many VMs keeps nothing of them.
func (t *PageTable) drop(vm string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range t.vms[vm] {
		delete(t.owners, keyOf(f))
	}
	delete(t.vms, vm)
}

// lookup is Lookup through an index the caller already holds: it hashes the
// page number and nothing else.
func (t *PageTable) lookup(ix vmIndex, page int64) (Frame, bool) {
	t.mu.RLock()
	f, ok := ix[page]
	t.mu.RUnlock()
	return f, ok
}

// Map installs a translation. It fails with ErrAlreadyMapped if the page has
// a frame and with ErrFrameAliased if the frame already backs another page.
func (t *PageTable) Map(vm string, page int64, f Frame) error {
	if page < 0 {
		return fmt.Errorf("memplane: negative page %d", page)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.vms[vm][page]; dup {
		return fmt.Errorf("%w: %s page %d", ErrAlreadyMapped, vm, page)
	}
	fk := keyOf(f)
	if owner, taken := t.owners[fk]; taken {
		return fmt.Errorf("%w: %s already backs %s page %d", ErrFrameAliased, f, owner.vm, owner.page)
	}
	t.indexLocked(vm)[page] = f
	t.owners[fk] = entryKey{vm: vm, page: page}
	return nil
}

// Unmap removes a translation, returning the frame it held.
func (t *PageTable) Unmap(vm string, page int64) (Frame, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ix := t.vms[vm]
	f, ok := ix[page]
	if !ok {
		return Frame{}, fmt.Errorf("%w: %s page %d", ErrNotMapped, vm, page)
	}
	delete(ix, page)
	delete(t.owners, keyOf(f))
	return f, nil
}

// Remap atomically replaces the frame behind a mapped page (re-homing after a
// crash), returning the old frame. The new frame must not alias another page.
func (t *PageTable) Remap(vm string, page int64, f Frame) (Frame, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ix := t.vms[vm]
	old, ok := ix[page]
	if !ok {
		return Frame{}, fmt.Errorf("%w: %s page %d", ErrNotMapped, vm, page)
	}
	ek := entryKey{vm: vm, page: page}
	fk := keyOf(f)
	if owner, taken := t.owners[fk]; taken && owner != ek {
		return Frame{}, fmt.Errorf("%w: %s already backs %s page %d", ErrFrameAliased, f, owner.vm, owner.page)
	}
	delete(t.owners, keyOf(old))
	ix[page] = f
	t.owners[fk] = ek
	return old, nil
}

// Lookup returns the frame backing a page.
func (t *PageTable) Lookup(vm string, page int64) (Frame, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	f, ok := t.vms[vm][page]
	return f, ok
}

// Len returns the number of live translations.
func (t *PageTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.owners)
}

// Pages returns the mapped pages of a VM, sorted.
func (t *PageTable) Pages(vm string) []int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []int64
	for page := range t.vms[vm] {
		out = append(out, page)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PagesOn returns the mapped pages of a VM whose frames live on the given
// host, sorted — the migration set when that host crashes.
func (t *PageTable) PagesOn(vm string, host memctl.ServerID) []int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []int64
	for page, f := range t.vms[vm] {
		if f.Kind == FrameRemote && f.Host == host {
			out = append(out, page)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CheckInvariants verifies the table's internal consistency: the entry and
// owner indexes are exact mirrors, and no frame backs two pages.
func (t *PageTable) CheckInvariants() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	entries := 0
	for vm, ix := range t.vms {
		entries += len(ix)
		for page, f := range ix {
			owner, ok := t.owners[keyOf(f)]
			if !ok {
				return fmt.Errorf("memplane: frame %s of %s page %d missing from owner index", f, vm, page)
			}
			if owner != (entryKey{vm: vm, page: page}) {
				return fmt.Errorf("memplane: frame %s mapped by %s page %d is owned by %s page %d",
					f, vm, page, owner.vm, owner.page)
			}
		}
	}
	if entries != len(t.owners) {
		return fmt.Errorf("memplane: %d entries but %d frame owners", entries, len(t.owners))
	}
	return nil
}

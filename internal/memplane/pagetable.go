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

// Frame is the physical backing of one virtual page: either an offset into
// the plane's local arena, or a slice of a remote buffer granted through the
// memctl protocol ({ServerID, BufferID, offset}).
type Frame struct {
	Kind FrameKind

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
		return fmt.Sprintf("local{+%d}", f.LocalOff)
	}
	return fmt.Sprintf("remote{%s buf=%d off=%d}", f.Host, f.Buffer, f.Offset)
}

// frameKey is the identity of a frame for aliasing checks.
type frameKey struct {
	kind   FrameKind
	host   memctl.ServerID
	buffer memctl.BufferID
	off    int64
}

func keyOf(f Frame) frameKey {
	if f.Kind == FrameLocal {
		return frameKey{kind: FrameLocal, off: f.LocalOff}
	}
	return frameKey{kind: FrameRemote, host: f.Host, buffer: f.Buffer, off: f.Offset}
}

// PageTable translates one VM's pages to frames. It enforces the one
// invariant everything else rests on: no frame is ever mapped by two pages.
// Each plane owns its table; two VMs never share one, since the controller
// grants every buffer to one holder. It is safe for concurrent use.
type PageTable struct {
	vm     string
	mu     sync.RWMutex
	pages  map[int64]Frame
	owners map[frameKey]int64
}

func newPageTable(vm string) *PageTable {
	return &PageTable{
		vm:     vm,
		pages:  make(map[int64]Frame),
		owners: make(map[frameKey]int64),
	}
}

// frame returns the frame backing a page.
func (t *PageTable) frame(page int64) (Frame, bool) {
	t.mu.RLock()
	f, ok := t.pages[page]
	t.mu.RUnlock()
	return f, ok
}

// Lookup returns the frame backing a page of the named VM: another VM's
// name finds nothing, since the table holds only its plane's pages.
func (t *PageTable) Lookup(vm string, page int64) (Frame, bool) {
	if vm != t.vm {
		return Frame{}, false
	}
	return t.frame(page)
}

// Map installs a translation. It fails with ErrAlreadyMapped if the page has
// a frame and with ErrFrameAliased if the frame already backs another page.
func (t *PageTable) Map(page int64, f Frame) error {
	if page < 0 {
		return fmt.Errorf("memplane: negative page %d", page)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.pages[page]; dup {
		return fmt.Errorf("%w: %s page %d", ErrAlreadyMapped, t.vm, page)
	}
	fk := keyOf(f)
	if owner, taken := t.owners[fk]; taken {
		return fmt.Errorf("%w: %s already backs %s page %d", ErrFrameAliased, f, t.vm, owner)
	}
	t.pages[page] = f
	t.owners[fk] = page
	return nil
}

// Remap atomically replaces the frame behind a mapped page (re-homing after a
// crash), returning the old frame. The new frame must not alias another page.
func (t *PageTable) Remap(page int64, f Frame) (Frame, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old, ok := t.pages[page]
	if !ok {
		return Frame{}, fmt.Errorf("%w: %s page %d", ErrNotMapped, t.vm, page)
	}
	fk := keyOf(f)
	if owner, taken := t.owners[fk]; taken && owner != page {
		return Frame{}, fmt.Errorf("%w: %s already backs %s page %d", ErrFrameAliased, f, t.vm, owner)
	}
	delete(t.owners, keyOf(old))
	t.pages[page] = f
	t.owners[fk] = page
	return old, nil
}

// Len returns the number of live translations.
func (t *PageTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.pages)
}

// Pages returns the mapped pages, sorted.
func (t *PageTable) Pages() []int64 {
	return t.pagesWhere(func(Frame) bool { return true })
}

// PagesOn returns the mapped pages whose frames live on the given host,
// sorted — the migration set when that host crashes.
func (t *PageTable) PagesOn(host memctl.ServerID) []int64 {
	return t.pagesWhere(func(f Frame) bool { return f.Kind == FrameRemote && f.Host == host })
}

func (t *PageTable) pagesWhere(keep func(Frame) bool) []int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []int64
	for page, f := range t.pages {
		if keep(f) {
			out = append(out, page)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CheckInvariants verifies the table's internal consistency: the page and
// owner indexes are exact mirrors, so no frame backs two pages.
func (t *PageTable) CheckInvariants() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for page, f := range t.pages {
		owner, ok := t.owners[keyOf(f)]
		if !ok {
			return fmt.Errorf("memplane: frame %s of %s page %d missing from owner index", f, t.vm, page)
		}
		if owner != page {
			return fmt.Errorf("memplane: frame %s mapped by %s page %d is owned by page %d", f, t.vm, page, owner)
		}
	}
	if len(t.pages) != len(t.owners) {
		return fmt.Errorf("memplane: %d entries but %d frame owners", len(t.pages), len(t.owners))
	}
	return nil
}

package memplane

import (
	"fmt"

	"repro/internal/hypervisor"
)

// PageStore adapts a plane into the hypervisor's slot-granular RemoteStore,
// so RAM Ext paging (and the explicit swap devices built on it) can demote
// pages straight into the data plane instead of a striped ledger store. Build
// the plane with LocalBytes 0 when the store must be purely remote.
type PageStore struct {
	p     *Plane
	slots int
}

var _ hypervisor.RemoteStore = (*PageStore)(nil)

// NewPageStore exposes slots pages of the plane's address space as a store.
func NewPageStore(p *Plane, slots int) (*PageStore, error) {
	if p == nil {
		return nil, fmt.Errorf("memplane: page store needs a plane")
	}
	if slots <= 0 {
		return nil, fmt.Errorf("memplane: page store needs positive slots, got %d", slots)
	}
	if int64(slots)*DefaultPageSize > p.cfg.AddressBytes {
		return nil, fmt.Errorf("memplane: %d slots exceed the plane's %d-byte address space", slots, p.cfg.AddressBytes)
	}
	return &PageStore{p: p, slots: slots}, nil
}

// Slots implements hypervisor.RemoteStore.
func (s *PageStore) Slots() int { return s.slots }

// WritePage implements hypervisor.RemoteStore.
func (s *PageStore) WritePage(slot int, page []byte) (int64, error) {
	_, ns, err := s.p.Write(int64(slot)*DefaultPageSize, page)
	return ns, err
}

// ReadPage implements hypervisor.RemoteStore.
func (s *PageStore) ReadPage(slot int, dst []byte) (int64, error) {
	_, ns, err := s.p.Read(int64(slot)*DefaultPageSize, dst)
	return ns, err
}

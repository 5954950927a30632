package memplane

import (
	"fmt"

	"repro/internal/rdma"
)

// Transport moves bytes between the plane and a remote frame, whose rdma
// region holds the page's only copy. The returned latency is the fabric
// charge in nanoseconds, BEFORE any chaos degradation (the plane applies the
// degradation factor itself so that every transport prices faults
// identically).
type Transport interface {
	// WriteRemote copies src into the frame at off.
	WriteRemote(f Frame, off int64, src []byte) (int64, error)
	// ReadRemote copies len(dst) bytes from the frame at off into dst.
	ReadRemote(f Frame, off int64, dst []byte) (int64, error)
}

// InProcessTransport serves frames through the live memctl handles: every
// operation is a one-sided RDMA verb against the granted buffer's registered
// region, so bytes really land in (and come back out of) the serving host's
// memory, priced by the fabric's cost model.
type InProcessTransport struct{}

// WriteRemote implements Transport with a one-sided RDMA WRITE.
func (InProcessTransport) WriteRemote(f Frame, off int64, src []byte) (int64, error) {
	if f.rb == nil {
		return 0, fmt.Errorf("memplane: frame %s has no live buffer handle", f)
	}
	return f.rb.WriteRemote(f.Offset+off, src)
}

// ReadRemote implements Transport with a one-sided RDMA READ.
func (InProcessTransport) ReadRemote(f Frame, off int64, dst []byte) (int64, error) {
	if f.rb == nil {
		return 0, fmt.Errorf("memplane: frame %s has no live buffer handle", f)
	}
	return f.rb.ReadRemote(f.Offset+off, dst)
}

// LedgerTransport moves bytes as InProcessTransport does but charges only the
// simulator's cost arithmetic (TransferNs over the one-sided base latency),
// never the verb's own price, so it stays an independent price oracle: the
// differential tests pin the other transports' charges bit-identical to it.
type LedgerTransport struct {
	Model rdma.CostModel
}

// WriteRemote implements Transport: InProcessTransport's byte move, priced by
// the ledger arithmetic.
func (l LedgerTransport) WriteRemote(f Frame, off int64, src []byte) (int64, error) {
	if _, err := (InProcessTransport{}).WriteRemote(f, off, src); err != nil {
		return 0, err
	}
	return l.Model.TransferNs(l.Model.OneSidedLatencyNs, len(src)), nil
}

// ReadRemote implements Transport: InProcessTransport's byte move, priced by
// the ledger arithmetic.
func (l LedgerTransport) ReadRemote(f Frame, off int64, dst []byte) (int64, error) {
	if _, err := (InProcessTransport{}).ReadRemote(f, off, dst); err != nil {
		return 0, err
	}
	return l.Model.TransferNs(l.Model.OneSidedLatencyNs, len(dst)), nil
}

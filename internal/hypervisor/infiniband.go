package hypervisor

import "repro/internal/swapdev"

// NewInfinibandStore returns a latency-model RemoteStore with FDR-Infiniband
// per-page latencies, 2 900 ns each way: the RDMA fabric's default cost for
// a 4 KiB page, so tests and sweeps can run RAM Ext without the fabric. It
// differs from swapdev.LatencyOf(swapdev.RemoteRAM), the guest-visible swap
// path of Table 2, because the paperfigs golden pins both values (Tables 1
// and 2).
func NewInfinibandStore(slots int) *swapdev.Store {
	s, _ := swapdev.NewWithLatency(slots, swapdev.Latency{WriteNs: 2900, ReadNs: 2900})
	return s
}

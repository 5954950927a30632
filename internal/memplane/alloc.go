package memplane

import (
	"errors"
	"fmt"

	"repro/internal/memctl"
	"repro/internal/pagestore"
)

// ErrOutOfMemory is returned when neither the local arena nor a memctl grant
// can back another frame.
var ErrOutOfMemory = errors.New("memplane: out of local and remote memory")

// allocator hands out frames: local arena offsets up to a soft limit, then
// remote frames carved from buffers granted through the agent's GS_alloc_ext
// path (the soft-limit overflow shape of SNIPPETS §3). It is not safe for
// concurrent use; the owning Plane serialises access.
type allocator struct {
	vm       string
	pageSize int64

	arena     *pagestore.Store
	softLimit int64
	nextLocal int64
	freeLocal []int64

	agent      *memctl.Agent
	grantBytes int64

	// The remote free list is bucketed per serving host (buckets in
	// first-carve order, each a FIFO with a compacted consumed prefix), so a
	// pop is O(hosts) even when a crash forces every frame of a dead host to
	// be avoided. uncarved holds owned buffers not yet sliced into frames —
	// carving is lazy, so seeding a plane with a reservation far larger than
	// its address space costs nothing up front.
	remote    []*hostBucket
	remoteIdx map[memctl.ServerID]*hostBucket
	uncarved  []*memctl.RemoteBuffer
	handles   []*memctl.RemoteBuffer

	stats AllocStats
}

// hostBucket is one serving host's free frames, popped FIFO.
type hostBucket struct {
	host   memctl.ServerID
	frames []Frame
	head   int
}

func (b *hostBucket) push(f Frame) { b.frames = append(b.frames, f) }

func (b *hostBucket) pop() (Frame, bool) {
	if b.head >= len(b.frames) {
		return Frame{}, false
	}
	f := b.frames[b.head]
	b.frames[b.head] = Frame{}
	b.head++
	if b.head > 1024 && b.head*2 >= len(b.frames) {
		b.frames = append(b.frames[:0:0], b.frames[b.head:]...)
		b.head = 0
	}
	return f, true
}

// AllocStats summarises the allocator's footprint.
type AllocStats struct {
	// LocalFrames and RemoteFrames count frames currently handed out.
	LocalFrames  int
	RemoteFrames int
	// BuffersGranted counts the memctl buffers carved into frames (seeded
	// buffers count once they actually back pages); GrantedBytes their total
	// size; GrantCalls the number of GS_alloc_ext round-trips the allocator
	// itself made.
	BuffersGranted int
	GrantedBytes   int64
	GrantCalls     int
	// DiscardedFrames counts remote frames abandoned on a crashed host.
	DiscardedFrames int
}

func newAllocator(vm string, pageSize, localBytes, softLimit int64, agent *memctl.Agent, grantBytes int64, seed []*memctl.RemoteBuffer) *allocator {
	if softLimit <= 0 || softLimit > localBytes {
		softLimit = localBytes
	}
	al := &allocator{
		vm:         vm,
		pageSize:   pageSize,
		arena:      pagestore.New(localBytes),
		softLimit:  softLimit,
		agent:      agent,
		grantBytes: grantBytes,
	}
	for _, rb := range seed {
		if rb == nil {
			continue
		}
		al.handles = append(al.handles, rb)
		al.uncarved = append(al.uncarved, rb)
	}
	return al
}

// bucket returns (creating on first sight) the host's free-frame bucket.
func (al *allocator) bucket(host memctl.ServerID) *hostBucket {
	if b, ok := al.remoteIdx[host]; ok {
		return b
	}
	if al.remoteIdx == nil {
		al.remoteIdx = make(map[memctl.ServerID]*hostBucket)
	}
	b := &hostBucket{host: host}
	al.remoteIdx[host] = b
	al.remote = append(al.remote, b)
	return b
}

// carve slices an owned buffer into page frames on the remote free list.
func (al *allocator) carve(rb *memctl.RemoteBuffer) {
	al.stats.BuffersGranted++
	al.stats.GrantedBytes += rb.Size
	b := al.bucket(rb.Host)
	for off := int64(0); off+al.pageSize <= rb.Size; off += al.pageSize {
		b.push(Frame{
			Kind:   FrameRemote,
			Host:   rb.Host,
			Buffer: rb.ID,
			Offset: off,
			rb:     rb,
		})
	}
}

// popRemote takes the next free frame not hosted by an avoided server,
// walking the buckets in first-carve order.
func (al *allocator) popRemote(avoid map[memctl.ServerID]bool) (Frame, bool) {
	for _, b := range al.remote {
		if avoid != nil && avoid[b.host] {
			continue
		}
		if f, ok := b.pop(); ok {
			al.stats.RemoteFrames++
			return f, true
		}
	}
	return Frame{}, false
}

// alloc returns the next frame: local until the soft limit, then remote.
func (al *allocator) alloc() (Frame, error) {
	if n := len(al.freeLocal); n > 0 {
		off := al.freeLocal[n-1]
		al.freeLocal = al.freeLocal[:n-1]
		al.stats.LocalFrames++
		return Frame{Kind: FrameLocal, Arena: al.vm, LocalOff: off}, nil
	}
	if al.nextLocal+al.pageSize <= al.softLimit {
		off := al.nextLocal
		al.nextLocal += al.pageSize
		al.stats.LocalFrames++
		return Frame{Kind: FrameLocal, Arena: al.vm, LocalOff: off}, nil
	}
	return al.allocRemote(nil)
}

// allocRemote returns a remote frame not hosted by any avoided server,
// growing through the grant protocol when the free list runs dry. Grants
// that land on avoided hosts (the controller does not know they crashed) are
// quarantined and handed straight back once a healthy frame is found, so the
// loop drains the dead host's pool instead of spinning on it.
func (al *allocator) allocRemote(avoid map[memctl.ServerID]bool) (Frame, error) {
	var quarantine []*memctl.RemoteBuffer
	bail := func(err error) (Frame, error) {
		if len(quarantine) > 0 {
			_ = memctl.ReleaseHandles(quarantine)
		}
		return Frame{}, err
	}
	for {
		if f, ok := al.popRemote(avoid); ok {
			if len(quarantine) > 0 {
				if err := memctl.ReleaseHandles(quarantine); err != nil {
					return Frame{}, err
				}
			}
			return f, nil
		}
		// Carve the next owned-but-unsliced buffer before asking the
		// controller for more. Avoided ones stay uncarved (they are the
		// plane's to keep, usable again after a revive) — carving a dead
		// host's reservation would only bloat the free list.
		if i := nextUncarved(al.uncarved, avoid); i >= 0 {
			rb := al.uncarved[i]
			al.uncarved = append(al.uncarved[:i], al.uncarved[i+1:]...)
			al.carve(rb)
			continue
		}
		if al.agent == nil {
			return bail(fmt.Errorf("%w: no agent to grow through", ErrOutOfMemory))
		}
		bufs, err := al.agent.RequestExt(al.grantBytes)
		if err != nil {
			return bail(fmt.Errorf("%w: %v", ErrOutOfMemory, err))
		}
		al.stats.GrantCalls++
		for _, rb := range bufs {
			if avoid != nil && avoid[rb.Host] {
				quarantine = append(quarantine, rb)
				continue
			}
			al.handles = append(al.handles, rb)
			al.carve(rb)
		}
	}
}

// nextUncarved returns the index of the first uncarved buffer not hosted by
// an avoided server, or -1.
func nextUncarved(uncarved []*memctl.RemoteBuffer, avoid map[memctl.ServerID]bool) int {
	for i, rb := range uncarved {
		if avoid != nil && avoid[rb.Host] {
			continue
		}
		return i
	}
	return -1
}

// free returns a frame to the free lists.
func (al *allocator) free(f Frame) {
	if f.Kind == FrameLocal {
		al.freeLocal = append(al.freeLocal, f.LocalOff)
		al.stats.LocalFrames--
		return
	}
	al.bucket(f.Host).push(f)
	al.stats.RemoteFrames--
}

// discard drops a remote frame whose host crashed: its capacity is lost until
// the host is repaired, so it must not return to the free list.
func (al *allocator) discard(f Frame) {
	if f.Kind != FrameRemote {
		al.free(f)
		return
	}
	al.stats.RemoteFrames--
	al.stats.DiscardedFrames++
}

// close releases every granted buffer back to the controller.
func (al *allocator) close() error {
	handles := al.handles
	al.handles = nil
	al.uncarved = nil
	al.remote = nil
	al.remoteIdx = nil
	return memctl.ReleaseHandles(handles)
}

package memplane

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/memctl"
)

// tcpPlanePair builds two identical rigs: one plane served over loopback TCP,
// one in-process. Identical construction means identical buffer IDs, so the
// two planes' charge streams can be compared bit for bit.
func tcpPlanePair(t *testing.T) (tcpPlane, inprocPlane *Plane, cleanup func()) {
	t.Helper()
	names := []string{"user-00", "zombie-01", "zombie-02"}
	rigTCP := newRig(t, names, names[1:])
	rigIP := newRig(t, names, names[1:])

	// Pre-grant the buffers so the TCP server can export them; seed both
	// planes identically (no agent, no further growth). The grant takes all
	// of zombie-01, where the planes carve first, and four buffers of
	// zombie-02, where a re-home off zombie-01 lands.
	const grant = rigTotalMem + 4*rigBufSize
	bufsTCP, err := rigTCP.user(t, names).RequestExt(grant)
	if err != nil {
		t.Fatal(err)
	}
	bufsIP, err := rigIP.user(t, names).RequestExt(grant)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewTCPServer()
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(bufsTCP...)
	tr, err := DialTCP(srv.Addr())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	tcpPlane, err = New(Config{
		VM: "vm", AddressBytes: testSpan, LocalBytes: DefaultPageSize,
		Buffers:   bufsTCP,
		Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	inprocPlane, err = New(Config{
		VM: "vm", AddressBytes: testSpan, LocalBytes: DefaultPageSize,
		Buffers: bufsIP,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tcpPlane, inprocPlane, func() {
		_ = tr.Close()
		_ = srv.Close()
	}
}

// TestTCPTransportMatchesInProcess drives the same op stream through the TCP
// and in-process transports and demands identical bytes AND identical
// charges: the socket moves the data, the fabric still prices it. A re-home
// off the crashed serving host, which reads each departing frame over the
// socket, must report and charge the same on both and lose no byte.
func TestTCPTransportMatchesInProcess(t *testing.T) {
	tcpP, ipP, cleanup := tcpPlanePair(t)
	defer cleanup()

	shadow := make([]byte, testSpan)
	addrs := []int64{0, DefaultPageSize, 3 * DefaultPageSize, 5*DefaultPageSize + 100}
	for i, addr := range addrs {
		src := make([]byte, 600+i*512)
		fillPattern(src, addr, byte(i))
		copy(shadow[addr:], src)
		nT, nsT, errT := tcpP.Write(addr, src)
		nI, nsI, errI := ipP.Write(addr, src)
		if errT != nil || errI != nil {
			t.Fatalf("write %d: tcp=%v inproc=%v", i, errT, errI)
		}
		if nT != nI || nsT != nsI {
			t.Fatalf("write %d diverged: tcp (%d, %dns) inproc (%d, %dns)", i, nT, nsT, nI, nsI)
		}
	}
	for i, addr := range addrs {
		want := make([]byte, 600+i*512)
		fillPattern(want, addr, byte(i))
		gotT := make([]byte, len(want))
		gotI := make([]byte, len(want))
		_, nsT, errT := tcpP.Read(addr, gotT)
		_, nsI, errI := ipP.Read(addr, gotI)
		if errT != nil || errI != nil {
			t.Fatalf("read %d: tcp=%v inproc=%v", i, errT, errI)
		}
		if nsT != nsI {
			t.Fatalf("read %d charges diverged: tcp %dns inproc %dns", i, nsT, nsI)
		}
		if !bytes.Equal(gotT, want) {
			t.Fatalf("read %d: tcp bytes corrupted in transit", i)
		}
		if !bytes.Equal(gotI, want) {
			t.Fatalf("read %d: inproc bytes corrupted", i)
		}
	}
	if st, si := tcpP.Stats(), ipP.Stats(); st != si {
		t.Fatalf("stats diverged:\n tcp    %+v\n inproc %+v", st, si)
	}

	victim := memctl.ServerID("zombie-01")
	lost := tcpP.Table().PagesOn(victim)
	if len(lost) != len(addrs)-1 {
		t.Fatalf("zombie-01 serves %d pages, want %d", len(lost), len(addrs)-1)
	}
	var reps [2]RehomeReport
	for i, p := range []*Plane{tcpP, ipP} {
		p.CrashHost(victim)
		rep, err := p.Rehome(victim)
		if err != nil {
			t.Fatalf("rehome %d: %v", i, err)
		}
		reps[i] = rep
		if on := p.Table().PagesOn(victim); len(on) != 0 {
			t.Fatalf("plane %d: %d pages left on %s", i, len(on), victim)
		}
	}
	if reps[0] != reps[1] || reps[0].Pages != len(lost) {
		t.Fatalf("rehome reports: tcp %+v inproc %+v, want %d pages", reps[0], reps[1], len(lost))
	}
	got := make([]byte, DefaultPageSize)
	for i, p := range []*Plane{tcpP, ipP} {
		for base := int64(0); base < testSpan; base += DefaultPageSize {
			if _, _, err := p.Read(base, got); err != nil {
				t.Fatalf("plane %d: read-back at %d: %v", i, base, err)
			}
			if !bytes.Equal(got, shadow[base:base+DefaultPageSize]) {
				t.Fatalf("plane %d: page %d lost bytes in the re-home", i, base/DefaultPageSize)
			}
		}
	}
	if st, si := tcpP.Stats(), ipP.Stats(); st != si {
		t.Fatalf("stats diverged after the re-home:\n tcp    %+v\n inproc %+v", st, si)
	}
}

// TestTCPServerSurfacesRemoteErrors pins the error path of the wire protocol.
func TestTCPServerSurfacesRemoteErrors(t *testing.T) {
	srv, err := NewTCPServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// No buffer registered: the op must fail with the server's message.
	_, err = tr.WriteRemote(Frame{Kind: FrameRemote, Buffer: 99}, 0, []byte{1})
	if err == nil || !strings.Contains(err.Error(), "no buffer 99") {
		t.Fatalf("got %v, want remote no-buffer error", err)
	}
	// The connection survives an error response.
	_, err = tr.ReadRemote(Frame{Kind: FrameRemote, Buffer: 99}, 0, make([]byte, 1))
	if err == nil {
		t.Fatal("second op should still round-trip and fail")
	}
}

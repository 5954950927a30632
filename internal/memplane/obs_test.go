package memplane

import (
	"bytes"
	"testing"

	"repro/internal/memctl"
	"repro/internal/obs"
)

// runObservedPlane drives a plane through local and remote traffic, a crash
// timeout and a re-home with an attached obs bundle, and returns the bundle
// and the plane's own stats.
func runObservedPlane(t *testing.T) (*obs.Obs, Stats) {
	t.Helper()
	names := []string{"user-00", "zombie-01", "zombie-02"}
	r := newRig(t, names, []string{"zombie-01", "zombie-02"})
	o := obs.New(obs.Options{TraceCapacity: 512})
	p, err := New(Config{
		VM:           "vm",
		AddressBytes: testSpan,
		LocalBytes:   DefaultPageSize,
		Agent:        r.user(t, names),
		Obs:          o,
	})
	if err != nil {
		t.Fatal(err)
	}
	for pg := int64(0); pg < 5; pg++ {
		src := make([]byte, DefaultPageSize)
		fillPattern(src, pg*DefaultPageSize, 3)
		if _, _, err := p.Write(pg*DefaultPageSize, src); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, 2*DefaultPageSize)
	if _, _, err := p.Read(0, dst); err != nil {
		t.Fatal(err)
	}
	victim := memctl.ServerID("zombie-01")
	p.CrashHost(victim)
	if _, _, err := p.Read(0, make([]byte, 5*DefaultPageSize)); err == nil {
		t.Fatal("read across the crashed host did not time out")
	}
	if _, err := p.Rehome(victim); err != nil {
		t.Fatal(err)
	}
	return o, p.Stats()
}

// TestPlaneObsCounters checks the counters against the plane's own Stats:
// both are bumped at the same sites, so they must agree exactly.
func TestPlaneObsCounters(t *testing.T) {
	o, st := runObservedPlane(t)
	snap := o.Metrics.Snapshot()
	want := map[string]uint64{
		"memplane_reads_total":         st.Reads,
		"memplane_writes_total":        st.Writes,
		"memplane_remote_ops_total":    st.RemoteOps,
		"memplane_timeouts_total":      st.Timeouts,
		"memplane_rehomed_pages_total": st.RehomedPages,
	}
	for name, v := range want {
		if snap.Counters[name] != v {
			t.Errorf("%s = %d, want %d", name, snap.Counters[name], v)
		}
	}
	if st.RemoteOps == 0 || st.Timeouts == 0 || st.RehomedPages == 0 {
		t.Fatalf("scenario did not exercise the remote paths: %+v", st)
	}
	if got := snap.Counters["memplane_op_ns_count"]; got != st.Reads+st.Writes {
		t.Errorf("op histogram count = %d, want %d", got, st.Reads+st.Writes)
	}
	if got := snap.Gauges["memplane_op_ns_sum"]; got != float64(st.ChargedNs-st.RehomeNs) {
		t.Errorf("op histogram sum = %.0f, want charged %d minus rehome %d",
			got, st.ChargedNs, st.RehomeNs)
	}
}

// TestPlaneObsTraceDeterministic pins the determinism contract at the data
// plane: events are stamped with the plane's cumulative simulated charge, so
// identical op sequences export byte-identical NDJSON.
func TestPlaneObsTraceDeterministic(t *testing.T) {
	render := func() []byte {
		o, _ := runObservedPlane(t)
		var buf bytes.Buffer
		if err := o.Trace.WriteNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Errorf("same-sequence runs diverged:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestPlaneObsNilIdentical pins the telemetry-only contract: attaching a
// bundle leaves the plane's stats bit-identical to an unobserved plane.
func TestPlaneObsNilIdentical(t *testing.T) {
	run := func(o *obs.Obs) Stats {
		p, err := New(Config{VM: "vm", AddressBytes: testSpan, LocalBytes: 4 * DefaultPageSize, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		src := make([]byte, 3*DefaultPageSize)
		fillPattern(src, 0, 9)
		if _, _, err := p.Write(0, src); err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Read(DefaultPageSize/2, make([]byte, DefaultPageSize)); err != nil {
			t.Fatal(err)
		}
		return p.Stats()
	}
	plain := run(nil)
	observed := run(obs.New(obs.Options{}))
	if plain != observed {
		t.Errorf("obs changed the plane:\nplain    %+v\nobserved %+v", plain, observed)
	}
}

package obs

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/golden"
)

// emitScenario drives a fixed sequence of events through a trace: the same
// mix of Emit (fake clock) and EmitAt (explicit sim time) the runtime
// layers use.
func emitScenario(tr *Trace) {
	tr.Emit("fleet", "place.batch", F("vms", 6), F("placed", 5), F("failed", 1))
	tr.Emit("fleet", "place.shard", F("rack", 0), F("placed", 3))
	tr.Emit("fleet", "place.shard", F("rack", 1), F("placed", 2))
	tr.EmitAt(30, "autopilot", "tick", F("tick", 1), F("active", 12))
	tr.EmitAt(30, "autopilot", "replan", F("active", 10), F("zombie", 2))
	tr.EmitAt(30, "autopilot", "transition", F("count", 2), F("joules_milli", 151000))
	tr.EmitAt(42, "chaos", "fault.crash", FS("server", "r0-s3"))
	tr.EmitAt(57, "chaos", "repair", FS("server", "r0-s3"))
	tr.EmitAt(7, "memplane", "write", F("addr", 4096), F("n", 512), F("ns", 2100))
	tr.EmitAt(7, "memplane", "hop", F("page", 1), F("ns", 1800))
	tr.Emit("gateway", "evict", FS("session", "f-1"))
}

// TestGoldenNDJSON pins the byte-exact NDJSON export of a fixed scenario
// under a fake stepping clock. The golden file is the determinism contract:
// manual field-order marshalling, quoting, and ring order must never drift.
func TestGoldenNDJSON(t *testing.T) {
	tr := NewTrace(64, StepClock())
	emitScenario(tr)
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "trace", buf.Bytes())
}

// TestNDJSONByteStable runs the identical scenario twice with fresh fake
// clocks and demands byte-identical exports — the acceptance criterion for
// every -obs trace dump.
func TestNDJSONByteStable(t *testing.T) {
	render := func() []byte {
		tr := NewTrace(64, StepClock())
		emitScenario(tr)
		var buf bytes.Buffer
		if err := tr.WriteNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := render(), render(); !bytes.Equal(a, b) {
		t.Errorf("two identical runs diverged:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestRingWrap checks the overwrite semantics: a capacity-4 ring keeps the
// newest 4 events oldest-first and counts the rest as dropped.
func TestRingWrap(t *testing.T) {
	tr := NewTrace(4, nil)
	for i := 0; i < 10; i++ {
		tr.EmitAt(int64(i), "l", "e")
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("len = %d, want 4", len(ev))
	}
	for i, e := range ev {
		if want := int64(6 + i); e.At != want || e.Seq != want+1 {
			t.Fatalf("event %d = seq %d at %d, want seq %d at %d", i, e.Seq, e.At, want+1, want)
		}
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
}

// TestNilTrace proves the disabled trace no-ops everything, including the
// writer.
func TestNilTrace(t *testing.T) {
	var tr *Trace
	tr.Emit("a", "b")
	tr.EmitAt(1, "a", "b", F("k", 1))
	if tr.Len() != 0 || tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil trace must stay empty")
	}
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil trace wrote %q, err %v", buf.String(), err)
	}
	if NewTrace(0, nil) != nil || NewTrace(-1, nil) != nil {
		t.Fatal("non-positive capacity must return a nil trace")
	}
}

// TestConcurrentEmit hammers the ring from several goroutines while a
// reader snapshots it; under -race this is the trace's data-race proof,
// and the sequence numbers prove no emission was lost.
func TestConcurrentEmit(t *testing.T) {
	tr := NewTrace(128, StepClock())
	const workers = 4
	const perWorker = 1000
	stop := make(chan struct{})
	var readWG sync.WaitGroup
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr.Events()
			var buf bytes.Buffer
			if err := tr.WriteNDJSON(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Emit("w", "op", F("i", int64(i)))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readWG.Wait()
	if got := tr.Len() + int(tr.Dropped()); got != workers*perWorker {
		t.Fatalf("kept+dropped = %d, want %d", got, workers*perWorker)
	}
	seen := make(map[int64]bool)
	for _, e := range tr.Events() {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

// TestStepClock pins the fake clock: strictly increasing from 1.
func TestStepClock(t *testing.T) {
	c := StepClock()
	for want := int64(1); want <= 5; want++ {
		if got := c(); got != want {
			t.Fatalf("step %d = %d", want, got)
		}
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/golden"
)

// steppingNow returns a clock that advances by step on every call, making
// every request's latency exactly one step and the elapsed span a pure
// function of the request count.
func steppingNow(step time.Duration) func() time.Time {
	var mu sync.Mutex
	t := time.Unix(1_700_000_000, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(step)
		return t
	}
}

// TestGoldenFleetload pins the single-client report end to end: one seeded
// worker against an in-process gateway with a stepping latency clock, so the
// endpoint mix, the percentile lines and the throughput line are all
// byte-stable across machines.
func TestGoldenFleetload(t *testing.T) {
	var buf bytes.Buffer
	cfg := loadCfg{
		inproc:   true,
		clients:  1,
		requests: 12,
		seed:     42,
		strict:   true,
		now:      steppingNow(time.Millisecond),
	}
	if err := run(&buf, cfg); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	golden.Check(t, "fleetload", buf.Bytes())
}

// TestFleetloadWritesReport checks the -out artifact: schema v1 JSON with
// the totals the stdout report printed.
func TestFleetloadWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_gateway.json")
	var buf bytes.Buffer
	cfg := loadCfg{
		inproc:   true,
		clients:  2,
		requests: 6,
		seed:     7,
		out:      out,
		strict:   true,
		now:      steppingNow(time.Millisecond),
	}
	if err := run(&buf, cfg); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"schema": 1`, `"tool": "fleetload"`, `"total_requests": 12`, `"server_5xx": 0`, `"p99_ms"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report missing %s:\n%s", want, data)
		}
	}
	if !strings.Contains(buf.String(), "Wrote "+out) {
		t.Errorf("stdout never acknowledged the artifact:\n%s", buf.String())
	}
}

// TestFleetloadValidation pins the CLI contract: the shared-helper messages
// for the numeric flags and the target/inproc exclusivity.
func TestFleetloadValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  loadCfg
		want string
	}{
		{"no target", loadCfg{clients: 1, requests: 2}, "exactly one of -target and -inproc"},
		{"both targets", loadCfg{target: "http://x", inproc: true, clients: 1, requests: 2}, "exactly one of -target and -inproc"},
		{"zero clients", loadCfg{inproc: true, clients: 0, requests: 2}, "-clients 0 out of range (need >= 1)"},
		{"negative requests", loadCfg{inproc: true, clients: 1, requests: -3}, "-requests -3 out of range (need >= 1)"},
		{"one request", loadCfg{inproc: true, clients: 1, requests: 1}, "-requests 1 out of range (need >= 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(&bytes.Buffer{}, tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

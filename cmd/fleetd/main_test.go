package main

import (
	"context"
	"flag"
	"io"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"

	// fleetd pins no golden file; the import registers -update so the bless
	// command, go test ./cmd/... -run Golden -update, passes every command.
	_ "repro/internal/golden"
)

// TestRunDrainsOnCancel walks the close path SIGTERM takes: run serves until
// its context is cancelled, then drains and returns nil, leaving no listener
// and no goroutine behind.
func TestRunDrainsOnCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	cfg, err := parseFlags(flag.NewFlagSet("fleetd", flag.ContinueOnError), nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() { done <- run(ctx, ln, cfg) }()

	// A keep-alive client that reads the body to EOF, so the connection goes
	// back to its pool and the drain has an idle connection to close.
	client := &http.Client{Transport: &http.Transport{}}
	resp, err := client.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run = %v after cancellation, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return within 5s of cancellation")
	}
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Fatalf("dial %s succeeded after run returned: the listener outlived it", addr)
	}
	// Both ends of the closed keep-alive connection wind down asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5s after run returned, %d before it started", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetdFlagErrors pins the upfront validation of the serving flags: each
// is rejected with the shared cliflag message, and parsing a bad command line
// leaves its -addr unbound, so the flag error is what a user sees even when
// the port is taken.
func TestFleetdFlagErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-quota", "-1"}, "-quota -1 out of range (need >= 0)"},
		{[]string{"-quota-window", "0"}, "-quota-window 0 out of range (need >= 1)"},
		{[]string{"-ttl", "-5"}, "-ttl -5 out of range (need >= 0)"},
		{[]string{"-max-sessions", "0"}, "-max-sessions 0 out of range (need >= 1)"},
		{[]string{"-max-servers", "-1"}, "-max-servers -1 out of range (need >= 1)"},
		{[]string{"-quota", "-1", "-ttl", "-1"}, "-quota -1 out of range (need >= 0)"},
	}
	for _, c := range cases {
		// A port that was free a moment ago: parsing must not take it.
		probe, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := probe.Addr().String()
		probe.Close()

		fs := flag.NewFlagSet("fleetd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err = parseFlags(fs, append([]string{"-addr", addr}, c.args...))
		if err == nil || err.Error() != c.want {
			t.Errorf("fleetd %v = %v, want %q", c.args, err, c.want)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("fleetd %v left %s bound: %v", c.args, addr, err)
		}
		ln.Close()
	}
}

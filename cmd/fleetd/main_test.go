package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"
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
	go func() { done <- run(ctx, ln, "", 0, 1, 0, 64, 256, false) }()

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

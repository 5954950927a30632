package memplane

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/memctl"
)

// TestMemplaneUnderRace hammers one plane with concurrent writers and readers
// on disjoint page ranges while a chaos actor crashes, re-homes and revives
// zombie hosts. Run with -race this proves the plane's lock discipline; the
// shadow comparison proves no write is lost across a migration.
//
// Ops are full-page so they are all-or-nothing: a write either lands entirely
// (and is mirrored in the same critical section) or times out with zero bytes
// moved, which is what lets every worker treat "last successful write" as the
// page's exact expected content.
func TestMemplaneUnderRace(t *testing.T) {
	names := []string{"user-00", "zombie-01", "zombie-02", "zombie-03"}
	zombies := []string{"zombie-01", "zombie-02", "zombie-03"}
	r := newRig(t, names, zombies)

	p, err := New(Config{
		VM:           "vm",
		AddressBytes: testSpan,
		LocalBytes:   0, // force every page through the remote path
		Agent:        r.user(t, names),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const (
		workers     = 4
		pagesPerW   = 4
		rounds      = 40
		chaosCycles = 6
		maxRetries  = 10_000
		totalPages  = workers * pagesPerW
	)
	ps := DefaultPageSize

	// Touch every page once so the chaos actor always has mapped pages to
	// migrate and workers never allocate mid-crash.
	init := make([]byte, ps)
	for pg := int64(0); pg < totalPages; pg++ {
		fillPattern(init, pg*ps, 0)
		if _, _, err := p.Write(pg*ps, init); err != nil {
			t.Fatalf("seed page %d: %v", pg, err)
		}
	}

	// retry runs op until it stops timing out (crash windows are transient:
	// the chaos actor always re-homes and revives).
	retry := func(op func() error) error {
		for i := 0; i < maxRetries; i++ {
			err := op()
			if err == nil || !errors.Is(err, ErrRemoteTimeout) {
				return err
			}
			runtime.Gosched()
		}
		return fmt.Errorf("still timing out after %d attempts", maxRetries)
	}

	var wg sync.WaitGroup
	errc := make(chan error, workers+1)

	// The chaos actor: crash a zombie, migrate its pages, bring it back.
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for cycle := 0; cycle < chaosCycles; cycle++ {
			victim := memctl.ServerID(zombies[cycle%len(zombies)])
			p.CrashHost(victim)
			if _, err := p.Rehome(victim); err != nil {
				errc <- fmt.Errorf("rehome %s: %v", victim, err)
				return
			}
			p.ReviveHost(victim)
			runtime.Gosched()
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * pagesPerW)
			// last[i] is the salt of page base+i's last successful write.
			last := make([]byte, pagesPerW)
			buf := make([]byte, ps)
			got := make([]byte, ps)
			for round := 0; round < rounds; round++ {
				pg := base + int64(round%pagesPerW)
				salt := byte(round + 1)
				fillPattern(buf, pg*ps, salt)
				err := retry(func() error {
					_, _, err := p.Write(pg*ps, buf)
					return err
				})
				if err != nil {
					errc <- fmt.Errorf("worker %d write page %d: %v", w, pg, err)
					return
				}
				last[round%pagesPerW] = salt
				err = retry(func() error {
					_, _, err := p.Read(pg*ps, got)
					return err
				})
				if err != nil {
					errc <- fmt.Errorf("worker %d read page %d: %v", w, pg, err)
					return
				}
				if !bytes.Equal(got, buf) {
					errc <- fmt.Errorf("worker %d page %d: read differs from last write (salt %d)", w, pg, salt)
					return
				}
			}
			// Final sweep: every page of this worker still holds its last
			// successful write, across however many migrations it survived.
			<-stop
			want := make([]byte, ps)
			for i := 0; i < pagesPerW; i++ {
				if last[i] == 0 {
					continue
				}
				pg := base + int64(i)
				fillPattern(want, pg*ps, last[i])
				if err := retry(func() error {
					_, _, err := p.Read(pg*ps, got)
					return err
				}); err != nil {
					errc <- fmt.Errorf("worker %d final read page %d: %v", w, pg, err)
					return
				}
				if !bytes.Equal(got, want) {
					errc <- fmt.Errorf("worker %d page %d lost its last write across migrations", w, pg)
					return
				}
			}
		}(w)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if err := p.Table().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := p.Table().Len(); got != totalPages {
		t.Fatalf("table holds %d pages, want %d", got, totalPages)
	}
}

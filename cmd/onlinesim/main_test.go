package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/gateway"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (bless the golden file with: go test ./cmd/... -run Golden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s (re-bless with -update after checking the diff):\n--- got ---\n%s", golden, got)
	}
}

// TestGoldenRegretComparison pins the three-policy regret comparison on a
// small fixed-seed trace.
func TestGoldenRegretComparison(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 40, 300, 4, 42, false, "", "", 600, "all", "zombiestack", "hp",
		false, 0, 0, 0, "", 42, false); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "onlinesim", buf.Bytes())
}

// TestGoldenObsDump pins the -obs dump for a single-policy chaos run: the
// schedule emission, the loop's sim-time-stamped events and the metrics
// snapshot are all deterministic, so the whole report is golden-testable.
func TestGoldenObsDump(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 40, 300, 4, 42, false, "", "", 600, "hysteresis", "zombiestack", "hp",
		false, 0, 0, 0, "heavy", 42, true); err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(buf.Bytes(), []byte("--- obs metrics ---"))
	if i < 0 {
		t.Fatal("no obs dump in -obs output")
	}
	checkGolden(t, "onlinesim_obs", buf.Bytes()[i:])
}

// TestGoldenChaosAxis pins the chaos severity sweep (off/light/heavy) for
// one policy — the resilience table format and its numbers.
func TestGoldenChaosAxis(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 40, 300, 4, 42, false, "", "", 600, "hysteresis", "zombiestack", "hp",
		false, 0, 0, 0, "all", 42, false); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "onlinesim_chaos", buf.Bytes())
}

// TestGoldenFamily pins the regret comparison on a workload-family scenario,
// the -family axis of the scenario engine.
func TestGoldenFamily(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 40, 300, 4, 42, false, "flashcrowd", "", 600, "all", "zombiestack", "hp",
		false, 0, 0, 0, "", 42, false); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "onlinesim_family", buf.Bytes())
}

// TestTraceFlagStreams100kTasks is the huge-trace acceptance path: a
// 100k-task .csv.gz written by the family engine replays through the full
// online control plane via -trace. The importer's bounded-memory contract
// itself is pinned by the allocation regression test in internal/trace;
// here the point is the end-to-end wiring at scale.
func TestTraceFlagStreams100kTasks(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-task replay in -short mode")
	}
	tr, err := trace.GenerateFamily("serverless", trace.FamilyParams{
		Machines: 200, HorizonSec: 24 * 3600, Tasks: 100_000, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "huge.csv.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.EncodeCSV(f, true); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, 1, 1, 1, 42, false, "", path, 3600, "reactive", "neat", "hp",
		false, 0, 0, 0, "", 42, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "100000 tasks") {
		t.Fatalf("run did not report the full task count:\n%s", out)
	}
}

// TestFamilyTraceFlagErrors pins the mutual-exclusion and pass-through
// validation of the new trace-source flags.
func TestFamilyTraceFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 40, 300, 4, 42, false, "diurnal", "x.csv", 600, "all", "zombiestack", "hp",
		false, 0, 0, 0, "", 42, false); err == nil {
		t.Error("-family with -trace accepted")
	}
	if err := run(&buf, 40, 300, 4, 42, true, "diurnal", "", 600, "all", "zombiestack", "hp",
		false, 0, 0, 0, "", 42, false); err == nil {
		t.Error("-modified with -family accepted")
	}
	if err := run(&buf, 40, 300, 4, 42, false, "nope", "", 600, "all", "zombiestack", "hp",
		false, 0, 0, 0, "", 42, false); err == nil {
		t.Error("unknown family accepted")
	}
	if err := run(&buf, 40, 300, 4, 42, false, "", filepath.Join(t.TempDir(), "missing.csv"), 600,
		"all", "zombiestack", "hp", false, 0, 0, 0, "", 42, false); err == nil {
		t.Error("missing trace file accepted")
	}
}

// TestMachineNamesAcceptedByEveryFrontEnd: the three front ends that take a
// machine name — onlinesim -machine, the gateway's autopilot "machine" field
// and paperfigs -machine (Figure1) — resolve it through one lookup, so each
// accepts both spellings of both profiles.
func TestMachineNamesAcceptedByEveryFrontEnd(t *testing.T) {
	srv := gateway.New(gateway.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	for _, name := range []string{"hp", "HP", "dell", "Dell"} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, 10, 60, 1, 7, false, "", "", 600, "reactive", "zombiestack", name,
				false, 0, 0, 0, "", 42, false); err != nil {
				t.Errorf("onlinesim -machine %s: %v", name, err)
			}
			if _, err := zombieland.Figure1(name, 3); err != nil {
				t.Errorf("paperfigs -machine %s: %v", name, err)
			}

			status, body := post("/v1/fleets", `{}`)
			var fleet struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(body, &fleet); status != http.StatusCreated || err != nil {
				t.Fatalf("create fleet = %d %s", status, body)
			}
			status, body = post("/v1/fleets/"+fleet.ID+"/autopilot",
				`{"machines":10,"tasks":60,"hours":1,"tick_sec":600,"machine":"`+name+`"}`)
			if status != http.StatusAccepted {
				t.Fatalf("gateway machine %q = %d %s, want 202", name, status, body)
			}
			// Drain the event stream so the run finishes before teardown.
			resp, err := http.Get(ts.URL + "/v1/fleets/" + fleet.ID + "/autopilot/events")
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		})
	}
}

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
	"repro/internal/golden"
	"repro/internal/trace"
)

// runArgs runs the tool on a command line, writing the report to out.
func runArgs(out io.Writer, args ...string) error {
	fs := flag.NewFlagSet("onlinesim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sp, opt, err := parseFlags(fs, args)
	if err != nil {
		return err
	}
	return run(out, sp, opt)
}

// smallArgs is the fleet the goldens run on: 40 machines, 300 tasks, four
// hours, a 600 s tick.
var smallArgs = []string{"-machines", "40", "-tasks", "300", "-hours", "4", "-tick", "600"}

// runGolden runs the small fleet with extra flags and returns the report.
func runGolden(t *testing.T, extra ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := runArgs(&buf, append(append([]string{}, smallArgs...), extra...)...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenRegretComparison pins the three-policy regret comparison on a
// small fixed-seed trace.
func TestGoldenRegretComparison(t *testing.T) {
	golden.Check(t, "onlinesim", runGolden(t))
}

// TestGoldenObsDump pins the -obs dump for a single-policy chaos run: the
// schedule emission, the loop's sim-time-stamped events and the metrics
// snapshot are all deterministic, so the whole report is golden-testable.
func TestGoldenObsDump(t *testing.T) {
	out := runGolden(t, "-policy", "hysteresis", "-chaos", "heavy", "-obs")
	i := bytes.Index(out, []byte("--- obs metrics ---"))
	if i < 0 {
		t.Fatal("no obs dump in -obs output")
	}
	golden.Check(t, "onlinesim_obs", out[i:])
}

// TestGoldenChaosAxis pins the chaos severity sweep (off/light/heavy) for
// one policy — the resilience table format and its numbers.
func TestGoldenChaosAxis(t *testing.T) {
	golden.Check(t, "onlinesim_chaos", runGolden(t, "-policy", "hysteresis", "-chaos", "all"))
}

// TestGoldenFamily pins the regret comparison on a workload-family scenario,
// the -family axis of the scenario engine.
func TestGoldenFamily(t *testing.T) {
	golden.Check(t, "onlinesim_family", runGolden(t, "-family", "flashcrowd"))
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
	if err := runArgs(&buf, "-machines", "1", "-tasks", "1", "-hours", "1", "-trace", path,
		"-tick", "3600", "-policy", "reactive", "-planner", "neat"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "100000 tasks") {
		t.Fatalf("run did not report the full task count:\n%s", out)
	}
}

// TestFamilyTraceFlagErrors pins the mutual-exclusion and pass-through
// validation of the trace-source flags.
func TestFamilyTraceFlagErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-family", "diurnal", "-trace", "x.csv"}, "family and file are mutually exclusive"},
		{[]string{"-modified", "-family", "diurnal"}, "modified applies to the built-in generator only; drop it with family or file"},
		{[]string{"-modified", "-trace", "x.csv"}, "modified applies to the built-in generator only; drop it with family or file"},
		{[]string{"-family", "nope"}, `family: trace: unknown family "nope"`},
		{[]string{"-trace", filepath.Join(t.TempDir(), "missing.csv")}, "no such file"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		err := runArgs(&buf, append(append([]string{}, smallArgs...), c.args...)...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("onlinesim %v = %v, want %q", c.args, err, c.want)
		}
		if buf.Len() != 0 {
			t.Errorf("onlinesim %v printed a report before failing:\n%s", c.args, buf.Bytes())
		}
	}
}

// gatewayClient starts an in-process gateway with one fleet and returns a
// poster for that fleet's routes.
func gatewayClient(t *testing.T) func(route, body string) (int, []byte) {
	srv := gateway.New(gateway.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
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
	status, body := post("/v1/fleets", `{}`)
	var fleet struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &fleet); status != http.StatusCreated || err != nil {
		t.Fatalf("create fleet = %d %s", status, body)
	}
	return func(route, body string) (int, []byte) {
		t.Helper()
		status, b := post("/v1/fleets/"+fleet.ID+route, body)
		if route == "/autopilot" && status == http.StatusAccepted {
			// Drain the event stream so the run finishes before teardown.
			resp, err := http.Get(ts.URL + "/v1/fleets/" + fleet.ID + "/autopilot/events")
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return status, b
	}
}

// TestMachineNamesAcceptedByEveryFrontEnd: the three front ends that take a
// machine name — onlinesim -machine, the gateway's autopilot "machine" field
// and paperfigs -machine (Figure1) — resolve it through one lookup, so each
// accepts both spellings of both profiles.
func TestMachineNamesAcceptedByEveryFrontEnd(t *testing.T) {
	post := gatewayClient(t)
	for _, name := range []string{"hp", "HP", "dell", "Dell"} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := runArgs(&buf, "-machines", "10", "-tasks", "60", "-hours", "1", "-seed", "7",
				"-tick", "600", "-policy", "reactive", "-machine", name); err != nil {
				t.Errorf("onlinesim -machine %s: %v", name, err)
			}
			if _, err := zombieland.Figure1(name, 3); err != nil {
				t.Errorf("paperfigs -machine %s: %v", name, err)
			}
			status, body := post("/autopilot",
				`{"machines":10,"tasks":60,"horizon_sec":3600,"tick_sec":600,"machine":"`+name+`"}`)
			if status != http.StatusAccepted {
				t.Fatalf("gateway machine %q = %d %s, want 202", name, status, body)
			}
		})
	}
}

// TestBadSpecsRejectedByEveryFrontEnd feeds the same bad run spec through
// onlinesim's flags and through the gateway's autopilot body: both decode
// into one autopilot.Spec and fail its one shape check, so each field gets
// the same message, naming its JSON key, from either front end.
func TestBadSpecsRejectedByEveryFrontEnd(t *testing.T) {
	post := gatewayClient(t)
	cases := []struct {
		args []string
		body string
		want string
	}{
		{[]string{"-machines", "0"}, `{"machines":0}`, "machines 0 out of range (need >= 1)"},
		{[]string{"-tasks", "0"}, `{"tasks":0}`, "tasks 0 out of range (need >= 1)"},
		{[]string{"-tick", "0"}, `{"tick_sec":0}`, "tick_sec 0 out of range (need >= 1)"},
		{[]string{"-hours", "0.0001"}, `{"horizon_sec":0}`, "horizon_sec 0 out of range (need >= 1)"},
		{[]string{"-hours", "-1"}, `{"horizon_sec":-3600}`, "horizon_sec -3600 out of range (need >= 1)"},
		{[]string{"-family", "diurnal", "-trace", "x.csv"}, `{"family":"diurnal","file":"x.csv"}`,
			"family and file are mutually exclusive"},
		{[]string{"-modified", "-family", "diurnal"}, `{"modified":true,"family":"diurnal"}`,
			"modified applies to the built-in generator only; drop it with family or file"},
		{[]string{"-family", "nope"}, `{"family":"nope"}`,
			`family: trace: unknown family "nope" (valid: diurnal, flashcrowd, serverless, mlbatch, heavytail, mix)`},
		{[]string{"-planner", "bogus"}, `{"planner":"bogus"}`, `planner: consolidation: unknown policy "bogus"`},
		{[]string{"-policy", "psychic"}, `{"policy":"psychic"}`,
			`policy: autopilot: unknown policy "psychic" (valid: reactive, hysteresis, ewma)`},
		{[]string{"-machine", "toaster"}, `{"machine":"toaster"}`,
			`machine: energy: unknown machine "toaster" (valid: HP, Dell)`},
	}
	for _, c := range cases {
		t.Run(c.want, func(t *testing.T) {
			var buf bytes.Buffer
			if err := runArgs(&buf, c.args...); err == nil || err.Error() != c.want {
				t.Errorf("onlinesim %v = %v, want %q", c.args, err, c.want)
			}
			if buf.Len() != 0 {
				t.Errorf("onlinesim %v printed a report before failing:\n%s", c.args, buf.Bytes())
			}
			status, body := post("/autopilot", c.body)
			var resp struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &resp); err != nil || status != http.StatusBadRequest || resp.Error != c.want {
				t.Errorf("POST autopilot %s = %d %s, want 400 %q", c.body, status, body, c.want)
			}
		})
	}
}

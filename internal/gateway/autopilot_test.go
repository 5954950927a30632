package gateway

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/autopilot"
	"repro/internal/chaos"
)

// smallRun is a fleet-shaped autopilot request that finishes in well under a
// second — the test runs wait for its done line, so keep it tiny.
const smallRun = `{"machines":10,"tasks":60,"horizon_sec":3600,"seed":7,"tick_sec":600}`

// TestAutopilotHandlers is the table for the autopilot-facing routes (chaos,
// autopilot start, events, report): validation failures, unknown fleets,
// method mismatches and the happy start path.
func TestAutopilotHandlers(t *testing.T) {
	const token = "secret"
	_, ts := newTestGateway(t, Config{Token: token})
	fleetID := createFleet(t, ts.URL, token, `{}`)

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
		wantIn []string
	}{
		{"chaos happy", http.MethodPost, "/v1/fleets/" + fleetID + "/chaos",
			`{"scenario":"heavy","seed":3}`, http.StatusOK,
			[]string{`"scenario": "heavy"`, `"seed": 3`, `"crashes"`, `"total"`}},
		{"chaos default scenario", http.MethodPost, "/v1/fleets/" + fleetID + "/chaos",
			`{}`, http.StatusOK, []string{`"scenario": "light"`}},
		{"chaos unknown scenario", http.MethodPost, "/v1/fleets/" + fleetID + "/chaos",
			`{"scenario":"apocalypse"}`, http.StatusBadRequest, []string{"apocalypse"}},
		{"chaos malformed JSON", http.MethodPost, "/v1/fleets/" + fleetID + "/chaos",
			`{"seed":}`, http.StatusBadRequest, []string{"malformed JSON body"}},
		{"chaos unknown fleet", http.MethodPost, "/v1/fleets/nope/chaos",
			`{}`, http.StatusNotFound, []string{"unknown fleet"}},
		{"chaos bad shape", http.MethodPost, "/v1/fleets/" + fleetID + "/chaos",
			`{"machines":0}`, http.StatusBadRequest, []string{"machines 0 out of range"}},
		{"chaos too many machines", http.MethodPost, "/v1/fleets/" + fleetID + "/chaos",
			`{"machines":10001}`, http.StatusBadRequest, []string{"machines 10001 out of range", "1..10000"}},
		{"chaos horizon past a week", http.MethodPost, "/v1/fleets/" + fleetID + "/chaos",
			`{"horizon_sec":604801}`, http.StatusBadRequest, []string{"horizon_sec 604801 out of range", "1..604800"}},

		{"autopilot bad policy", http.MethodPost, "/v1/fleets/" + fleetID + "/autopilot",
			`{"policy":"psychic"}`, http.StatusBadRequest, []string{"unknown policy", "psychic", "hysteresis"}},
		{"autopilot bad planner", http.MethodPost, "/v1/fleets/" + fleetID + "/autopilot",
			`{"planner":"bogus"}`, http.StatusBadRequest, []string{"bogus"}},
		{"autopilot bad machine", http.MethodPost, "/v1/fleets/" + fleetID + "/autopilot",
			`{"machine":"toaster"}`, http.StatusBadRequest, []string{"unknown machine", "toaster", "HP, Dell"}},
		{"autopilot bad hours", http.MethodPost, "/v1/fleets/" + fleetID + "/autopilot",
			`{"horizon_sec":-1}`, http.StatusBadRequest, []string{"horizon_sec -1 out of range"}},
		{"autopilot too many machines", http.MethodPost, "/v1/fleets/" + fleetID + "/autopilot",
			`{"machines":10001}`, http.StatusBadRequest, []string{"machines 10001 out of range", "1..10000"}},
		{"autopilot too many tasks", http.MethodPost, "/v1/fleets/" + fleetID + "/autopilot",
			`{"tasks":100001}`, http.StatusBadRequest, []string{"tasks 100001 out of range", "1..100000"}},
		{"autopilot hours past a week", http.MethodPost, "/v1/fleets/" + fleetID + "/autopilot",
			`{"horizon_sec":604801}`, http.StatusBadRequest, []string{"horizon_sec 604801 out of range (need 1..604800)"}},
		{"autopilot too many ticks", http.MethodPost, "/v1/fleets/" + fleetID + "/autopilot",
			`{"horizon_sec":100800,"tick_sec":1}`, http.StatusBadRequest, []string{"100800 ticks", "at most 100000"}},
		{"autopilot bad tick", http.MethodPost, "/v1/fleets/" + fleetID + "/autopilot",
			`{"tick_sec":0}`, http.StatusBadRequest, []string{"tick_sec 0 out of range"}},
		{"autopilot unknown fleet", http.MethodPost, "/v1/fleets/nope/autopilot",
			`{}`, http.StatusNotFound, []string{"unknown fleet"}},
		{"autopilot method not allowed", http.MethodGet, "/v1/fleets/" + fleetID + "/autopilot",
			"", http.StatusMethodNotAllowed, nil},

		{"events before any run", http.MethodGet, "/v1/fleets/" + fleetID + "/autopilot/events",
			"", http.StatusNotFound, []string{"no autopilot run"}},
		{"events unknown fleet", http.MethodGet, "/v1/fleets/nope/autopilot/events",
			"", http.StatusNotFound, []string{"unknown fleet"}},
		{"report unknown fleet", http.MethodGet, "/v1/fleets/nope/report",
			"", http.StatusNotFound, []string{"unknown fleet"}},
		{"report method not allowed", http.MethodPost, "/v1/fleets/" + fleetID + "/report",
			"{}", http.StatusMethodNotAllowed, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, body := doJSON(t, c.method, ts.URL+c.path, token, c.body)
			if status != c.want {
				t.Fatalf("status = %d, want %d (body %s)", status, c.want, body)
			}
			for _, sub := range c.wantIn {
				if !strings.Contains(body, sub) {
					t.Errorf("body missing %q:\n%s", sub, body)
				}
			}
		})
	}
}

// streamEvents GETs the NDJSON event stream and returns the decoded lines;
// the stream ends at the terminal done/error line, so a plain read-to-EOF is
// the synchronisation point for "the run finished".
func streamEvents(t *testing.T, base, token, fleetID string) []map[string]any {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/fleets/"+fleetID+"/autopilot/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events Content-Type = %q, want application/x-ndjson", ct)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestAutopilotRunAndEvents runs a fault-free loop end to end: start, stream
// the whole NDJSON telemetry, check the tick lines and the terminal regret
// summary, then scrape the same numbers from the report endpoint.
func TestAutopilotRunAndEvents(t *testing.T) {
	const token = "secret"
	_, ts := newTestGateway(t, Config{Token: token})
	fleetID := createFleet(t, ts.URL, token, `{}`)

	status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/fleets/"+fleetID+"/autopilot", token, smallRun)
	if status != http.StatusAccepted || !strings.Contains(body, `"status": "started"`) {
		t.Fatalf("start = %d %s, want 202 started", status, body)
	}
	if !strings.Contains(body, `"chaos": false`) {
		t.Fatalf("fault-free start flagged chaotic: %s", body)
	}

	lines := streamEvents(t, ts.URL, token, fleetID)
	if len(lines) < 2 {
		t.Fatalf("stream produced %d lines, want ticks + done", len(lines))
	}
	last := lines[len(lines)-1]
	if last["type"] != "done" {
		t.Fatalf("terminal line = %v, want type done", last)
	}
	if _, ok := last["regret_percent"]; !ok {
		t.Fatalf("done line missing regret_percent: %v", last)
	}
	ticks := lines[:len(lines)-1]
	for i, l := range ticks {
		if l["type"] != "tick" {
			t.Fatalf("line %d type = %v, want tick", i, l["type"])
		}
	}
	// Tick telemetry is ordered and monotone in at_sec.
	prev := -1.0
	for i, l := range ticks {
		at := l["at_sec"].(float64)
		if at <= prev {
			t.Fatalf("tick %d at_sec %v not increasing (prev %v)", i, at, prev)
		}
		prev = at
	}
	if len(ticks) < 3 {
		t.Fatalf("got %d ticks for a 1h/600s run, want several", len(ticks))
	}
	// Every subscriber replays the full buffered run: a second stream sees
	// the identical sequence.
	again := streamEvents(t, ts.URL, token, fleetID)
	if len(again) != len(lines) {
		t.Fatalf("replay stream %d lines, want %d", len(again), len(lines))
	}

	// The report agrees with the stream's terminal line.
	status, body = doJSON(t, http.MethodGet, ts.URL+"/v1/fleets/"+fleetID+"/report", token, "")
	if status != http.StatusOK {
		t.Fatalf("report status = %d", status)
	}
	var rep struct {
		Autopilot struct {
			Running       bool    `json:"running"`
			Policy        string  `json:"policy"`
			Ticks         int     `json:"ticks"`
			RegretPercent float64 `json:"regret_percent"`
		} `json:"autopilot"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("report body: %v\n%s", err, body)
	}
	if rep.Autopilot.Running {
		t.Fatal("report says running after the stream's done line")
	}
	if rep.Autopilot.Policy != "hysteresis" || rep.Autopilot.Ticks != len(ticks) {
		t.Fatalf("report autopilot = %+v, want hysteresis over the stream's %d ticks", rep.Autopilot, len(ticks))
	}
	if rep.Autopilot.RegretPercent != last["regret_percent"].(float64) {
		t.Fatalf("report regret %v != stream regret %v", rep.Autopilot.RegretPercent, last["regret_percent"])
	}
}

// TestAutopilotChaosRun arms a scenario, runs under it, and checks the
// terminal line and report switch to the resilience summary.
func TestAutopilotChaosRun(t *testing.T) {
	const token = "secret"
	_, ts := newTestGateway(t, Config{Token: token})
	fleetID := createFleet(t, ts.URL, token, `{}`)

	status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/fleets/"+fleetID+"/chaos", token, `{"scenario":"light","seed":11}`)
	if status != http.StatusOK {
		t.Fatalf("chaos = %d %s", status, body)
	}
	status, body = doJSON(t, http.MethodPost, ts.URL+"/v1/fleets/"+fleetID+"/autopilot", token, smallRun)
	if status != http.StatusAccepted || !strings.Contains(body, `"chaos": true`) {
		t.Fatalf("chaotic start = %d %s, want 202 with chaos true", status, body)
	}

	lines := streamEvents(t, ts.URL, token, fleetID)
	last := lines[len(lines)-1]
	if last["type"] != "done" || last["scenario"] != "light" {
		t.Fatalf("chaotic done line = %v, want scenario light", last)
	}
	if _, ok := last["savings_retained_percent"]; !ok {
		t.Fatalf("chaotic done line missing savings_retained_percent: %v", last)
	}

	status, body = doJSON(t, http.MethodGet, ts.URL+"/v1/fleets/"+fleetID+"/report", token, "")
	if status != http.StatusOK || !strings.Contains(body, `"chaos"`) || !strings.Contains(body, `"scenario": "light"`) {
		t.Fatalf("chaotic report = %d %s, want chaos block", status, body)
	}
}

// TestAutopilotSpecCaps pins admit's serving caps through HTTP: each cap is
// accepted and each cap+1 refused, and so is the file source. A run is
// planted as in progress, so an admitted spec answers 409 after its trace is
// built instead of starting a loop.
func TestAutopilotSpecCaps(t *testing.T) {
	const token = "secret"
	srv, ts := newTestGateway(t, Config{Token: token})
	fleetID := createFleet(t, ts.URL, token, `{}`)
	sess, _ := srv.Manager().Get(fleetID)
	sess.mu.Lock()
	sess.run = newAutopilotRun("hysteresis", "zombiestack", false)
	sess.mu.Unlock()

	cases := []struct {
		body string
		want string // empty: admitted
	}{
		{`{"machines":10000,"tasks":10}`, ""},
		{`{"machines":10001}`, "machines 10001 out of range (need 1..10000)"},
		{`{"machines":10,"tasks":100000,"horizon_sec":3600}`, ""},
		{`{"tasks":100001}`, "tasks 100001 out of range (need 1..100000)"},
		{`{"machines":10,"tasks":10,"horizon_sec":604800}`, ""},
		{`{"horizon_sec":604801}`, "horizon_sec 604801 out of range (need 1..604800)"},
		{`{"machines":10,"tasks":10,"horizon_sec":100000,"tick_sec":1}`, ""},
		{`{"horizon_sec":100001,"tick_sec":1}`, "horizon_sec 100001 at tick_sec 1 is 100001 ticks (need at most 100000)"},
		{`{"horizon_sec":200001,"tick_sec":2}`, "horizon_sec 200001 at tick_sec 2 is 100001 ticks (need at most 100000)"},
		{`{"family":"flashcrowd","machines":10,"tasks":60,"horizon_sec":3600}`, ""},
		{`{"file":"/etc/passwd"}`, "file is not served over HTTP (use family or the built-in generator)"},
		{`{"hours":1}`, `malformed JSON body: json: unknown field "hours"`},
	}
	for _, c := range cases {
		status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/fleets/"+fleetID+"/autopilot", token, c.body)
		if c.want == "" {
			if status != http.StatusConflict {
				t.Errorf("%s = %d %s, want 409 (admitted, run in progress)", c.body, status, body)
			}
			continue
		}
		var resp struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &resp); err != nil || status != http.StatusBadRequest || resp.Error != c.want {
			t.Errorf("%s = %d %s, want 400 %q", c.body, status, body, c.want)
		}
	}
	// The chaos body's machines and horizon_sec pass the same caps.
	for body, want := range map[string]int{
		`{"machines":10000}`: http.StatusOK, `{"machines":10001}`: http.StatusBadRequest,
		`{"horizon_sec":604800}`: http.StatusOK, `{"horizon_sec":604801}`: http.StatusBadRequest,
	} {
		if status, got := doJSON(t, http.MethodPost, ts.URL+"/v1/fleets/"+fleetID+"/chaos", token, body); status != want {
			t.Errorf("chaos %s = %d %s, want %d", body, status, got, want)
		}
	}
}

// TestAutopilotConflict pins the 409: while a run is marked in progress, a
// second start is rejected. The run is planted directly (in-package) so the
// test never races a real loop's completion.
func TestAutopilotConflict(t *testing.T) {
	const token = "secret"
	srv, ts := newTestGateway(t, Config{Token: token})
	fleetID := createFleet(t, ts.URL, token, `{}`)

	sess, ok := srv.Manager().Get(fleetID)
	if !ok {
		t.Fatal("created session not resolvable")
	}
	stuck := newAutopilotRun("hysteresis", "zombiestack", false)
	sess.mu.Lock()
	sess.run = stuck
	sess.mu.Unlock()

	status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/fleets/"+fleetID+"/autopilot", token, smallRun)
	if status != http.StatusConflict || !strings.Contains(body, "already in progress") {
		t.Fatalf("second start = %d %s, want 409", status, body)
	}
	// Finishing the stuck run clears the conflict.
	stuck.finish(autopilot.Report{}, chaos.Report{}, nil)
	status, body = doJSON(t, http.MethodPost, ts.URL+"/v1/fleets/"+fleetID+"/autopilot", token, smallRun)
	if status != http.StatusAccepted {
		t.Fatalf("start after finish = %d %s, want 202", status, body)
	}
	streamEvents(t, ts.URL, token, fleetID) // drain so the goroutine finishes before teardown
}

// TestAutopilotEventsCancel pins the subscriber-side cancel: a client that
// goes away mid-stream does not wedge the run or the server.
func TestAutopilotEventsCancel(t *testing.T) {
	const token = "secret"
	srv, ts := newTestGateway(t, Config{Token: token})
	fleetID := createFleet(t, ts.URL, token, `{}`)

	sess, _ := srv.Manager().Get(fleetID)
	run := newAutopilotRun("hysteresis", "zombiestack", false)
	sess.mu.Lock()
	sess.run = run // never finishes — the subscriber must leave on its own
	sess.mu.Unlock()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/fleets/"+fleetID+"/autopilot/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	client := &http.Client{Timeout: 300 * time.Millisecond}
	resp, err := client.Do(req)
	if err == nil {
		// The header came back before the timeout; the body read must bail.
		buf := make([]byte, 1)
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if _, err = resp.Body.Read(buf); err != nil {
				break
			}
		}
		resp.Body.Close()
		if err == nil {
			t.Fatal("stream kept serving an unfinished run past the client timeout")
		}
	}
	// The server is still healthy after the abandoned subscriber.
	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", "", ""); status != http.StatusOK {
		t.Fatalf("healthz after cancelled stream = %d", status)
	}
}

// TestAutopilotWireBytes pins the exact bytes of one NDJSON tick line and of
// the chaos response's faults object: their keys, key order and number
// formatting are the wire contract, whichever Go types render them.
func TestAutopilotWireBytes(t *testing.T) {
	const token = "secret"
	_, ts := newTestGateway(t, Config{Token: token})
	fleetID := createFleet(t, ts.URL, token, `{}`)

	status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/fleets/"+fleetID+"/chaos", token, `{"scenario":"light","seed":11}`)
	if status != http.StatusOK {
		t.Fatalf("chaos = %d %s", status, body)
	}
	const wantChaos = `{
  "scenario": "light",
  "seed": 11,
  "faults": {
    "crashes": 2,
    "wake_failures": 3,
    "controller_losses": 1,
    "fabric_degradations": 1,
    "trace_bursts": 1,
    "total": 8
  }
}
`
	if body != wantChaos {
		t.Errorf("chaos response bytes:\n%s\nwant:\n%s", body, wantChaos)
	}

	// A fresh fleet has no chaos armed, so its run is the fault-free loop.
	fleetID = createFleet(t, ts.URL, token, `{}`)
	if status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/fleets/"+fleetID+"/autopilot", token, smallRun); status != http.StatusAccepted {
		t.Fatalf("start = %d %s", status, body)
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/fleets/"+fleetID+"/autopilot/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	first, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	const wantTick = `{"type":"tick","at_sec":600,"tick":1,"active_hosts":4,"zombie_hosts":1,"memory_servers":0,"sleep_hosts":5,"remote_gib":4.514763689352378,"running":7,"arrivals":15,"admitted":15,"rejected":0,"emergency_wakes":0,"energy_j":425342.9609645446,"baseline_j":423296.4925746485}` + "\n"
	if first != wantTick {
		t.Errorf("first tick line:\n%q\nwant:\n%q", first, wantTick)
	}
}

package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// newTestGateway spins a full gateway (middleware stack included) on an
// httptest server. The caller owns both returned closers via t.Cleanup.
func newTestGateway(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// doJSON issues one request and returns the status and body.
func doJSON(t *testing.T, method, url, token, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// createFleet creates a session and returns its ID.
func createFleet(t *testing.T, base, token, body string) string {
	t.Helper()
	status, got := doJSON(t, http.MethodPost, base+"/v1/fleets", token, body)
	if status != http.StatusCreated {
		t.Fatalf("create fleet: status %d, body %s", status, got)
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(got), &resp); err != nil || resp.ID == "" {
		t.Fatalf("create fleet: bad body %s (err %v)", got, err)
	}
	return resp.ID
}

// TestFleetHandlers is the table for the fleet-facing routes (create, list,
// delete, vms, workloads): method-not-allowed, malformed JSON, unknown
// fleet, auth failure, validation errors and the happy paths with body
// assertions.
func TestFleetHandlers(t *testing.T) {
	const token = "secret"
	_, ts := newTestGateway(t, Config{Token: token})
	// A pre-made fleet with a zombie lender and one placed VM for the
	// workload cases: 2 active servers with 2 GiB free each, a 2 GiB remote
	// pool. The seed VM fills server-00, so the happy cases land on
	// server-01 and the split case overflows into the remote pool.
	fleetID := createFleet(t, ts.URL, token, `{"racks":1,"servers":3,"mem_gib":3,"workers":1,"zombies_per_rack":1}`)
	status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/fleets/"+fleetID+"/vms", token, `{"count":1,"gib":2,"vcpus":1}`)
	if status != http.StatusOK || !strings.Contains(body, `"placed": 1`) {
		t.Fatalf("seed placement failed: status %d, body %s", status, body)
	}

	cases := []struct {
		name   string
		method string
		path   string
		token  string
		body   string
		want   int
		wantIn []string // substrings the response body must contain
	}{
		{"create happy", http.MethodPost, "/v1/fleets", token,
			`{"racks":2,"servers":4,"mem_gib":2,"workers":2,"zombies_per_rack":1}`,
			http.StatusCreated, []string{`"racks": 2`, `"servers": 4`, `"zombies": 2`, `"id": "f-`}},
		{"create defaults on empty body", http.MethodPost, "/v1/fleets", token,
			`{}`, http.StatusCreated, []string{`"racks": 2`, `"servers": 4`, `"zombies": 0`}},
		{"create malformed JSON", http.MethodPost, "/v1/fleets", token,
			`{"racks": `, http.StatusBadRequest, []string{"malformed JSON body"}},
		// The 1 MiB cap falls inside the string: cut there the body would parse
		// as malformed, so the answer must come from the size, not the decoder.
		{"create oversized body", http.MethodPost, "/v1/fleets", token,
			`{"racks":2,"pad":"` + strings.Repeat("x", 1<<20) + `"}`,
			http.StatusRequestEntityTooLarge, []string{"request body exceeds 1048576 bytes"}},
		{"create unknown field", http.MethodPost, "/v1/fleets", token,
			`{"rackz":2}`, http.StatusBadRequest, []string{"malformed JSON body", "rackz"}},
		{"create bad racks", http.MethodPost, "/v1/fleets", token,
			`{"racks":0}`, http.StatusBadRequest, []string{"racks 0 out of range"}},
		// racks*servers wraps to 0 here, so only per-field bounds catch it.
		{"create overflowing product", http.MethodPost, "/v1/fleets", token,
			`{"racks":2147483648,"servers":8589934592}`, http.StatusBadRequest, []string{"racks 2147483648 out of range (need 1..256)"}},
		{"create servers beyond cap", http.MethodPost, "/v1/fleets", token,
			`{"racks":1,"servers":8589934592}`, http.StatusBadRequest, []string{"servers 8589934592 out of range (need 1..256)"}},
		// 1<<34 GiB shifts to 0 bytes in a uint64.
		{"create mem_gib wraps", http.MethodPost, "/v1/fleets", token,
			`{"mem_gib":17179869184}`, http.StatusBadRequest, []string{"mem_gib 17179869184 out of range (need 1..1024)"}},
		{"create mem_gib beyond cap", http.MethodPost, "/v1/fleets", token,
			`{"mem_gib":1025}`, http.StatusBadRequest, []string{"mem_gib 1025 out of range"}},
		{"create bad mem_gib", http.MethodPost, "/v1/fleets", token,
			`{"mem_gib":0}`, http.StatusBadRequest, []string{"mem_gib 0 out of range"}},
		{"create workers beyond cap", http.MethodPost, "/v1/fleets", token,
			`{"workers":1000000}`, http.StatusBadRequest, []string{"workers 1000000 out of range (need 1..256)"}},
		{"create bad workers", http.MethodPost, "/v1/fleets", token,
			`{"workers":-1}`, http.StatusBadRequest, []string{"workers -1 out of range"}},
		{"create zombies eat the rack", http.MethodPost, "/v1/fleets", token,
			`{"servers":2,"zombies_per_rack":2}`, http.StatusBadRequest, []string{"zombies_per_rack 2 must leave an active server"}},
		{"create beyond server cap", http.MethodPost, "/v1/fleets", token,
			`{"racks":100,"servers":100}`, http.StatusBadRequest, []string{"exceeds the gateway cap"}},
		{"create method not allowed", http.MethodPut, "/v1/fleets", token,
			`{}`, http.StatusMethodNotAllowed, nil},
		{"create auth missing", http.MethodPost, "/v1/fleets", "",
			`{}`, http.StatusUnauthorized, []string{"bearer token"}},
		{"create auth wrong", http.MethodPost, "/v1/fleets", "wrong",
			`{}`, http.StatusUnauthorized, []string{"bearer token"}},

		{"list happy", http.MethodGet, "/v1/fleets", token,
			"", http.StatusOK, []string{`"fleets"`, `"id": "` + fleetID + `"`}},
		{"list auth", http.MethodGet, "/v1/fleets", "",
			"", http.StatusUnauthorized, nil},

		{"vms happy", http.MethodPost, "/v1/fleets/" + fleetID + "/vms", token,
			`{"count":2,"gib":0.5,"vcpus":1}`, http.StatusOK, []string{`"placed": 2`, `"local_gib": 0.5`, `"host"`}},
		{"vms remote split", http.MethodPost, "/v1/fleets/" + fleetID + "/vms", token,
			`{"count":1,"gib":2,"vcpus":1}`, http.StatusOK, []string{`"placed": 1`, `"remote_gib": 1`}},
		{"vms unknown fleet", http.MethodPost, "/v1/fleets/nope/vms", token,
			`{"count":1,"gib":1}`, http.StatusNotFound, []string{"unknown fleet", "nope"}},
		{"vms malformed JSON", http.MethodPost, "/v1/fleets/" + fleetID + "/vms", token,
			`[]`, http.StatusBadRequest, []string{"malformed JSON body"}},
		{"vms bad count", http.MethodPost, "/v1/fleets/" + fleetID + "/vms", token,
			`{"count":0,"gib":1}`, http.StatusBadRequest, []string{"count 0 out of range"}},
		// The count sizes the spec slice before any placement runs.
		{"vms count beyond cap", http.MethodPost, "/v1/fleets/" + fleetID + "/vms", token,
			`{"count":4097,"gib":1}`, http.StatusBadRequest, []string{"count 4097 out of range (need 1..4096)"}},
		{"vms bad gib", http.MethodPost, "/v1/fleets/" + fleetID + "/vms", token,
			`{"count":1,"gib":-1}`, http.StatusBadRequest, []string{"gib -1 out of range"}},
		{"vms bad vcpus", http.MethodPost, "/v1/fleets/" + fleetID + "/vms", token,
			`{"count":1,"gib":1,"vcpus":0}`, http.StatusBadRequest, []string{"vcpus 0 out of range"}},
		{"vms method not allowed", http.MethodGet, "/v1/fleets/" + fleetID + "/vms", token,
			"", http.StatusMethodNotAllowed, nil},

		{"workloads happy paging", http.MethodPost, "/v1/fleets/" + fleetID + "/workloads", token,
			`{"items":[{"vm":"` + fleetID + `-vm-0","kind":"micro-benchmark","iterations":1,"seed":7}]}`,
			http.StatusOK, []string{`"accesses"`, `"kind": "micro-benchmark"`}},
		// vm-3 is the remote-split VM: a 16 MiB span covers its whole scaled
		// address space, and spark-sql's weak locality touches far more cold
		// pages than the local arena holds, so the data plane must cross into
		// zombie buffers.
		{"workloads happy data plane", http.MethodPost, "/v1/fleets/" + fleetID + "/workloads", token,
			`{"items":[{"vm":"` + fleetID + `-vm-3","kind":"spark-sql","iterations":2,"seed":7,"data_mib":16}]}`,
			http.StatusOK, []string{`"kind": "spark-sql"`, `"local_ops"`, `"remote_ops"`, `"remote_kib"`, `"charged_ms"`}},
		// 2^43 MiB shifts to MinInt64 bytes; both used to run a paging replay
		// and answer 200.
		{"workloads data_mib overflow", http.MethodPost, "/v1/fleets/" + fleetID + "/workloads", token,
			`{"items":[{"vm":"` + fleetID + `-vm-0","kind":"micro-benchmark"},{"vm":"` + fleetID + `-vm-0","kind":"data-caching","data_mib":8796093022208}]}`,
			http.StatusBadRequest, []string{"items[1]: data_mib out of range"}},
		{"workloads data_mib negative", http.MethodPost, "/v1/fleets/" + fleetID + "/workloads", token,
			`{"items":[{"vm":"` + fleetID + `-vm-0","kind":"data-caching","data_mib":-1}]}`,
			http.StatusBadRequest, []string{"items[0]: data_mib out of range"}},
		{"workloads iterations beyond cap", http.MethodPost, "/v1/fleets/" + fleetID + "/workloads", token,
			`{"items":[{"vm":"` + fleetID + `-vm-0","kind":"micro-benchmark"},{"vm":"` + fleetID + `-vm-0","kind":"micro-benchmark","iterations":1001}]}`,
			http.StatusBadRequest, []string{"items[1]: iterations 1001 out of range (need at most 1000)"}},
		{"workloads unknown vm", http.MethodPost, "/v1/fleets/" + fleetID + "/workloads", token,
			`{"items":[{"vm":"ghost","kind":"micro-benchmark"}]}`,
			http.StatusOK, []string{`"error"`, "ghost"}},
		{"workloads unknown kind", http.MethodPost, "/v1/fleets/" + fleetID + "/workloads", token,
			`{"items":[{"vm":"x","kind":"bogus"}]}`,
			http.StatusBadRequest, []string{"unknown workload", "bogus", "micro-benchmark"}},
		{"workloads empty items", http.MethodPost, "/v1/fleets/" + fleetID + "/workloads", token,
			`{"items":[]}`, http.StatusBadRequest, []string{"items is empty"}},
		{"workloads unknown fleet", http.MethodPost, "/v1/fleets/nope/workloads", token,
			`{"items":[{"vm":"x","kind":"micro-benchmark"}]}`,
			http.StatusNotFound, []string{"unknown fleet"}},

		{"delete unknown fleet", http.MethodDelete, "/v1/fleets/nope", token,
			"", http.StatusNotFound, []string{"unknown fleet"}},
		{"healthz no auth needed", http.MethodGet, "/healthz", "",
			"", http.StatusOK, []string{`"status": "ok"`}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, body := doJSON(t, c.method, ts.URL+c.path, c.token, c.body)
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

	// Delete last: the happy path drains the session.
	if status, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/fleets/"+fleetID, token, ""); status != http.StatusNoContent {
		t.Fatalf("delete status = %d, want 204", status)
	}
	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/fleets/"+fleetID+"/report", token, ""); status != http.StatusNotFound {
		t.Fatalf("report after delete = %d, want 404", status)
	}
}

// TestServingSessionKeepsHeapFlat holds one warm session (the shape the
// serve_steady benchmark uses: a zombie lender and two VMs with a remote share)
// and serves it paging requests that keep faulting pages to and from the
// zombie. A daemon's session lives for days, so whatever a request retains is
// a leak: the live heap after a GC must be as large at the end as at the
// half-way point, give or take the zombie pages the second half touched first
// (tens of KiB; one retained completion per remote page op was 2 MiB).
func TestServingSessionKeepsHeapFlat(t *testing.T) {
	_, ts := newTestGateway(t, Config{})
	id := createFleet(t, ts.URL, "", `{"racks":1,"servers":3,"mem_gib":2,"workers":1,"zombies_per_rack":1}`)
	status, body := doJSON(t, http.MethodPost, ts.URL+"/v1/fleets/"+id+"/vms", "", `{"count":2,"gib":1.5,"vcpus":1}`)
	if status != http.StatusOK || strings.Contains(body, `"remote_gib": 0,`) {
		t.Fatalf("placement without a remote share: status %d, body %s", status, body)
	}
	seed := 0
	serve := func(requests int) uint64 {
		for i := 0; i < requests; i++ {
			seed++ // a fresh access stream each time, so the VMs keep faulting
			req := fmt.Sprintf(`{"items":[{"vm":"%s-vm-%d","kind":"micro-benchmark","iterations":1,"seed":%d}]}`, id, i%2, seed)
			status, body = doJSON(t, http.MethodPost, ts.URL+"/v1/fleets/"+id+"/workloads", "", req)
			if status != http.StatusOK || strings.Contains(body, `"error"`) {
				t.Fatalf("request %d: status %d, body %s", i, status, body)
			}
		}
		if !strings.Contains(body, `"major_faults"`) {
			t.Fatalf("no page went to the zombie, the test would prove nothing: %s", body)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const requests = 200
	half := serve(requests / 2)
	end := serve(requests / 2)
	t.Logf("HeapAlloc after %d requests %d KiB, after %d %d KiB", requests/2, half>>10, requests, end>>10)
	if end > half+512<<10 {
		t.Errorf("live heap grew %d KiB over %d paging requests on one session (%d -> %d KiB)", (end-half)>>10, requests/2, half>>10, end>>10)
	}
}

// TestGatewayQuota pins the 429 path: a 2-requests-per-window tenant budget
// admits two calls and rejects the third with Retry-After, and the window
// rolling over (fake clock) re-admits.
func TestGatewayQuota(t *testing.T) {
	const token = "secret"
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	_, ts := newTestGateway(t, Config{Token: token, QuotaLimit: 2, QuotaWindow: time.Second, now: now})

	for i := 0; i < 2; i++ {
		if status, body := doJSON(t, http.MethodGet, ts.URL+"/v1/fleets", token, ""); status != http.StatusOK {
			t.Fatalf("request %d status = %d, body %s", i, status, body)
		}
	}
	status, body := doJSON(t, http.MethodGet, ts.URL+"/v1/fleets", token, "")
	if status != http.StatusTooManyRequests || !strings.Contains(body, "tenant quota exceeded") {
		t.Fatalf("third request = %d %s, want 429 quota exceeded", status, body)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/fleets", nil)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After header (status %d)", resp.StatusCode)
	}
	// Healthz is never rate limited.
	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", "", ""); status != http.StatusOK {
		t.Fatalf("healthz rate-limited: %d", status)
	}
	// Roll the window: the tenant's budget resets.
	clock = clock.Add(time.Second)
	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/fleets", token, ""); status != http.StatusOK {
		t.Fatalf("post-rollover request = %d, want 200", status)
	}
}

// TestGatewayRecovery pins the panic middleware: a handler panic surfaces as
// a 500 JSON error, and the server keeps serving.
func TestGatewayRecovery(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	boom := http.NewServeMux()
	boom.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	ts := httptest.NewServer(chain(boom, withRecovery(slog.New(slog.DiscardHandler))))
	defer ts.Close()

	status, body := doJSON(t, http.MethodGet, ts.URL+"/boom", "", "")
	if status != http.StatusInternalServerError || !strings.Contains(body, "kaboom") {
		t.Fatalf("panic = %d %s, want 500 kaboom", status, body)
	}
	if status, _ = doJSON(t, http.MethodGet, ts.URL+"/boom", "", ""); status != http.StatusInternalServerError {
		t.Fatalf("server died after first panic: %d", status)
	}
}

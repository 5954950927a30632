package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/gateway"
)

// Route classes of the serving workloads, indexing gatewayRoutes.
const (
	routeReport = iota
	routePaging
	routeData
	routeCreate
	routePlace
	routeDelete
	numRoutes
)

// The mux patterns /metrics labels each route class with.
var routePattern = [numRoutes]string{
	"GET /v1/fleets/{id}/report",
	"POST /v1/fleets/{id}/workloads",
	"POST /v1/fleets/{id}/workloads",
	"POST /v1/fleets",
	"POST /v1/fleets/{id}/vms",
	"DELETE /v1/fleets/{id}",
}

const (
	// spanHeader carries "<span id>.<req id>" from the client's roundtrip span
	// to the timing handler, which is how spans nest across the loopback socket.
	spanHeader = "X-Bench-Span"

	// The session both serving workloads use: one rack of three 2 GiB servers,
	// the last one a zombie lending 1 GiB, and two 1.5 GiB VMs that each need a
	// remote share. Until ROADMAP item 1 lands every lent GiB is real heap, so
	// the session is the smallest one that still reaches a zombie.
	sessionCreateBody = `{"racks":1,"servers":3,"mem_gib":2,"workers":1,"zombies_per_rack":1}`
	sessionPlaceBody  = `{"count":2,"gib":1.5,"vcpus":1}`
	sessionVMs        = 2
	steadyDataMiB     = 4
)

// gwHarness is an in-process fleetd: gateway.New behind a loopback
// http.Server, plus the pooled client the load comes from.
type gwHarness struct {
	gw     *gateway.Server
	srv    *http.Server
	served sync.WaitGroup
	base   string
	client *http.Client
	tr     *tracer
}

func startGateway(e *env) (*gwHarness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &gwHarness{
		gw:   gateway.New(gateway.Config{MaxSessions: 64}),
		base: "http://" + ln.Addr().String(),
		tr:   e.tr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: e.clients + 1, MaxIdleConnsPerHost: e.clients + 1,
		}},
	}
	handler := h.gw.Handler()
	if e.tr != nil {
		handler = timingHandler(e.tr, handler)
	}
	h.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	h.served.Add(1)
	go func() {
		defer h.served.Done()
		_ = h.srv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return h, nil
}

func (h *gwHarness) close() {
	h.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		_ = h.srv.Close()
	}
	h.served.Wait()
	h.gw.Close()
}

// timingHandler opens the gateway's span under the client's roundtrip span
// named in the request header. Both are named after the route class the
// client declared, since the mux pattern is not known until the handler
// returns: net/<route> (client roundtrip) contains gateway/<route> (handler).
func timingHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, name := parseSpanHeader(r.Header.Get(spanHeader))
		sp := tr.child(parent, layerGateway, name)
		next.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// parseSpanHeader decodes "<id>.<req>.<route>".
func parseSpanHeader(v string) (spanRef, string) {
	parts := strings.SplitN(v, ".", 3)
	if len(parts) != 3 {
		return noSpan, ""
	}
	id, err1 := strconv.ParseInt(parts[0], 10, 32)
	req, err2 := strconv.ParseInt(parts[1], 10, 32)
	if err1 != nil || err2 != nil {
		return noSpan, ""
	}
	return spanRef{id: int32(id), req: int32(req)}, parts[2]
}

// call is one prepared request: everything but the http.Request itself is
// built before the window.
type call struct {
	route  int
	method string
	url    string
	body   []byte
}

func (h *gwHarness) newRequest(c call) (*http.Request, error) {
	var body io.Reader
	if c.body != nil {
		body = bytes.NewReader(c.body)
	}
	return http.NewRequest(c.method, c.url, body)
}

// do issues one call under an optional parent span and returns the response
// body. Anything but a 2xx, and any result carrying an "error" field (the
// gateway omits the field when empty), is an error.
func (h *gwHarness) do(c call, parent spanRef, scratch *bytes.Buffer) error {
	req, err := h.newRequest(c)
	if err != nil {
		return err
	}
	sp := h.tr.child(parent, layerNet, gatewayRoutes[c.route])
	if sp.id >= 0 {
		req.Header.Set(spanHeader, fmt.Sprintf("%d.%d.%s", sp.id, sp.req, gatewayRoutes[c.route]))
	}
	resp, err := h.client.Do(req)
	if err != nil {
		h.tr.end(sp)
		return err
	}
	scratch.Reset()
	_, err = scratch.ReadFrom(resp.Body)
	resp.Body.Close()
	h.tr.end(sp)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: status %d: %s", c.method, c.url, resp.StatusCode, bytes.TrimSpace(scratch.Bytes()))
	}
	if bytes.Contains(scratch.Bytes(), []byte(`"error"`)) {
		return fmt.Errorf("%s %s: result carries an error: %s", c.method, c.url, bytes.TrimSpace(scratch.Bytes()))
	}
	return nil
}

// session is one client's warm fleet.
type session struct {
	id  string
	vms []string
}

// createSession creates a fleet and places VMs on it; every VM must place
// with a remote share, or the data class would never reach a zombie.
func (h *gwHarness) createSession(issued *[numRoutes]int, scratch *bytes.Buffer, parent spanRef) (session, error) {
	issued[routeCreate]++
	if err := h.do(call{routeCreate, http.MethodPost, h.base + "/v1/fleets", []byte(sessionCreateBody)}, parent, scratch); err != nil {
		return session{}, err
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(scratch.Bytes(), &created); err != nil || created.ID == "" {
		return session{}, fmt.Errorf("create fleet: bad response %q (%v)", scratch.String(), err)
	}
	s := session{id: created.ID}
	issued[routePlace]++
	if err := h.do(call{routePlace, http.MethodPost, h.base + "/v1/fleets/" + s.id + "/vms", []byte(sessionPlaceBody)}, parent, scratch); err != nil {
		return session{}, err
	}
	var placed struct {
		Placements []struct {
			VM        string  `json:"vm"`
			RemoteGiB float64 `json:"remote_gib"`
		} `json:"placements"`
	}
	if err := json.Unmarshal(scratch.Bytes(), &placed); err != nil {
		return session{}, fmt.Errorf("place VMs: bad response: %w", err)
	}
	for _, p := range placed.Placements {
		if p.RemoteGiB <= 0 {
			return session{}, fmt.Errorf("place VMs: %s placed with no remote share", p.VM)
		}
		s.vms = append(s.vms, p.VM)
	}
	if len(s.vms) != sessionVMs {
		return session{}, fmt.Errorf("place VMs: %d placed, want %d", len(s.vms), sessionVMs)
	}
	return s, nil
}

// workloadBody renders one single-item workloads request.
func workloadBody(vm string, seed int64, dataMiB int) []byte {
	if dataMiB > 0 {
		return []byte(fmt.Sprintf(`{"items":[{"vm":%q,"kind":"data-caching","iterations":1,"seed":%d,"data_mib":%d}]}`, vm, seed, dataMiB))
	}
	return []byte(fmt.Sprintf(`{"items":[{"vm":%q,"kind":"micro-benchmark","iterations":1,"seed":%d}]}`, vm, seed))
}

// metricsCounts scrapes GET /metrics and returns the per-route request
// counters, summed over 2xx statuses; any other status is returned in bad.
func (h *gwHarness) metricsCounts() (counts map[string]int, bad int, err error) {
	resp, err := h.client.Get(h.base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	counts = make(map[string]int)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, `fleetd_http_requests_total{route="`)
		if !ok {
			continue
		}
		route, rest, ok := strings.Cut(rest, `",status="`)
		if !ok {
			continue
		}
		status, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil {
			return nil, 0, fmt.Errorf("metrics line %q: %w", line, err)
		}
		if strings.HasPrefix(status, "2") {
			counts[route] += n
		} else {
			bad += n
		}
	}
	return counts, bad, sc.Err()
}

// checkMetrics compares the scraped per-route counters with what the clients
// issued; every mismatch is one failed check.
func (h *gwHarness) checkMetrics(issued [numRoutes]int) (failed int, notes map[string]any, err error) {
	counts, bad, err := h.metricsCounts()
	if err != nil {
		return 0, nil, err
	}
	want := make(map[string]int)
	for r, n := range issued {
		want[routePattern[r]] += n
	}
	notes = map[string]any{"metrics_non_2xx": bad}
	failed = bad
	for route, n := range want {
		if counts[route] != n {
			failed++
			notes["metrics_mismatch "+route] = fmt.Sprintf("issued %d, /metrics %d", n, counts[route])
		}
	}
	return failed, notes, nil
}

// serveSteady: nproc closed-loop clients, one warm session each, drawing
// from a seeded 60/25/15 report/paging/data schedule.
type serveSteady struct {
	h        *gwHarness
	sched    [][]call // per client, cycled
	scratch  []bytes.Buffer
	issued   [][numRoutes]int // per client, set-up and warm-up included
	warmedUp []int
}

const steadySchedLen = 4096

// steadySchedule draws n calls against one session: 80 % report (the
// gateway+HTTP path, ~60 us), 12 % a paging micro-benchmark (fleet, core,
// hypervisor, ~0.9 ms), 8 % a 4 MiB data-caching replay (memplane down to
// rdma, ~1.8 ms). The median op then sits well inside the report class (at
// its 62nd percentile, clear of the tail a concurrent heavy request causes)
// while about three fifths of the wall time is spent below the gateway.
func steadySchedule(rng *rand.Rand, base string, sess session, n int) []call {
	reportURL := base + "/v1/fleets/" + sess.id + "/report"
	wlURL := base + "/v1/fleets/" + sess.id + "/workloads"
	sched := make([]call, n)
	for i := range sched {
		vm := sess.vms[rng.Intn(len(sess.vms))]
		seed := rng.Int63n(1000) + 1
		switch p := rng.Intn(100); {
		case p < 80:
			sched[i] = call{routeReport, http.MethodGet, reportURL, nil}
		case p < 92:
			sched[i] = call{routePaging, http.MethodPost, wlURL, workloadBody(vm, seed, 0)}
		default:
			sched[i] = call{routeData, http.MethodPost, wlURL, workloadBody(vm, seed, steadyDataMiB)}
		}
	}
	return sched
}

func setupServeSteady(e *env) (instance, error) {
	h, err := startGateway(e)
	if err != nil {
		return nil, err
	}
	s := &serveSteady{
		h:        h,
		sched:    make([][]call, e.clients),
		scratch:  make([]bytes.Buffer, e.clients),
		issued:   make([][numRoutes]int, e.clients),
		warmedUp: make([]int, e.clients),
	}
	for c := 0; c < e.clients; c++ {
		sess, err := h.createSession(&s.issued[c], &s.scratch[c], noSpan)
		if err != nil {
			h.close()
			return nil, fmt.Errorf("client %d: %w", c, err)
		}
		s.sched[c] = steadySchedule(rand.New(rand.NewSource(e.seed+int64(c)*7919)), h.base, sess, steadySchedLen)
	}
	// Warm-up: connections, the data planes of every VM, the paging contexts.
	warm := e.scaled(1000, 20)
	var wg sync.WaitGroup
	errs := make([]error, e.clients)
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < warm; i++ {
				if _, err := s.op(c, i, noSpan); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			h.close()
			return nil, fmt.Errorf("warm-up client %d: %w", c, err)
		}
		s.warmedUp[c] = warm
	}
	return s, nil
}

func (s *serveSteady) clients() int      { return len(s.sched) }
func (s *serveSteady) classes() []string { return gatewayRoutes[:routeCreate] }
func (s *serveSteady) start() []int      { return s.warmedUp }

func (s *serveSteady) op(c, i int, sp spanRef) (int, error) {
	call := s.sched[c][i%steadySchedLen]
	s.issued[c][call.route]++
	return call.route, s.h.do(call, sp, &s.scratch[c])
}

func (s *serveSteady) gen(c, i int) {
	_, _ = s.h.newRequest(s.sched[c][i%steadySchedLen])
}

func (s *serveSteady) verify() (int, map[string]any, error) {
	var total [numRoutes]int
	for c := range s.issued {
		for r, n := range s.issued[c] {
			total[r] += n
		}
	}
	return s.h.checkMetrics(total)
}

func (s *serveSteady) close() { s.h.close() }

// sessionChurn: one client, whole session lifecycles.
type sessionChurn struct {
	h       *gwHarness
	scratch bytes.Buffer
	issued  [numRoutes]int
	seeds   []int64
	warm    int
}

func setupSessionChurn(e *env) (instance, error) {
	h, err := startGateway(e)
	if err != nil {
		return nil, err
	}
	s := &sessionChurn{h: h, seeds: make([]int64, 256)}
	rng := rand.New(rand.NewSource(e.seed))
	for i := range s.seeds {
		s.seeds[i] = rng.Int63n(1000) + 1
	}
	s.warm = e.scaled(3, 1)
	for i := 0; i < s.warm; i++ {
		if _, err := s.op(0, i, noSpan); err != nil {
			h.close()
			return nil, fmt.Errorf("warm-up lifecycle %d: %w", i, err)
		}
	}
	return s, nil
}

func (s *sessionChurn) clients() int      { return 1 }
func (s *sessionChurn) classes() []string { return []string{"lifecycle"} }
func (s *sessionChurn) start() []int      { return []int{s.warm} }

// op is one lifecycle: create, place, one paging workload, report, delete.
func (s *sessionChurn) op(c, i int, sp spanRef) (int, error) {
	sess, err := s.h.createSession(&s.issued, &s.scratch, sp)
	if err != nil {
		return 0, err
	}
	base := s.h.base + "/v1/fleets/" + sess.id
	s.issued[routePaging]++
	if err := s.h.do(call{routePaging, http.MethodPost, base + "/workloads", workloadBody(sess.vms[i%2], s.seeds[i%len(s.seeds)], 0)}, sp, &s.scratch); err != nil {
		return 0, err
	}
	s.issued[routeReport]++
	if err := s.h.do(call{routeReport, http.MethodGet, base + "/report", nil}, sp, &s.scratch); err != nil {
		return 0, err
	}
	s.issued[routeDelete]++
	return 0, s.h.do(call{routeDelete, http.MethodDelete, base, nil}, sp, &s.scratch)
}

// gen: the lifecycle's requests depend on the session ID the create returns,
// so the generator's share is rendering one workload body.
func (s *sessionChurn) gen(c, i int) {
	_ = workloadBody("f-0-vm-0", s.seeds[i%len(s.seeds)], 0)
}

func (s *sessionChurn) verify() (int, map[string]any, error) {
	failed, notes, err := s.h.checkMetrics(s.issued)
	if err != nil {
		return failed, notes, err
	}
	if n := s.h.gw.Manager().Len(); n != 0 {
		failed++
		notes["registry_not_empty"] = n
	}
	return failed, notes, nil
}

func (s *sessionChurn) close() { s.h.close() }

// Command fleetload is the gateway load generator (loadgen.go): N concurrent
// clients × M requests against a fleetd target from a seeded mixed endpoint
// profile (create fleet → place/workloads/report traffic → delete fleet),
// reporting throughput and p50/p99/max latency. -out writes the report as
// JSON (schema v1); CI's gateway smoke uploads it as BENCH_gateway.json, an
// artifact that is never committed. Performance is measured by benchmark/,
// not here: this tool checks that a running fleetd serves and accounts for
// every request.
//
// Usage:
//
//	fleetload -inproc                           # hammer an in-process gateway
//	fleetload -target http://127.0.0.1:8870     # hammer a running fleetd
//	fleetload -clients 8 -requests 1250         # 10k requests total
//	fleetload -out BENCH_gateway.json -strict   # JSON report; fail on a failed create or any 5xx
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cliflag"
	"repro/internal/gateway"
	"repro/internal/metrics"
)

func main() {
	target := flag.String("target", "", "gateway base URL (empty requires -inproc)")
	inproc := flag.Bool("inproc", false, "spin up an in-process gateway and hammer it over loopback")
	clients := flag.Int("clients", 4, "concurrent load clients")
	requests := flag.Int("requests", 250, "requests per client (create and delete included)")
	token := flag.String("token", "", "bearer token to present")
	seed := flag.Int64("seed", 1, "endpoint-profile seed (client i draws from seed+i)")
	out := flag.String("out", "", "write the JSON report (schema v1) to this path")
	strict := flag.Bool("strict", false, "exit non-zero on any failed session create, transport error, 5xx response, or zero p99")
	flag.Parse()

	cfg := loadCfg{
		target: *target, inproc: *inproc, clients: *clients, requests: *requests,
		token: *token, seed: *seed, out: *out, strict: *strict,
	}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "fleetload:", err)
		os.Exit(1)
	}
}

// loadCfg is the parsed command line, and what runLoad reads its load shape
// from.
type loadCfg struct {
	// target is the gateway base URL ("http://127.0.0.1:8870"); with inproc
	// set, run fills it with the in-process gateway's loopback address.
	target string
	inproc bool
	// clients is the number of concurrent workers; requests the number of
	// requests each one issues (the session create/delete pair included).
	clients  int
	requests int
	// token is the bearer token to present; empty sends no Authorization.
	token string
	// seed drives each worker's endpoint choices (worker i draws from
	// seed+i), so a profile is reproducible.
	seed   int64
	out    string
	strict bool
	// now is the latency-clock seam; the golden test injects a stepping fake
	// so the percentile lines are byte-stable. nil means time.Now.
	now func() time.Time
}

func run(w io.Writer, cfg loadCfg) error {
	// Upfront flag validation with the valid ranges (shared helpers, the
	// same messages as fleetsim/onlinesim).
	if err := cliflag.FirstError(
		cliflag.PositiveInt("-clients", cfg.clients),
		cliflag.PositiveInt("-requests", cfg.requests),
	); err != nil {
		return err
	}
	if cfg.requests < 2 {
		return fmt.Errorf("-requests %d out of range (need >= 2: every client issues a create and a delete)", cfg.requests)
	}
	if (cfg.target == "") == !cfg.inproc {
		return fmt.Errorf("exactly one of -target and -inproc is required")
	}

	label := cfg.target
	if cfg.inproc {
		// An in-process gateway on a loopback listener: same serving path,
		// no external process to coordinate.
		srv := gateway.New(gateway.Config{Token: cfg.token})
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		defer hs.Close()
		cfg.target = "http://" + ln.Addr().String()
		label = "in-process gateway"
	}

	rep, err := runLoad(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Load: %s — %d clients x %d requests, seed %d.\n\n", label, cfg.clients, cfg.requests, cfg.seed)
	et := metrics.NewTable("Per-endpoint latency", "endpoint", "count", "errors", "5xx", "p50-ms", "p99-ms", "max-ms")
	for _, e := range rep.Endpoints {
		et.AddRow(e.Name,
			fmt.Sprintf("%d", e.Count), fmt.Sprintf("%d", e.Errors), fmt.Sprintf("%d", e.Server5xx),
			metrics.FormatFloat(e.P50Ms), metrics.FormatFloat(e.P99Ms), metrics.FormatFloat(e.MaxMs))
	}
	fmt.Fprintln(w, et.String())
	fmt.Fprintf(w, "Total: %d requests in %s ms (%s req/s), %d transport errors, %d 5xx, %d rate-limited.\n",
		rep.Total, metrics.FormatFloat(rep.ElapsedMs), metrics.FormatFloat(rep.ThroughputRPS), rep.Errors, rep.Server5xx, rep.RateLimited)
	fmt.Fprintf(w, "Latency: p50 %s ms, p99 %s ms, max %s ms.\n",
		metrics.FormatFloat(rep.P50Ms), metrics.FormatFloat(rep.P99Ms), metrics.FormatFloat(rep.MaxMs))

	if cfg.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "Wrote %s (schema %d).\n", cfg.out, rep.Schema)
	}

	if cfg.strict {
		failed := 0
		for _, n := range rep.failedCreates {
			failed += n
		}
		if failed > 0 {
			return fmt.Errorf("strict: %d of %d session creates yielded no fleet ID (count by status, 0 = transport error: %v)", failed, cfg.clients, rep.failedCreates)
		}
		if rep.Errors > 0 || rep.Server5xx > 0 {
			return fmt.Errorf("strict: %d transport errors, %d 5xx responses", rep.Errors, rep.Server5xx)
		}
		if rep.P99Ms <= 0 {
			return fmt.Errorf("strict: p99 latency is zero — the clock or the load path is broken")
		}
	}
	return nil
}

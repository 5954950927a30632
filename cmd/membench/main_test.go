package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"repro/internal/golden"
)

func benchCfg() benchConfig {
	return benchConfig{
		servers:   3,
		zombies:   2,
		memMiB:    64,
		localMiB:  1,
		spanMiB:   8,
		ops:       2000,
		block:     4096,
		writeFrac: 0.6,
		seed:      1,
		transport: "inproc",
	}
}

// TestGoldenMembench pins the default in-process report: the traffic mix,
// the local/remote split, the grant count, the charged time and the latency
// percentiles are all simulated, so the bytes are stable across machines.
func TestGoldenMembench(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, benchCfg()); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "membench", buf.Bytes())
}

// TestGoldenMembenchChaos pins the ledger transport under a fabric
// degradation window: same traffic counters as the in-process run (the
// differential invariant), but the middle third of the charges carry the
// 2.5x factor, which the p99 line exposes.
func TestGoldenMembenchChaos(t *testing.T) {
	cfg := benchCfg()
	cfg.transport = "ledger"
	cfg.chaosOn = true
	var buf bytes.Buffer
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "membench_chaos", buf.Bytes())
}

// TestGoldenMembenchObs pins the -obs dump on a short run (few enough ops
// that the whole event trace fits the ring): every event is stamped with the
// plane's charged-ns clock, so the dump is byte-stable across machines. The
// counters cover the benchmark traffic alone — the verification sweep runs
// after the dump is rendered.
func TestGoldenMembenchObs(t *testing.T) {
	cfg := benchCfg()
	cfg.ops = 320
	cfg.obsOn = true
	var buf bytes.Buffer
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(buf.Bytes(), []byte("--- obs metrics ---"))
	if i < 0 {
		t.Fatal("no obs dump in -obs output")
	}
	golden.Check(t, "membench_obs", buf.Bytes()[i:])
}

// TestMembenchObsTransportInvariant demands the obs dump be byte-identical
// between the in-process and loopback-TCP transports: the events carry only
// simulated charges and frame hosts, both of which the differential layer
// already pins to be transport-independent.
func TestMembenchObsTransportInvariant(t *testing.T) {
	dump := func(transport string) []byte {
		cfg := benchCfg()
		cfg.ops = 320
		cfg.obsOn = true
		cfg.transport = transport
		var buf bytes.Buffer
		if err := run(&buf, cfg); err != nil {
			t.Fatal(err)
		}
		i := bytes.Index(buf.Bytes(), []byte("--- obs metrics ---"))
		if i < 0 {
			t.Fatal("no obs dump in -obs output")
		}
		return buf.Bytes()[i:]
	}
	inproc := dump("inproc")
	if tcp := dump("tcp"); !bytes.Equal(inproc, tcp) {
		t.Errorf("obs dump drifted between transports:\n--- inproc ---\n%s\n--- tcp ---\n%s", inproc, tcp)
	}
}

// TestMembenchTCPMatchesInproc runs the loopback-TCP transport and demands
// the body of the report (everything below the header naming the transport)
// be byte-identical to the in-process run: same counters, same charges.
func TestMembenchTCPMatchesInproc(t *testing.T) {
	body := func(transport string) string {
		cfg := benchCfg()
		cfg.transport = transport
		var buf bytes.Buffer
		if err := run(&buf, cfg); err != nil {
			t.Fatal(err)
		}
		_, rest, ok := strings.Cut(buf.String(), "\n")
		if !ok {
			t.Fatalf("no header line in output: %q", buf.String())
		}
		// The grant-call count differs by design: TCP pre-seeds its buffers.
		return strings.ReplaceAll(rest, "(0 grant calls)", "(1 grant calls)")
	}
	inproc := body("inproc")
	tcp := body("tcp")
	if inproc != tcp {
		t.Errorf("tcp report drifted from inproc:\n--- inproc ---\n%s\n--- tcp ---\n%s", inproc, tcp)
	}
	if !strings.Contains(inproc, "read-back ok") {
		t.Errorf("verification failed:\n%s", inproc)
	}
}

// TestMembenchFlagErrors pins the upfront flag validation: each bad flag is
// rejected with its canonical message before any rack is built, and parsing
// prints nothing (no usage dump, no report).
func TestMembenchFlagErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-servers", "0"}, "-servers 0 out of range (need >= 1)"},
		{[]string{"-zombies", "-1"}, "-zombies -1 out of range (need >= 0)"},
		{[]string{"-mem-mib", "0"}, "-mem-mib 0 out of range (need >= 1)"},
		{[]string{"-local-mib", "-1"}, "-local-mib -1 out of range (need >= 0)"},
		{[]string{"-span-mib", "0"}, "-span-mib 0 out of range (need >= 1)"},
		{[]string{"-ops", "0"}, "-ops 0 out of range (need >= 1)"},
		{[]string{"-block", "-4096"}, "-block -4096 out of range (need >= 1)"},
		{[]string{"-zombies", "3"}, "-zombies 3 out of range (need < -servers 3)"},
		{[]string{"-block", "9000000"}, "-block 9000000 out of range (need <= -span-mib 8 MiB)"},
		{[]string{"-write-frac", "1.5"}, "-write-frac 1.5 out of range (need 0 <= f <= 1)"},
		{[]string{"-write-frac", "-0.1"}, "-write-frac -0.1 out of range (need 0 <= f <= 1)"},
		{[]string{"-write-frac", "NaN"}, "-write-frac NaN out of range (need 0 <= f <= 1)"},
		{[]string{"-transport", "rdma"}, `-transport "rdma" out of range (need inproc, tcp or ledger)`},
		{[]string{"-zombies", "-1", "-ops", "0"}, "-zombies -1 out of range (need >= 0)"},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("membench", flag.ContinueOnError)
		var out bytes.Buffer
		fs.SetOutput(&out)
		_, err := parseFlags(fs, c.args)
		if err == nil || err.Error() != c.want {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.want)
		}
		if out.Len() > 0 {
			t.Errorf("%v: parsing printed %q", c.args, out.String())
		}
	}
	fs := flag.NewFlagSet("membench", flag.ContinueOnError)
	cfg, err := parseFlags(fs, []string{"-ops", "2000", "-write-frac", "0"})
	if err != nil || cfg.ops != 2000 || cfg.writeFrac != 0 {
		t.Errorf("valid flags: cfg %+v, err %v", cfg, err)
	}
}

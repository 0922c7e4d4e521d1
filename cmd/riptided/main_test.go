package main

import (
	"net/netip"
	"os/exec"
	"strings"
	"testing"
)

func TestRunUnknownCombiner(t *testing.T) {
	if err := run([]string{"-combiner", "quantum"}); err == nil {
		t.Error("unknown combiner accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunRejectsNegativeFleetDurations: a negative gossip cadence or peer
// timeout fails at startup instead of leaving every peer pull to fail.
func TestRunRejectsNegativeFleetDurations(t *testing.T) {
	for _, args := range [][]string{
		{"-dry-run", "-run-for", "1s", "-peers", "127.0.0.1:1", "-gossip", "-gossip-interval", "-1s"},
		{"-dry-run", "-run-for", "1s", "-peers", "127.0.0.1:1", "-peer-timeout", "-1s"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run %q accepted", args)
		}
	}
}

func TestRunUnknownBackend(t *testing.T) {
	err := run([]string{"-backend", "quantum"})
	if err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("unknown backend accepted: %v", err)
	}
}

func TestRunNetlinkBackendDryRun(t *testing.T) {
	// Exercises the netlink sampler against the real kernel where possible;
	// on hosts without NETLINK_SOCK_DIAG access the probe failure is the
	// expected outcome and equally covers the selection path.
	err := run([]string{"-backend", "netlink", "-dry-run", "-run-for", "120ms", "-interval", "20ms"})
	if err != nil && !strings.Contains(err.Error(), "probe") {
		t.Fatalf("netlink dry-run daemon: %v", err)
	}
	if err != nil {
		t.Skipf("netlink unavailable here: %v", err)
	}
}

// logCapture satisfies the dry-run printer.
type logCapture struct{ lines []string }

func (l *logCapture) Printf(format string, args ...any) {
	l.lines = append(l.lines, format)
	_ = args
}

func TestDryRunRoutesPrintInsteadOfExecute(t *testing.T) {
	cap := &logCapture{}
	d := dryRunRoutes{out: cap}
	p := netip.MustParsePrefix("10.0.0.127/32")
	if err := d.SetInitCwnd(p, 80); err != nil {
		t.Fatal(err)
	}
	if err := d.ClearInitCwnd(p); err != nil {
		t.Fatal(err)
	}
	if len(cap.lines) != 2 {
		t.Fatalf("lines = %v", cap.lines)
	}
	if !strings.Contains(cap.lines[0], "DRY-RUN ip route replace") {
		t.Errorf("set line = %q", cap.lines[0])
	}
	if !strings.Contains(cap.lines[1], "DRY-RUN ip route del") {
		t.Errorf("del line = %q", cap.lines[1])
	}
}

func TestRunDryRunForDuration(t *testing.T) {
	if _, err := exec.LookPath("ss"); err != nil {
		t.Skipf("ss not available: %v", err)
	}
	err := run([]string{"-dry-run", "-run-for", "120ms", "-interval", "20ms", "-v"})
	if err != nil {
		t.Fatalf("dry-run daemon: %v", err)
	}
}

func TestRunWithStatusServer(t *testing.T) {
	if _, err := exec.LookPath("ss"); err != nil {
		t.Skipf("ss not available: %v", err)
	}
	err := run([]string{"-dry-run", "-run-for", "150ms", "-interval", "20ms",
		"-status", "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("daemon with status: %v", err)
	}
}

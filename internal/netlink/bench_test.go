package netlink_test

import (
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"riptide/internal/core"
	"riptide/internal/linux"
	"riptide/internal/netlink"
)

// benchSockets is the head-to-head sample size: a busy production host.
const benchSockets = 10_000

// syntheticObservations builds n observations over distinct IPv4 hosts
// with varied windows, RTTs and byte counts: a busy host's socket table.
func syntheticObservations(n int) []core.Observation {
	obs := make([]core.Observation, n)
	for i := range obs {
		obs[i] = core.Observation{
			Dst:        netip.AddrFrom4([4]byte{10, byte(i / 62500 % 250), byte(i / 250 % 250), byte(1 + i%250)}),
			Cwnd:       10 + i%90,
			RTT:        time.Duration(20+i%200) * time.Millisecond,
			BytesAcked: int64(i) * 1500,
		}
	}
	return obs
}

// catSSRunner forks `cat <fixture>` per sample, standing in for `ss -tin`
// with identical exec cost and deterministic output.
type catSSRunner struct {
	runner linux.ExecRunner
	path   string
}

func (c catSSRunner) Run(name string, args ...string) ([]byte, error) {
	return c.runner.Run("cat", c.path)
}

// trueIPRunner forks `true` in place of `ip -force -batch -`: full exec and
// stdin-pipe cost, no route mutation.
type trueIPRunner struct{ runner linux.ExecRunner }

func (r trueIPRunner) Run(name string, args ...string) ([]byte, error) {
	return r.runner.Run("true")
}

func (r trueIPRunner) RunInput(input []byte, name string, args ...string) ([]byte, error) {
	return r.runner.RunInput(input, "true")
}

func writeSSFixture(tb testing.TB, obs []core.Observation) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "ss.txt")
	if err := os.WriteFile(path, linux.RenderSS(obs), 0o644); err != nil {
		tb.Fatalf("write fixture: %v", err)
	}
	return path
}

// BenchmarkSamplerExecVsNetlink compares one full connection-table sample
// through each backend: the netlink sampler decoding canned INET_DIAG dumps
// from an in-memory conn, and the exec sampler really forking a process
// (`cat` over the equivalent ss text) per sample.
func BenchmarkSamplerExecVsNetlink(b *testing.B) {
	obs := syntheticObservations(benchSockets)

	b.Run("netlink", func(b *testing.B) {
		mem := &netlink.MemConn{Sockets: obs}
		s, err := netlink.NewSampler(netlink.SamplerConfig{Dial: mem.Dialer()})
		if err != nil {
			b.Fatalf("NewSampler: %v", err)
		}
		var buf []core.Observation
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf, err = s.SampleConnections(buf[:0])
			if err != nil {
				b.Fatalf("sample: %v", err)
			}
		}
	})

	b.Run("exec", func(b *testing.B) {
		if _, err := exec.LookPath("cat"); err != nil {
			b.Skip("cat not available")
		}
		s, err := linux.NewSampler(catSSRunner{path: writeSSFixture(b, obs)})
		if err != nil {
			b.Fatalf("NewSampler: %v", err)
		}
		var buf []core.Observation
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf, err = s.SampleConnections(buf[:0])
			if err != nil {
				b.Fatalf("sample: %v", err)
			}
		}
	})
}

// BenchmarkProgramExecVsNetlink compares programming a 1024-route batch:
// netlink message batches acked in-memory against the exec backend's
// batch-script render plus fork.
func BenchmarkProgramExecVsNetlink(b *testing.B) {
	const nOps = 1024
	ops := make([]core.RouteOp, nOps)
	for i := range ops {
		ops[i] = core.RouteOp{Prefix: prefix24(i), Window: 10 + i%90}
	}

	b.Run("netlink", func(b *testing.B) {
		mem := &netlink.MemConn{DiscardRoutes: true}
		cfg := netlink.RoutesConfig{Dial: mem.Dialer()}
		cfg.Gateway = "10.0.0.1"
		r, err := netlink.NewRoutes(cfg)
		if err != nil {
			b.Fatalf("NewRoutes: %v", err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if errs := r.ProgramRoutes(ops); errs != nil {
				b.Fatalf("program: %v", errs)
			}
		}
	})

	b.Run("exec", func(b *testing.B) {
		if _, err := exec.LookPath("true"); err != nil {
			b.Skip("true not available")
		}
		r, err := linux.NewRoutes(trueIPRunner{}, linux.RoutesConfig{Gateway: "10.0.0.1"})
		if err != nil {
			b.Fatalf("NewRoutes: %v", err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if errs := r.ProgramRoutes(ops); errs != nil {
				b.Fatalf("program: %v", errs)
			}
		}
	})
}

func prefix24(i int) (p netip.Prefix) {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i / 250), byte(i % 250), 0}), 24)
}

// TestSamplerAllocationAdvantage pins the acceptance bar: per 10k-socket
// sample, the netlink decoder must allocate at least 5x less than even the
// exec backend's parse step alone (its fork/exec and output-capture
// allocations excluded — the real gap is larger).
func TestSamplerAllocationAdvantage(t *testing.T) {
	obs := syntheticObservations(benchSockets)
	text := linux.RenderSS(obs)

	mem := &netlink.MemConn{Sockets: obs}
	s, err := netlink.NewSampler(netlink.SamplerConfig{Dial: mem.Dialer()})
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	var nlBuf []core.Observation
	netlinkAllocs := testing.AllocsPerRun(10, func() {
		var err error
		nlBuf, err = s.SampleConnections(nlBuf[:0])
		if err != nil {
			t.Fatalf("netlink sample: %v", err)
		}
	})

	var execBuf []core.Observation
	execAllocs := testing.AllocsPerRun(10, func() {
		var err error
		execBuf, err = linux.AppendParseSS(execBuf[:0], text)
		if err != nil {
			t.Fatalf("parse ss: %v", err)
		}
	})

	if len(nlBuf) != benchSockets || len(execBuf) != benchSockets {
		t.Fatalf("samples incomplete: netlink %d, exec %d", len(nlBuf), len(execBuf))
	}
	t.Logf("allocs per %d-socket sample: netlink=%.0f exec(parse only)=%.0f", benchSockets, netlinkAllocs, execAllocs)
	if netlinkAllocs*5 > execAllocs {
		t.Fatalf("netlink sampling allocates %.0f/sample, want at least 5x under exec's %.0f", netlinkAllocs, execAllocs)
	}
}

// Benchmark harness: one testing.B per table and figure in the paper's
// evaluation, plus the design-choice ablations from DESIGN.md. Each
// benchmark regenerates its artefact end to end and reports the headline
// metric the paper reads off it via b.ReportMetric, so `go test -bench=.`
// doubles as the reproduction report.
//
// Set RIPTIDE_BENCH_SCALE=full to run the full 34-PoP topology at the
// DefaultScale measurement length; the default quick scale keeps the whole
// suite in the low tens of seconds.
package riptide

import (
	"fmt"
	"io/fs"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"riptide/internal/experiments"
	"riptide/internal/kernel"
	"riptide/internal/scenario"
	"riptide/scenarios"
)

func benchScale() experiments.Scale {
	if os.Getenv("RIPTIDE_BENCH_SCALE") == "full" {
		return experiments.DefaultScale()
	}
	return experiments.QuickScale()
}

// noteMetric extracts the first number following a marker substring in a
// note, so benchmarks can re-report the experiment's headline figure.
func noteMetric(notes []string, marker string) (float64, bool) {
	for _, n := range notes {
		idx := strings.Index(n, marker)
		if idx < 0 {
			continue
		}
		rest := n[idx+len(marker):]
		var num strings.Builder
		for _, r := range rest {
			if (r >= '0' && r <= '9') || r == '.' || r == '-' || r == '+' {
				num.WriteRune(r)
				continue
			}
			if num.Len() > 0 {
				break
			}
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(num.String(), "+"), 64)
		if err == nil {
			return v, true
		}
	}
	return 0, false
}

func BenchmarkFig2FileSizeCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2FileSizes(1, 100000)
		if err != nil {
			b.Fatal(err)
		}
		if v, ok := noteMetric(r.Notes, ""); ok && i == b.N-1 {
			b.ReportMetric(v, "%files>IW10")
		}
	}
}

func BenchmarkFig3RTTsCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3RTTsCDF(1, 100000)
		if err != nil {
			b.Fatal(err)
		}
		if v, ok := noteMetric(r.Notes, "IW50 completes "); ok && i == b.N-1 {
			b.ReportMetric(v, "%more-1RTT@IW50")
		}
	}
}

func BenchmarkFig4TheoreticalGain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4TheoreticalGain(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5RTTDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5RTTDistribution(nil)
		if err != nil {
			b.Fatal(err)
		}
		if v, ok := noteMetric(r.Notes, "median inter-PoP RTT "); ok && i == b.N-1 {
			b.ReportMetric(v, "median-rtt-ms")
		}
	}
}

func BenchmarkFig6TransferTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6TransferTime(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2PoPCensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table2Census(nil)
		if len(r.Tables) != 1 {
			b.Fatal("census produced no table")
		}
	}
}

func BenchmarkFig10CwndByCmax(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10CwndByCmax(s)
		if err != nil {
			b.Fatal(err)
		}
		if v, ok := noteMetric(r.Notes, "c_max=100 "); ok && i == b.N-1 {
			b.ReportMetric(v, "median-cwnd@cmax100")
		}
	}
}

func BenchmarkFig11TrafficProfile(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11TrafficProfiles(s); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkProbeCompletion(b *testing.B, fig int) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.ProbeCompletionFigure(fig, s)
		if err != nil {
			b.Fatal(err)
		}
		if v, ok := noteMetric(r.Notes, "buckets improved"); ok {
			_ = v // presence-checked; per-bucket gains are in the notes
		}
		if i == b.N-1 {
			improved, total := bucketsImproved(r.Notes)
			if total > 0 {
				b.ReportMetric(float64(improved), "buckets-improved")
			}
		}
	}
}

func bucketsImproved(notes []string) (improved, total int) {
	for _, n := range notes {
		var i, t int
		if _, err := fmt.Sscanf(n, "%d/%d RTT buckets improved", &i, &t); err == nil {
			return i, t
		}
	}
	return 0, 0
}

func BenchmarkFig12Probe10K(b *testing.B)  { benchmarkProbeCompletion(b, 12) }
func BenchmarkFig13Probe50K(b *testing.B)  { benchmarkProbeCompletion(b, 13) }
func BenchmarkFig14Probe100K(b *testing.B) { benchmarkProbeCompletion(b, 14) }

func benchmarkGainByPercentile(b *testing.B, fig int) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.GainByPercentileFigure(fig, s)
		if err != nil {
			b.Fatal(err)
		}
		if v, ok := noteMetric(r.Notes, "peak percentile gain "); ok && i == b.N-1 {
			b.ReportMetric(v, "%peak-gain")
		}
	}
}

func BenchmarkFig15GainByPercentile50K(b *testing.B)  { benchmarkGainByPercentile(b, 15) }
func BenchmarkFig16GainByPercentile100K(b *testing.B) { benchmarkGainByPercentile(b, 16) }

func BenchmarkEdgeCases(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.EdgeCases(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeadlineCwndIncrease(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Headline(s)
		if err != nil {
			b.Fatal(err)
		}
		if v, ok := noteMetric(r.Notes, "riptide "); ok && i == b.N-1 {
			b.ReportMetric(v, "median-cwnd-riptide")
		}
	}
}

func BenchmarkAblationCombiners(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCombiners(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationHistory(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationHistory(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGranularity(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationGranularity(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTTL(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationTTL(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationUpdateInterval(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationUpdateInterval(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAgentTick measures the cost of one Riptide poll round over a
// synthetic 1000-connection observed table — the agent's steady-state
// overhead on a busy production host. Kept at its historical shape
// (default shard count, per-op route programming) so the series stays
// comparable across PRs.
func BenchmarkAgentTick(b *testing.B) {
	const conns = 1000
	sampler, routes, clock := newSyntheticBackend(conns, false)
	agent, err := New(Config{Sampler: sampler, Routes: routes, Clock: clock})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = agent.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agent.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(conns), "conns/tick")
}

// benchmarkAgentTickSeries is the hot-path scaling series: serial (one
// shard) versus sharded planning, crossed with the tick's processing
// modes — full rescan (every state replanned each round), delta steady
// state (identical observation stream), and delta with ~1% window churn —
// all over the batched route-programming surface at a fixed observed-table
// size.
func benchmarkAgentTickSeries(b *testing.B, conns int) {
	for _, sv := range []struct {
		name   string
		shards int
	}{
		{"serial", 1},
		{"sharded", 8},
	} {
		for _, mode := range []struct {
			name       string
			fullRescan bool
			churnFrac  int
		}{
			{"full", true, 0},
			{"delta-steady", false, 0},
			{"delta-churn1pct", false, 100},
		} {
			b.Run(sv.name+"/"+mode.name, func(b *testing.B) {
				sampler, routes, clock := newModeBackend(conns, mode.churnFrac)
				agent, err := New(Config{
					Sampler:    sampler,
					Routes:     routes,
					Clock:      clock,
					Shards:     sv.shards,
					FullRescan: mode.fullRescan,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer func() { _ = agent.Close() }()
				// One warmup tick so pools and learned entries reach
				// steady state before timing.
				if err := agent.Tick(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := agent.Tick(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkAgentTick1k(b *testing.B)   { benchmarkAgentTickSeries(b, 1_000) }
func BenchmarkAgentTick10k(b *testing.B)  { benchmarkAgentTickSeries(b, 10_000) }
func BenchmarkAgentTick100k(b *testing.B) { benchmarkAgentTickSeries(b, 100_000) }

// BenchmarkAgentTick1M is the acceptance point for the delta tick: a
// million-destination table at steady state and under churn. The full
// rescan points at this size take hundreds of milliseconds each, so the
// whole series sits behind -short.
func BenchmarkAgentTick1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-destination series skipped in -short mode")
	}
	benchmarkAgentTickSeries(b, 1_000_000)
}

// TestShardedTickNotSlowerThanSerial is the bench-smoke gate for the
// parallel plan stage: with real cores available, sharding the full-rescan
// plan work across 8 shards must not lose to a single shard. On fewer than
// 4 cores the comparison measures lock traffic, not parallelism, so the
// test skips — exactly the configuration the perf harness now refuses to
// label "parallel".
func TestShardedTickNotSlowerThanSerial(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d: parallel plan stage needs >=4 cores to beat serial", runtime.GOMAXPROCS(0))
	}
	if testing.Short() {
		t.Skip("bench smoke skipped in -short mode")
	}
	const conns = 100_000
	tick := func(shards int) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			sampler, routes, clock := newModeBackend(conns, 0)
			agent, err := New(Config{
				Sampler:    sampler,
				Routes:     routes,
				Clock:      clock,
				Shards:     shards,
				FullRescan: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = agent.Close() }()
			if err := agent.Tick(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := agent.Tick(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	serial := tick(1)
	sharded := tick(8)
	if sharded.NsPerOp() > serial.NsPerOp() {
		t.Errorf("shards=8 tick %v slower than shards=1 %v at GOMAXPROCS=%d",
			time.Duration(sharded.NsPerOp()), time.Duration(serial.NsPerOp()), runtime.GOMAXPROCS(0))
	}
}

// BenchmarkBatchProgram compares per-op route installation against the
// batched ApplyRoutes path on the simulated kernel — the cost model behind
// the agent's BatchRouteProgrammer fast path.
func BenchmarkBatchProgram(b *testing.B) {
	const ops = 1024
	host, err := kernel.NewHost(netip.MustParseAddr("10.0.0.1"))
	if err != nil {
		b.Fatal(err)
	}
	routes := make([]kernel.Route, ops)
	updates := make([]kernel.RouteUpdate, ops)
	for i := range routes {
		routes[i] = kernel.Route{
			Prefix:   netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i / 250), byte(i % 250), 0}), 24),
			InitCwnd: 10 + i%90,
			Proto:    "static",
		}
		updates[i] = kernel.RouteUpdate{Route: routes[i]}
	}
	b.Run("individual", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range routes {
				if err := host.AddRoute(r); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if errs := host.ApplyRoutes(updates); errs != nil {
				b.Fatal(errs)
			}
		}
	})
}

func BenchmarkExtensionTrendReaction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtensionTrendReaction(int64(i) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionAdvisorShift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtensionAdvisorShift(int64(i) + 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioLibrary times one Spec.Run (main run, control run and
// assertions) of each scenario library file.
func BenchmarkScenarioLibrary(b *testing.B) {
	names, err := fs.Glob(scenarios.Files, "*.yaml")
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range names {
		src, err := fs.ReadFile(scenarios.Files, name)
		if err != nil {
			b.Fatal(err)
		}
		sp, err := scenario.Parse(src)
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		b.Run(strings.TrimSuffix(name, ".yaml"), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := sp.Run()
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Pass {
					b.Fatalf("%s failed its assertions", name)
				}
			}
		})
	}
}

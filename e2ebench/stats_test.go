package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 2.5}, {100, 4}, {25, 1.75}, {99, 3.97},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 || median([]float64{7}) != 7 {
		t.Error("empty or single-sample percentile")
	}
}

func TestRatio(t *testing.T) {
	if ratio(3, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Error("ratio")
	}
}

// TestSelfTimes builds a step → tick → {sample → kernel, retry → routes}
// tree plus a pull with two serves, and checks the self-time arithmetic
// and the metrics derived from it.
func TestSelfTimes(t *testing.T) {
	sp := func(kind uint8, parent int32, start, end int64) span {
		return span{kind: kind, parent: parent, start: start, end: end}
	}
	spans := []span{
		sp(spanStep, -1, 0, 1000),       // 0
		sp(spanTick, 0, 10, 900),        // 1
		sp(spanSample, 1, 20, 520),      // 2
		sp(spanKernelDiag, 2, 30, 130),  // 3
		sp(spanKernelDiag, 2, 200, 260), // 4
		sp(spanRetry, 1, 600, 800),      // 5
		sp(spanRoutes, 5, 610, 790),     // 6
		sp(spanPull, 0, 900, 1000),      // 7
		sp(spanServe, 7, 910, 930),      // 8
		sp(spanServe, 7, 940, 970),      // 9
	}
	s := summarize(spans)
	for _, c := range []struct {
		kind        int
		count       int
		total, self time.Duration
	}{
		{spanStep, 1, 1000, 1000 - 890 - 100},
		{spanTick, 1, 890, 890 - 500 - 200},
		{spanSample, 1, 500, 500 - 160},
		{spanKernelDiag, 2, 160, 160},
		{spanRetry, 1, 200, 20},
		{spanPull, 1, 100, 50},
		{spanServe, 2, 50, 50},
	} {
		got := s[c.kind]
		if got.count != c.count || got.total != c.total || got.self != c.self {
			t.Errorf("%s: count %d total %v self %v, want %d %v %v",
				spanNames[c.kind], got.count, got.total, got.self, c.count, c.total, c.self)
		}
	}

	var before, after counters
	after[cTicks] = 1
	after[cRoutesSet], after[cRoutesCleared] = 30, 10
	after[cChangedDests] = 20
	after[cRequests], after[cNotModified] = 8, 2
	after[cCacheHits], after[cCacheMisses] = 3, 1
	after[cWire], after[cDigestWire] = 4096, 1024
	after[cPropagated] = 2
	after[cEntries], after[cAgents] = 90, 3
	m := make(map[string]float64)
	layerMetrics(m, loopStats{before: before, after: after, sim: 10 * time.Second}, s)
	for name, want := range map[string]float64{
		"netlink.dump_ms":           500e-6,
		"netlink.kernel_ms":         160e-6,
		"netlink.decode_ms":         340e-6,
		"core.tick_self_ms":         190e-6,
		"core.route_ops_per_tick":   40,
		"core.ops_per_changed_dest": 2,
		"core.entries":              30,
		"retry.self_ms":             20e-6,
		"fleet.pull_self_ms":        50e-6,
		"fleet.not_modified_ratio":  0.25,
		"fleet.cache_hit_ratio":     0.75,
		"fleet.propagation_kb":      2,
		"gossip.kb_per_interval":    2,
		"gossip.digest_kb_share":    0.25,
		"fleet.serve_us_p50":        0.025,
	} {
		if got := m[name]; !near(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestBenchmarkManifest checks that BENCHMARK.json lists exactly the
// metrics and workloads this program reports.
func TestBenchmarkManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"riptide/internal/experiments"
	"riptide/internal/perf"
)

func TestRunUnknownScale(t *testing.T) {
	if err := run([]string{"-scale", "nope"}); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-zzz"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestReportQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick report in -short mode")
	}
	out := filepath.Join(t.TempDir(), "report.md")
	var sb strings.Builder
	s := experiments.QuickScale()
	s.Duration = s.Duration / 2
	seriesDir := filepath.Join(t.TempDir(), "series")
	if err := report(&sb, s, 1, 5000, seriesDir, 4); err != nil {
		t.Fatal(err)
	}
	// Series CSVs land for figure-bearing results.
	entries, err := os.ReadDir(seriesDir)
	if err != nil || len(entries) == 0 {
		t.Errorf("series dir: %v entries, err=%v", len(entries), err)
	}
	text := sb.String()
	for _, want := range []string{"FIG2", "FIG10", "FIG16", "ABLATION-TTL", "HEADLINE", "| Europe | 10 |",
		"SCENARIO-GUARD-CAPACITY-CUT", "SCENARIO-FLEET-WARM-START", "SCENARIO-FLASH-CROWD"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if err := os.WriteFile(out, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestPerfOnlyRequiresJSONPath(t *testing.T) {
	if err := run([]string{"-perf-only"}); err == nil {
		t.Error("-perf-only without -perf-json accepted")
	}
}

func TestPerfSnapshotBadSizes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	for _, sizes := range []string{"", "abc", "0", "10,-1"} {
		if err := run([]string{"-perf-only", "-perf-json", path, "-perf-sizes", sizes}); err == nil {
			t.Errorf("sizes %q accepted", sizes)
		}
	}
}

func TestPerfSnapshotWritesJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	err := run([]string{"-perf-only", "-perf-json", path,
		"-perf-sizes", "8, 16", "-perf-time", "1ms"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap perf.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != perf.SnapshotSchema {
		t.Errorf("schema = %q", snap.Schema)
	}
	// 2 sizes x 6 series points + 2 route-programming modes
	// + backend comparisons (2 sizes x 2 sampler backends + 2 route backends,
	// exec points skipped when the host lacks cat/true)
	// + the fleet-serving series (2 fixed sizes x (3 kinds x 2 modes + 304)).
	if n := len(snap.Benchmarks); n < 32 || n > 34 {
		t.Fatalf("benchmarks = %d, want 32..34", n)
	}
	var execBaselines, servingBaselines int
	for _, b := range snap.Baselines {
		if strings.HasPrefix(b.Name, "exec-baseline/") {
			execBaselines++
		}
		if strings.HasPrefix(b.Name, "uncached/Serve") {
			servingBaselines++
		}
	}
	if execBaselines == 0 {
		t.Errorf("no exec-baseline entries recorded in snapshot baselines")
	}
	// 2 sizes x 3 kinds of live-measured uncached serving encodes.
	if servingBaselines != 6 {
		t.Errorf("serving baselines = %d, want 6", servingBaselines)
	}
	if snap.GOMAXPROCS < 1 {
		t.Errorf("gomaxprocs = %d not stamped", snap.GOMAXPROCS)
	}
	// Single-core runs must not label a multi-shard series "parallel".
	if snap.GOMAXPROCS == 1 {
		for _, b := range snap.Benchmarks {
			if strings.Contains(b.Name, "parallel") {
				t.Errorf("%s labeled parallel at GOMAXPROCS=1", b.Name)
			}
		}
	}
	for _, b := range snap.Benchmarks {
		if b.NsPerOp <= 0 || b.Iterations < 1 {
			t.Errorf("%s: nsPerOp=%v iterations=%d", b.Name, b.NsPerOp, b.Iterations)
		}
	}
}

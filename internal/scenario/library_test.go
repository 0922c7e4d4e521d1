package scenario

import (
	"bytes"
	"io/fs"
	"testing"
	"time"

	"riptide/internal/cdn"
	"riptide/scenarios"
)

// loadLibrary parses one file of the scenario library.
func loadLibrary(t *testing.T, name string) *Spec {
	t.Helper()
	src, err := fs.ReadFile(scenarios.Files, name)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return sp
}

func runSpec(t *testing.T, sp *Spec) *Report {
	t.Helper()
	rep, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func metric(t *testing.T, rep *Report, run, name string) float64 {
	t.Helper()
	for _, r := range rep.Runs {
		if r.Name != run {
			continue
		}
		for _, m := range r.Metrics {
			if m.Name == name {
				return m.Value
			}
		}
	}
	t.Fatalf("%s: no %s.%s", rep.Scenario, run, name)
	return 0
}

// TestScenarioLibrary runs every library file: each must pass its own
// assertions and reproduce its report byte for byte.
func TestScenarioLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario library runs in -short mode")
	}
	names, err := fs.Glob(scenarios.Files, "*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("empty scenario library")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			sp := loadLibrary(t, name)
			rep := runSpec(t, sp)
			first, err := rep.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Pass {
				t.Errorf("%s failed its assertions:\n%s", name, first)
			}
			second, err := runSpec(t, sp).Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Errorf("two runs of %s differ:\n%s\n---\n%s", name, first, second)
			}
		})
	}
}

// TestWarmStartColdControl is fleet-warm-start's cold control: the same
// file without its sharing event must take at least 4x the ticks to
// re-cover 90% of the routes, so the file's absolute bound measures sharing
// and not a lucky probe round.
func TestWarmStartColdControl(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation in -short mode")
	}
	sp := loadLibrary(t, "fleet-warm-start.yaml")
	shared := runSpec(t, sp)

	var kept []Event
	for _, ev := range sp.Events {
		if _, sharing := ev.Payload.(*GossipSharingEvent); !sharing {
			kept = append(kept, ev)
		}
	}
	if len(kept) == len(sp.Events) {
		t.Fatal("fleet-warm-start has no sharing event to drop")
	}
	sp.Events = kept
	cold := runSpec(t, sp)

	for _, rep := range []*Report{shared, cold} {
		for _, r := range rep.Runs {
			for _, m := range r.Metrics {
				if m.Name == "recovery_censored" {
					t.Fatalf("recovery censored: the run ended before the fleet recovered")
				}
			}
		}
	}
	s := metric(t, shared, "riptide", "recovery_ticks")
	c := metric(t, cold, "riptide", "recovery_ticks")
	t.Logf("recovery ticks: shared %v, cold %v", s, c)
	if s < 1 || c < 4*s {
		t.Errorf("cold recovery %v ticks, shared %v: want shared >= 1 and cold >= 4x shared", c, s)
	}
}

// TestGuardCutAcrossSeeds holds guard-capacity-cut's assertions — among them
// quarantine within 10 ticks of the cut — across seeds, and checks the
// precondition the file's assertions cannot see: before the cut, lhr had
// learned a jump-started window above the kernel default for jfk, so the
// cut has a stale aggressive window to punish.
func TestGuardCutAcrossSeeds(t *testing.T) {
	sp := loadLibrary(t, "guard-capacity-cut.yaml")
	cutAt := sp.Events[0].At
	for _, seed := range []int64{1, 2, 3, 5, 7, 11} {
		sp.Fleet.Seed = seed
		rep := runSpec(t, sp)
		if !rep.Pass {
			b, _ := rep.Encode()
			t.Errorf("seed %d failed:\n%s", seed, b)
		}

		cfg, err := sp.clusterConfig(runOverrides{})
		if err != nil {
			t.Fatal(err)
		}
		c, err := cdn.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(cutAt - time.Second)
		jfk, err := c.Host("jfk")
		if err != nil {
			t.Fatal(err)
		}
		w, ok := c.Agent("lhr").Lookup(jfk.Addr())
		c.Stop()
		if !ok || w <= 10 {
			t.Errorf("seed %d: pre-cut lhr->jfk window = %d (learned %v), want > kernel default 10", seed, w, ok)
		}
	}
}

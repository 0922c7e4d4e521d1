package scenario

import (
	"bytes"
	"strings"
	"testing"
)

// quickScenario is small enough to execute in tests: four PoPs, a partition
// and a reboot, both run groups.
const quickScenario = `
name: engine-test
fleet:
  pops: [lhr, fra, jfk, nrt]
  seed: 11
  loss_rate: 0.001
  riptide:
    enabled: true
  traffic:
    probe_interval: 30s
    probe_sizes_kb: [50]
duration: 4m
compare:
  riptide: false
events:
  - at: 90s
    peer_partition:
      a: lhr
      b: jfk
      for: 60s
assertions:
  - riptide.probe_failures.during >= 1
  - riptide.probe_failures.after == 0
  - riptide.routes.end > 0
  - control.routes.end == 0
`

func runQuick(t *testing.T, src string) *Report {
	t.Helper()
	sp, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sp.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestEngineEndToEnd(t *testing.T) {
	rep := runQuick(t, quickScenario)
	if len(rep.Runs) != 2 || rep.Runs[0].Name != "riptide" || rep.Runs[1].Name != "control" {
		t.Fatalf("runs = %+v", rep.Runs)
	}
	if !rep.Pass {
		b, _ := rep.Encode()
		t.Fatalf("assertions failed:\n%s", b)
	}
	if rep.Phases.During != "1m30s..2m30s" {
		t.Errorf("during phase = %q", rep.Phases.During)
	}
}

// TestDeterminismPin is the format's core promise: the same file with the
// same seed produces byte-identical reports, and changing only the seed
// changes them.
func TestDeterminismPin(t *testing.T) {
	enc := func(src string) []byte {
		rep := runQuick(t, src)
		b, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := enc(quickScenario)
	b := enc(quickScenario)
	if !bytes.Equal(a, b) {
		t.Fatalf("same scenario, same seed, different reports:\n%s\n---\n%s", a, b)
	}
	reseeded := strings.Replace(quickScenario, "seed: 11", "seed: 12", 1)
	c := enc(reseeded)
	if bytes.Equal(a, c) {
		t.Fatal("changing the seed did not change the report")
	}
}

func TestEngineRecoveryTracking(t *testing.T) {
	src := `
name: reboot-test
fleet:
  pops: [lhr, fra, jfk]
  hosts_per_pop: 2
  seed: 3
  riptide:
    enabled: true
  traffic:
    probe_interval: 20s
    probe_sizes_kb: [10]
duration: 4m
events:
  - at: 0s
    enable_gossip_sharing:
      interval: 5s
  - at: 1m59s
    host_reboot:
      pop: lhr
      host: 0
      track_recovery: 0.9
assertions:
  - riptide.recovery_ticks <= 60
  - riptide.recovery_ticks >= 1
`
	rep := runQuick(t, src)
	if !rep.Pass {
		b, _ := rep.Encode()
		t.Fatalf("recovery assertions failed:\n%s", b)
	}
}

func TestEngineKnobAndWindow(t *testing.T) {
	src := `
name: knob-test
fleet:
  pops: [lhr, jfk]
  seed: 5
  capacity_segments: 400
  riptide:
    enabled: true
  traffic:
    probe_interval: 30s
    probe_sizes_kb: [100]
duration: 3m
window:
  start: 90s
  end: 2m
events:
  - at: 90s
    set_knob:
      knob: pair_capacity
      a: lhr
      b: jfk
      value: 8
assertions:
  - riptide.retrans.during + riptide.retrans.after > riptide.retrans.before
`
	rep := runQuick(t, src)
	if !rep.Pass {
		b, _ := rep.Encode()
		t.Fatalf("knob assertions failed:\n%s", b)
	}
	if rep.Phases.During != "1m30s..2m0s" {
		t.Errorf("explicit window ignored: during = %q", rep.Phases.During)
	}
}

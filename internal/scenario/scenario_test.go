package scenario

import (
	"strings"
	"testing"
	"time"
)

const validScenario = `
name: unit-test
description: parse-layer exercise
fleet:
  pops: [lhr, fra, jfk, nrt]
  hosts_per_pop: 2
  seed: 7
  loss_rate: 0.001
  capacity_segments: 400
  riptide:
    enabled: true
    cmax: 100
    guard:
      min_segments: 24
      hysteresis_ticks: 2
      quarantine_ttl: 10m
  traffic:
    probe_interval: 30s
    probe_sizes_kb: [50]
    organic:
      lhr: 2.0
duration: 6m
compare:
  guard: false
events:
  - at: 0s
    enable_gossip_sharing:
      interval: 5s
  - at: 2m
    capacity_cut:
      pop: jfk
      from: lhr
      for: 2m
      segments: 10
      restore_segments: 400
  - at: 3m
    flash_crowd:
      target: fra
      for: 30s
      rate_per_pop: 1.0
assertions:
  - riptide.quarantines >= 1
  - riptide.retrans.during < control.retrans.during
  - riptide.probe_ms.p99.during / riptide.probe_ms.p99.before <= 10
`

func TestParseValidScenario(t *testing.T) {
	sp, err := Parse([]byte(validScenario))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "unit-test" {
		t.Errorf("name = %q", sp.Name)
	}
	if sp.Duration != 6*time.Minute {
		t.Errorf("duration = %v", sp.Duration)
	}
	if len(sp.Events) != 3 {
		t.Fatalf("events = %d", len(sp.Events))
	}
	if sp.Events[1].Kind != "capacity_cut" {
		t.Errorf("event[1] kind = %q", sp.Events[1].Kind)
	}
	cc, ok := sp.Events[1].Payload.(*CapacityCutEvent)
	if !ok || cc.PoP != "jfk" || cc.From != "lhr" || cc.Segments != 10 {
		t.Errorf("capacity cut payload = %+v", sp.Events[1].Payload)
	}
	if sp.Fleet.Riptide.Guard == nil || sp.Fleet.Riptide.Guard.MinSegments != 24 {
		t.Errorf("guard = %+v", sp.Fleet.Riptide.Guard)
	}
	if len(sp.Assertions) != 3 {
		t.Fatalf("assertions = %d", len(sp.Assertions))
	}
	if sp.Compare == nil || sp.Compare.Guard == nil || *sp.Compare.Guard {
		t.Errorf("compare = %+v", sp.Compare)
	}
	// The during window is the union of the cut and the crowd.
	start, end := sp.phaseWindow()
	if start != 2*time.Minute || end != 4*time.Minute {
		t.Errorf("window = [%v, %v)", start, end)
	}
	pops, err := sp.Fleet.ResolvePoPs()
	if err != nil || len(pops) != 4 {
		t.Errorf("pops = %v, %v", pops, err)
	}
}

// mutate applies a line-level edit to the valid scenario, for error-path
// coverage without repeating the whole document.
func mutate(t *testing.T, old, new string) string {
	t.Helper()
	if !strings.Contains(validScenario, old) {
		t.Fatalf("fixture does not contain %q", old)
	}
	return strings.Replace(validScenario, old, new, 1)
}

// withEvent swaps the fixture's flash crowd for a one-line event.
func withEvent(t *testing.T, event string) string {
	t.Helper()
	return mutate(t, "    flash_crowd:\n      target: fra\n      for: 30s\n      rate_per_pop: 1.0", "    "+event)
}

func TestParseRejections(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown top key", mutate(t, "description:", "descriptoin:"), "unknown key"},
		{"unknown pop", mutate(t, "pops: [lhr, fra, jfk, nrt]", "pops: [lhr, fra, jfk, xxx]"), `unknown PoP "xxx"`},
		{"missing name", mutate(t, "name: unit-test", "description2: x"), "unknown key"},
		{"missing duration", mutate(t, "duration: 6m", "duration2: 6m"), "unknown key"},
		{"bad duration", mutate(t, "duration: 6m", "duration: six"), "not a duration"},
		{"event out of order", mutate(t, "  - at: 3m\n    flash_crowd:", "  - at: 1m\n    flash_crowd:"), "time order"},
		{"event after end", mutate(t, "at: 3m", "at: 3h"), "outside the run"},
		{"unknown event kind", mutate(t, "flash_crowd:", "flashcrowd:"), "unknown event kind"},
		{"two kinds in one event", mutate(t, "    flash_crowd:", "    degradation: {pop: lhr, for: 1s, loss_rate: 0.1}\n    flash_crowd:"), "two kinds"},
		{"cut self pair", mutate(t, "from: lhr", "from: jfk"), "must differ"},
		{"cut zero segments", mutate(t, "segments: 10", "segments: 0"), ">= 1"},
		{"bad assertion op", mutate(t, "riptide.quarantines >= 1", "riptide.quarantines ~ 1"), "no comparison"},
		{"unqualified metric", mutate(t, "riptide.quarantines >= 1", "quarantines >= 1"), "run-qualified"},
		{"organic unknown pop", mutate(t, "      lhr: 2.0", "      syd: 2.0"), `unknown PoP "syd"`},
		{"guard without riptide", mutate(t, "enabled: true", "enabled: false"), "guard needs riptide"},
		{"compare without knob", mutate(t, "compare:\n  guard: false", "compare: {}"), "sets no knob"},
		{"event before start", mutate(t, "at: 2m", "at: -1s"), "outside the run"},
		{"cut unknown pop", mutate(t, "pop: jfk", "pop: nope"), `unknown PoP "nope"`},
		{"cut unknown from", mutate(t, "from: lhr", "from: nope"), `unknown PoP "nope"`},
		{"cut negative for", mutate(t, "for: 2m", "for: -1s"), "must not be negative"},
		{"crowd unknown target", mutate(t, "target: fra", "target: nope"), `unknown PoP "nope"`},
		{"crowd zero rate", mutate(t, "rate_per_pop: 1.0", "rate_per_pop: 0"), "positive for and rate_per_pop"},
		{"crowd negative size", mutate(t, "rate_per_pop: 1.0", "rate_per_pop: 1.0\n      size_kb: -1"), "must not be negative"},
		{"degradation unknown pop", withEvent(t, "degradation: {pop: nope, for: 1s, loss_rate: 0.1}"), `unknown PoP "nope"`},
		{"degradation loss 1", withEvent(t, "degradation: {pop: lhr, for: 1s, loss_rate: 1}"), "out of (0,1)"},
		{"reboots no pops", withEvent(t, "rolling_reboots: {interval: 1s}"), "at least one PoP"},
		{"reboots unknown pop", withEvent(t, "rolling_reboots: {pops: [nope], interval: 1s}"), `unknown PoP "nope"`},
		{"reboots zero interval", withEvent(t, "rolling_reboots: {pops: [lhr]}"), "interval 0s must be positive"},
		{"flap unknown pop", withEvent(t, "path_flap: {a: lhr, b: nope, for: 1s, rtt_scale: 2}"), `unknown PoP "nope"`},
		{"flap self pair", withEvent(t, "path_flap: {a: lhr, b: lhr, for: 1s, rtt_scale: 2}"), "must differ"},
		{"flap zero scale", withEvent(t, "path_flap: {a: lhr, b: nrt, for: 1s, rtt_scale: 0}"), "rtt_scale 0 must be positive"},
		{"partition unknown pop", withEvent(t, "peer_partition: {a: nope, b: lhr, for: 1s}"), `unknown PoP "nope"`},
		{"partition self pair", withEvent(t, "peer_partition: {a: lhr, b: lhr, for: 1s}"), "must differ"},
		{"partition zero for", withEvent(t, "peer_partition: {a: lhr, b: nrt}"), "for 0s must be positive"},
		{"sharing not at zero", mutate(t, "  - at: 0s\n    enable_gossip_sharing:", "  - at: 0s\n    peer_partition: {a: lhr, b: fra, for: 10s}\n  - at: 1s\n    enable_gossip_sharing:"), "at 0s"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.src))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParseErrorsAreLineNumbered(t *testing.T) {
	// An unknown key deep in the document must point at its own line.
	src := "name: x\nfleet:\n  pops: [lhr, fra]\n  riptide:\n    enabled: true\n    cmaxx: 5\nduration: 1m\n"
	_, err := Parse([]byte(src))
	if err == nil {
		t.Fatal("accepted")
	}
	if !strings.Contains(err.Error(), "line 6") {
		t.Errorf("error %q does not carry line 6", err)
	}
}

func TestRegionSelection(t *testing.T) {
	f := FleetSpec{Regions: []string{"oceania"}}
	pops, err := f.ResolvePoPs()
	if err != nil {
		t.Fatal(err)
	}
	if len(pops) != 3 {
		t.Errorf("oceania = %d PoPs, want 3", len(pops))
	}
	f = FleetSpec{Regions: []string{"atlantis"}}
	if _, err := f.ResolvePoPs(); err == nil || !strings.Contains(err.Error(), "unknown region") {
		t.Errorf("atlantis: %v", err)
	}
	// PoPs and regions union without duplicates.
	f = FleetSpec{PoPs: []string{"syd", "lhr"}, Regions: []string{"oceania"}}
	pops, err = f.ResolvePoPs()
	if err != nil || len(pops) != 4 {
		t.Errorf("union = %v, %v", pops, err)
	}
}

func TestAssertionEval(t *testing.T) {
	metrics := map[string]float64{
		"riptide.p99.during": 300,
		"riptide.p99.before": 200,
		"riptide.zero":       0,
	}
	cases := []struct {
		src  string
		pass bool
	}{
		{"riptide.p99.during / riptide.p99.before <= 1.5", true},
		{"riptide.p99.during / riptide.p99.before <= 1.4", false},
		{"riptide.p99.during - riptide.p99.before == 100", true},
		{"riptide.p99.during > 299", true},
		{"riptide.p99.before * 2 >= 400", true},
		{"riptide.p99.during/riptide.p99.before <= 1.5", true}, // no spaces
		{"riptide.p99.during / riptide.zero < 10", false},      // division by zero fails
		{"riptide.missing < 10", false},                        // missing metric fails
	}
	for _, tc := range cases {
		a, err := ParseAssertion(tc.src)
		if err != nil {
			t.Errorf("%q: %v", tc.src, err)
			continue
		}
		res := a.Eval(metrics)
		if res.Pass != tc.pass {
			t.Errorf("%q: pass = %v (detail %q)", tc.src, res.Pass, res.Detail)
		}
		if !res.Pass && res.Detail == "" {
			t.Errorf("%q: failed without detail", tc.src)
		}
	}
}

func TestAssertionMissingMetricSuggests(t *testing.T) {
	a, err := ParseAssertion("riptide.probe_ms.p99.durin <= 1")
	if err != nil {
		t.Fatal(err)
	}
	res := a.Eval(map[string]float64{"riptide.probe_ms.p99.during": 1, "control.retrans.total": 2})
	if res.Pass {
		t.Fatal("passed with missing metric")
	}
	if !strings.Contains(res.Detail, "riptide.probe_ms.p99.during") {
		t.Errorf("detail %q does not suggest the close metric", res.Detail)
	}
}

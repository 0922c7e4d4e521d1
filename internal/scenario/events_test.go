package scenario

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"riptide/internal/cdn"
	"riptide/internal/netsim"
)

// eventCluster builds the main-run cluster of a small four-PoP fleet and
// schedules the given YAML event list onto it exactly as Spec.Run does, so
// a test can add its own observations before running the cluster. fleet
// holds extra fleet-block lines, traffic extra traffic-block lines.
func eventCluster(t *testing.T, seed int64, fleet, traffic, events string) *cdn.Cluster {
	t.Helper()
	src := fmt.Sprintf(`
name: event-test
fleet:
  pops: [lhr, fra, jfk, nrt]
  seed: %d
  loss_rate: 0.001
%s
  traffic:
    probe_interval: 30s
%s
duration: 6m
%s`, seed, fleet, traffic, events)
	sp, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sp.clusterConfig(runOverrides{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cdn.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	st := &runState{}
	for _, ev := range sp.Events {
		if err := applyEvent(c, ev, st, cfg.Riptide.Enabled, true, sp.Fleet.LossRate); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// transferAt injects one lhr->dst transfer at the given time and returns
// where its result will land.
func transferAt(t *testing.T, c *cdn.Cluster, at time.Duration, dst string, bytes int64) *netsim.TransferResult {
	t.Helper()
	res := new(netsim.TransferResult)
	if err := c.ScheduleAt(at, func() {
		_ = c.InjectTransfer("lhr", dst, bytes, func(r netsim.TransferResult) { *res = r })
	}); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFlashCrowdIncreasesTargetLoad: while the crowd lasts, the target
// holds more open connections than it does for probes alone.
func TestFlashCrowdIncreasesTargetLoad(t *testing.T) {
	openConns := func(events string) int {
		c := eventCluster(t, 44, "", "", events)
		lhr, err := c.Host("lhr")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for at := 30 * time.Second; at < 90*time.Second; at += time.Second {
			_ = c.ScheduleAt(at, func() { n += len(lhr.Connections()) })
		}
		c.Run(2 * time.Minute)
		return n
	}
	base := openConns("")
	crowd := openConns("events:\n  - at: 30s\n    flash_crowd: {target: lhr, for: 1m, rate_per_pop: 3}")
	if crowd <= base {
		t.Errorf("lhr connection-seconds during the crowd = %d, want more than the %d without it", crowd, base)
	}
}

// crowdScenario is a minimal spec whose only event is the given flash crowd.
func crowdScenario(at, crowd string) string {
	return fmt.Sprintf(`
name: crowd-test
fleet:
  pops: [lhr, fra, jfk, nrt]
duration: 6m
events:
  - at: %s
    flash_crowd: {%s}
`, at, crowd)
}

// TestFlashCrowdScenario: a parsed crowd covers [at, at+for), schedules
// onto a cluster and runs, and a crowd on an unknown PoP or at zero rate
// is refused.
func TestFlashCrowdScenario(t *testing.T) {
	sp, err := Parse([]byte(crowdScenario("1m", "target: lhr, for: 1m, rate_per_pop: 2")))
	if err != nil {
		t.Fatal(err)
	}
	if s, e := sp.Events[0].Payload.window(sp.Events[0].At, sp.Duration); s != time.Minute || e != 2*time.Minute {
		t.Errorf("window = %v..%v, want 1m0s..2m0s", s, e)
	}
	c := eventCluster(t, 43, "", "", "events:\n  - at: 1m\n    flash_crowd: {target: lhr, for: 1m, rate_per_pop: 2}")
	c.Run(3 * time.Minute)

	for _, tc := range []struct{ crowd, want string }{
		{"target: nope, for: 1s, rate_per_pop: 1", `unknown PoP "nope"`},
		{"target: lhr", "positive for and rate_per_pop"},
	} {
		if _, err := Parse([]byte(crowdScenario("0s", tc.crowd))); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("{%s}: error %v, want one mentioning %q", tc.crowd, err, tc.want)
		}
	}
}

// TestFlashCrowdRejectsNegativeParams: a crowd before the run starts or
// with a negative size is refused; size_kb 0 falls back to the default.
func TestFlashCrowdRejectsNegativeParams(t *testing.T) {
	for _, tc := range []struct{ at, crowd, want string }{
		{"-1s", "target: lhr, for: 1s, rate_per_pop: 1", "outside the run"},
		{"0s", "target: lhr, for: 1s, rate_per_pop: 1, size_kb: -1", "must not be negative"},
	} {
		if _, err := Parse([]byte(crowdScenario(tc.at, tc.crowd))); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("at %s {%s}: error %v, want one mentioning %q", tc.at, tc.crowd, err, tc.want)
		}
	}
	// Zero size is accepted and schedules with the 100 KB default.
	c := eventCluster(t, 50, "", "", "events:\n  - at: 0s\n    flash_crowd: {target: lhr, for: 1s, rate_per_pop: 1, size_kb: 0}")
	c.Run(10 * time.Second)
}

func TestDegradationScenario(t *testing.T) {
	c := eventCluster(t, 45, "", "", "events:\n  - at: 30s\n    degradation: {pop: nrt, for: 1m, loss_rate: 0.3}")
	during := transferAt(t, c, 45*time.Second, "nrt", 512*1024)
	after := transferAt(t, c, 2*time.Minute, "nrt", 512*1024)
	c.Run(4 * time.Minute)
	if during.Retransmits == 0 {
		t.Error("no retransmits during the degradation window")
	}
	// Healed: the same transfer runs at baseline loss, many times faster.
	if 4*after.Elapsed > during.Elapsed {
		t.Errorf("after-heal transfer took %v, during %v: loss not restored", after.Elapsed, during.Elapsed)
	}
}

func TestCapacityCutScenario(t *testing.T) {
	c := eventCluster(t, 47, "  capacity_segments: 400", "",
		"events:\n  - at: 10s\n    capacity_cut: {pop: nrt, from: lhr, for: 1m, segments: 5, restore_segments: 400}")
	during := transferAt(t, c, 20*time.Second, "nrt", 512*1024)
	after := transferAt(t, c, 2*time.Minute, "nrt", 512*1024)
	c.Run(4 * time.Minute)
	if during.Retransmits == 0 {
		t.Error("no retransmits through the capacity cut")
	}
	// Restored: the same transfer fills the 400-segment pipe again.
	if 4*after.Elapsed > during.Elapsed {
		t.Errorf("post-restore transfer took %v, during %v: capacity not restored", after.Elapsed, during.Elapsed)
	}
}

func TestPathFlapScenario(t *testing.T) {
	c := eventCluster(t, 48, "", "", "events:\n  - at: 10s\n    path_flap: {a: lhr, b: nrt, for: 1m, rtt_scale: 3}")
	base, err := c.BaselinePairRTT("lhr", "nrt")
	if err != nil {
		t.Fatal(err)
	}
	during := transferAt(t, c, 20*time.Second, "nrt", 1000)
	after := transferAt(t, c, 2*time.Minute, "nrt", 1000)
	c.Run(4 * time.Minute)
	// A one-round transfer's elapsed time is one (possibly flapped) RTT.
	if during.Elapsed < time.Duration(2.9*float64(base)) {
		t.Errorf("during-flap transfer %v not slowed (baseline %v)", during.Elapsed, base)
	}
	if after.Elapsed != base {
		t.Errorf("post-flap transfer %v, want baseline %v", after.Elapsed, base)
	}
}

// TestPeerPartitionScenario: the partition kills the established
// connections across the pair, blocks new ones while it lasts, leaves other
// pairs alone, and heals.
func TestPeerPartitionScenario(t *testing.T) {
	c := eventCluster(t, 49, "", "", "events:\n  - at: 45s\n    peer_partition: {a: lhr, b: nrt, for: 90s}")
	lhr, err := c.Host("lhr")
	if err != nil {
		t.Fatal(err)
	}
	nrt, err := c.Host("nrt")
	if err != nil {
		t.Fatal(err)
	}
	connsTo := func(dst netip.Addr) int {
		n := 0
		for _, s := range lhr.Connections() {
			if s.Dst == dst {
				n++
			}
		}
		return n
	}
	var connsBefore, connsDuring int
	var midErr, otherErr, afterErr error
	ran := false
	_ = c.ScheduleAt(44*time.Second, func() { connsBefore = connsTo(nrt.Addr()) })
	_ = c.ScheduleAt(time.Minute, func() {
		connsDuring = connsTo(nrt.Addr())
		midErr = c.InjectTransfer("lhr", "nrt", 1000, nil)
		otherErr = c.InjectTransfer("lhr", "fra", 1000, nil)
	})
	_ = c.ScheduleAt(3*time.Minute, func() {
		afterErr = c.InjectTransfer("lhr", "nrt", 1000, nil)
		ran = true
	})
	c.Run(4 * time.Minute)
	if !ran {
		t.Fatal("schedule did not run")
	}
	if connsBefore == 0 {
		t.Fatal("no lhr->nrt connections before the partition; nothing to kill")
	}
	if connsDuring != 0 {
		t.Errorf("%d lhr->nrt connections survived the partition", connsDuring)
	}
	if midErr == nil {
		t.Error("transfer across the partition succeeded")
	}
	if otherErr != nil {
		t.Errorf("unrelated pair failed: %v", otherErr)
	}
	if afterErr != nil {
		t.Errorf("post-heal transfer failed: %v", afterErr)
	}
	failed := false
	for _, f := range c.ProbeFailures() {
		if (f.Src == "lhr" && f.Dst == "nrt") || (f.Src == "nrt" && f.Dst == "lhr") {
			failed = true
			if f.At < 45*time.Second || f.At >= 135*time.Second {
				t.Errorf("failure at %v outside the partition window", f.At)
			}
		}
	}
	if !failed {
		t.Error("no probe failures recorded across the partition")
	}
}

func TestRollingRebootsScenario(t *testing.T) {
	c := eventCluster(t, 46, "  riptide: {enabled: true}", "    organic: {lhr: 2, jfk: 2, fra: 2, nrt: 2}",
		"events:\n  - at: 2m10s\n    rolling_reboots: {pops: [lhr, fra], interval: 30s}")
	c.Run(2 * time.Minute)
	lhrBefore := c.Agent("lhr")
	if len(lhrBefore.Entries()) == 0 {
		t.Fatal("lhr learned nothing before the wave")
	}
	c.Run(3 * time.Minute)
	if c.Agent("lhr") == lhrBefore {
		t.Error("lhr agent not replaced by rolling reboot")
	}
	if len(c.Agent("lhr").Entries()) == 0 {
		t.Error("lhr never relearned after reboot wave")
	}
}

// TestScenarioMetadata pins each event kind's contribution to the phase
// window and the probe blast radius.
func TestScenarioMetadata(t *testing.T) {
	const total = 10 * time.Minute
	at := time.Minute
	cases := []struct {
		payload    EventPayload
		start, end time.Duration
		affected   string
	}{
		{&FlashCrowdEvent{Target: "lhr", For: time.Minute}, at, 2 * time.Minute, "lhr"},
		{&DegradationEvent{PoP: "nrt", For: time.Minute}, at, 2 * time.Minute, "nrt"},
		{&RollingRebootsEvent{PoPs: []string{"a", "b"}, Interval: 30 * time.Second}, at, 2 * time.Minute, "a b"},
		{&CapacityCutEvent{PoP: "jfk", From: "lhr", For: time.Minute}, at, 2 * time.Minute, "jfk lhr"},
		{&CapacityCutEvent{PoP: "jfk"}, at, total, "jfk"}, // permanent
		{&HostRebootEvent{PoP: "lhr"}, at, total, "lhr"},
		{&PathFlapEvent{A: "lhr", B: "nrt", For: time.Minute}, at, 2 * time.Minute, "lhr nrt"},
		{&PeerPartitionEvent{A: "lhr", B: "nrt", For: time.Minute}, at, 2 * time.Minute, "lhr nrt"},
		{&GossipSharingEvent{Interval: time.Second}, 0, 0, ""},
		{&KnobEvent{Knob: KnobPoPLoss, PoP: "lhr"}, 0, 0, "lhr"},
	}
	for _, tc := range cases {
		s, e := tc.payload.window(at, total)
		if s != tc.start || e != tc.end {
			t.Errorf("%T window = %v..%v, want %v..%v", tc.payload, s, e, tc.start, tc.end)
		}
		if got := strings.Join(tc.payload.affected(), " "); got != tc.affected {
			t.Errorf("%T affected = %q, want %q", tc.payload, got, tc.affected)
		}
	}
}

package cdn

import (
	"testing"
	"time"

	"riptide/internal/core"
)

// newGossipCluster builds a small two-host-per-PoP fleet with gossip
// sharing on, walking the ladder or, with ladder false, pulling legacy full
// snapshots every round.
func newGossipCluster(t *testing.T, ladder bool) *Cluster {
	t.Helper()
	c := newGossipFleet(t)
	if err := c.EnableGossipSharing(5*time.Second, core.MergePolicy{}, ladder); err != nil {
		t.Fatal(err)
	}
	return c
}

func newGossipFleet(t *testing.T) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{
		PoPs:        smallTopology(),
		HostsPerPoP: 2,
		Seed:        1,
		LossRate:    0.001,
		Riptide:     RiptideOptions{Enabled: true, TTL: 10 * time.Minute},
		Traffic: TrafficOptions{
			ProbeInterval: 30 * time.Second,
			IdleTimeout:   time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEnableGossipSharingValidation(t *testing.T) {
	c := newGossipFleet(t)
	defer c.Stop()
	if err := c.EnableGossipSharing(0, core.MergePolicy{}, true); err == nil {
		t.Error("zero interval accepted")
	}
	if err := c.EnableGossipSharing(5*time.Second, core.MergePolicy{}, true); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableGossipSharing(5*time.Second, core.MergePolicy{}, true); err == nil {
		t.Error("second enable accepted")
	}

	noRiptide, err := NewCluster(Config{PoPs: smallTopology(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer noRiptide.Stop()
	if err := noRiptide.EnableGossipSharing(5*time.Second, core.MergePolicy{}, true); err == nil {
		t.Error("gossip sharing without riptide accepted")
	}
}

// TestGossipLadderConverges: with ladder gossip on, agents hold entries
// beyond their own observations (cross-PoP dissemination works), and once
// the fleet is converged the rounds are overwhelmingly digest-only.
func TestGossipLadderConverges(t *testing.T) {
	c := newGossipCluster(t, true)
	defer c.Stop()
	c.Run(5 * time.Minute)

	if s := c.AgentAt("lhr", 0).Stats(); s.FleetMerged == 0 {
		t.Errorf("stats = %+v, want FleetMerged > 0 (gossip delivered entries)", s)
	}
	gs := c.GossipStats()
	if gs.Rounds == 0 || gs.BytesOnWire == 0 {
		t.Fatalf("stats = %+v, want accounted rounds and bytes", gs)
	}
	if gs.DigestRounds == 0 {
		t.Fatalf("stats = %+v: the ladder never had a digest-only round", gs)
	}
	if gs.FullRounds == 0 {
		t.Fatalf("stats = %+v: first contact should have been a full round", gs)
	}
	if got := gs.DigestRounds + gs.DeltaRounds + gs.BucketRounds + gs.FullRounds; got != gs.Rounds {
		t.Fatalf("per-mode rounds sum to %d, total says %d", got, gs.Rounds)
	}
	// Probes refresh entries constantly, but refreshes do not bump versions:
	// converged edges must dominate between real table changes.
	if gs.DigestRounds < gs.Rounds/2 {
		t.Errorf("stats = %+v: digest-only rounds are not the steady state", gs)
	}
}

// TestGossipLadderBeatsFullOnBytes is the cost claim: same fleet, same
// schedule, the ladder moves far fewer bytes than full-table rounds. The
// fleets carry a realistically sized warm table (a long-lived back-office
// fleet accumulates hundreds of destinations) — that is the regime the
// ladder is built for: digests are O(1) in table size, full snapshots are
// O(n), and on a freshly started toy table the two costs are comparable.
func TestGossipLadderBeatsFullOnBytes(t *testing.T) {
	ladder := newGossipCluster(t, true)
	defer ladder.Stop()
	full := newGossipCluster(t, false)
	defer full.Stop()
	for _, c := range []*Cluster{ladder, full} {
		if err := c.SeedWarmEntries(400, core.MergePolicy{}); err != nil {
			t.Fatal(err)
		}
	}
	ladder.Run(5 * time.Minute)
	full.Run(5 * time.Minute)

	lb, fb := ladder.GossipStats().BytesOnWire, full.GossipStats().BytesOnWire
	if lb == 0 || fb == 0 {
		t.Fatalf("bytes ladder=%d full=%d, want both accounted", lb, fb)
	}
	if lb*2 >= fb {
		t.Errorf("ladder moved %d bytes vs full %d — expected well under half", lb, fb)
	}
	if ladder.GossipStats().EntriesMoved >= full.GossipStats().EntriesMoved {
		t.Errorf("ladder moved %d entries vs full %d — deltas should carry less",
			ladder.GossipStats().EntriesMoved, full.GossipStats().EntriesMoved)
	}
}

// TestGossipSeedsRebootedHost: a rebooted machine regains entries from
// gossip within a couple of intervals, and its peers' restart detection
// (the fleet server's instance change, plus the rebooted machine's puller
// starting with no cursors) keeps the edges flowing rather than
// reading stale cursors as "converged".
func TestGossipSeedsRebootedHost(t *testing.T) {
	c := newGossipCluster(t, true)
	defer c.Stop()
	c.Run(5 * time.Minute)

	if got := len(c.AgentAt("lhr", 0).Entries()); got == 0 {
		t.Fatal("no steady-state entries")
	}
	preBuckets := c.GossipStats().BucketRounds
	if _, err := c.RebootHost("lhr", 0); err != nil {
		t.Fatal(err)
	}

	// Two gossip intervals, well inside the 30 s probe cadence.
	c.Run(10 * time.Second)
	agent := c.AgentAt("lhr", 0)
	if got := len(agent.Entries()); got == 0 {
		t.Fatal("gossip did not seed the rebooted agent")
	}
	if s := agent.Stats(); s.FleetMerged == 0 {
		t.Errorf("stats = %+v, want FleetMerged > 0", s)
	}
	// Peers of the rebooted machine saw its instance change and resynced
	// divergent buckets instead of re-pulling whole tables.
	if got := c.GossipStats().BucketRounds; got <= preBuckets {
		t.Errorf("bucket rounds %d -> %d: restart did not trigger a bucket resync", preBuckets, got)
	}
}

// TestGossipRunsShippedFleetCode: the simulator's gossip is riptided's fleet
// server and puller, not a model of them. Every byte a puller counts as
// received is a byte some server counted as sent, converged rounds are
// server-side 304s, and the derived stats agree with the raw counters.
func TestGossipRunsShippedFleetCode(t *testing.T) {
	c := newGossipCluster(t, true)
	defer c.Stop()
	c.Run(2 * time.Minute)

	counter := func(name string) uint64 { return c.metrics.Counter(name).Value() }
	sent, received := counter("riptide_gossip_bytes_sent"), counter("riptide_gossip_bytes_received")
	if sent == 0 || sent != received {
		t.Fatalf("bytes sent %d, received %d: want equal and non-zero", sent, received)
	}
	if got := counter("riptide_fleet_serve_not_modified"); got == 0 {
		t.Fatal("no server answered a 304")
	}
	gs := c.GossipStats()
	if gs.BytesOnWire != int64(received) {
		t.Fatalf("stats bytes %d, registry says %d", gs.BytesOnWire, received)
	}
	if want := int64(counter("riptide_fleet_serve_not_modified")); gs.NotModifiedRounds != want {
		t.Fatalf("stats 304 rounds %d, servers answered %d", gs.NotModifiedRounds, want)
	}
	if got := counter("riptide_peer_pull_errors"); got != 0 {
		t.Fatalf("%d pull errors over the in-process transport", got)
	}
}

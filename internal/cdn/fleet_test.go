package cdn

import (
	"testing"
	"time"
)

func TestRebootHostValidation(t *testing.T) {
	c := newGossipFleet(t)
	defer c.Stop()
	if _, err := c.RebootHost("atlantis", 0); err == nil {
		t.Error("unknown PoP accepted")
	}
	if _, err := c.RebootHost("lhr", 9); err == nil {
		t.Error("out-of-range machine accepted")
	}
	if _, err := c.RebootHost("lhr", -1); err == nil {
		t.Error("negative machine accepted")
	}
}

// TestRebootHostWipesOneMachine: rebooting machine 0 clears its agent state
// and routes while machine 1 of the same PoP keeps its learned table.
func TestRebootHostWipesOneMachine(t *testing.T) {
	c := newGossipFleet(t)
	defer c.Stop()
	c.Run(5 * time.Minute)

	before0 := len(c.AgentAt("lhr", 0).Entries())
	before1 := len(c.AgentAt("lhr", 1).Entries())
	if before0 == 0 || before1 == 0 {
		t.Fatalf("agents learned nothing (m0=%d m1=%d)", before0, before1)
	}

	if _, err := c.RebootHost("lhr", 0); err != nil {
		t.Fatal(err)
	}
	if got := len(c.AgentAt("lhr", 0).Entries()); got != 0 {
		t.Errorf("rebooted agent still has %d entries", got)
	}
	hosts, err := c.Hosts("lhr")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(hosts[0].Routes()); got != 0 {
		t.Errorf("rebooted kernel still has %d routes", got)
	}
	if got := len(c.AgentAt("lhr", 1).Entries()); got != before1 {
		t.Errorf("sibling agent entries = %d, want %d (untouched)", got, before1)
	}

	// The swapped-in agent keeps learning through the existing ticker.
	c.Run(2 * time.Minute)
	if got := len(c.AgentAt("lhr", 0).Entries()); got == 0 {
		t.Error("rebooted agent never relearned")
	}
}

// TestFleetSharingSeedsSibling: with gossip on, a rebooted machine regains
// entries from its peers within a couple of exchange intervals — far
// before the next probe round could have re-taught it.
func TestFleetSharingSeedsSibling(t *testing.T) {
	c := newGossipCluster(t, true)
	defer c.Stop()
	c.Run(5 * time.Minute)

	steady := len(c.AgentAt("lhr", 0).Entries())
	if steady == 0 {
		t.Fatal("no steady-state entries")
	}
	if _, err := c.RebootHost("lhr", 0); err != nil {
		t.Fatal(err)
	}

	// Two exchange intervals, well inside the 30 s probe cadence.
	c.Run(10 * time.Second)
	agent := c.AgentAt("lhr", 0)
	got := len(agent.Entries())
	if got == 0 {
		t.Fatal("fleet sharing did not seed the rebooted agent")
	}
	if s := agent.Stats(); s.FleetMerged == 0 {
		t.Errorf("stats = %+v, want FleetMerged > 0", s)
	}
}

// TestFleetSharingLocalWins: merged hints never displace locally observed
// entries — after a full probe round, the peers' repeated tables must not
// overwrite what the agent sees itself.
func TestFleetSharingLocalWins(t *testing.T) {
	c := newGossipCluster(t, true)
	defer c.Stop()
	c.Run(5 * time.Minute)

	agent := c.AgentAt("lhr", 0)
	s := agent.Stats()
	// Gossip runs every 5s against a sibling with overlapping coverage:
	// remote entries for destinations the agent observes itself must be
	// rejected in favour of local state.
	if s.FleetSkippedLocal == 0 {
		t.Errorf("stats = %+v, want FleetSkippedLocal > 0 (local observations win)", s)
	}
}

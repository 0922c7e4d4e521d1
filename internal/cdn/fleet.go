package cdn

import (
	"errors"
	"fmt"
	"time"

	"riptide/internal/core"
	"riptide/internal/eventsim"
)

// EnableFleetSharing starts periodic snapshot exchange between the machines
// of each PoP: every interval, each agent merges its same-PoP peers'
// exported tables under the given merge policy. Machines in one PoP serve
// the same remote destinations over the same WAN paths, so a peer's learned
// window is directly applicable — this is the simulated analogue of
// riptided's -peers pull loop. Call before Run; requires Riptide to be
// enabled.
func (c *Cluster) EnableFleetSharing(interval time.Duration, policy core.MergePolicy) error {
	if interval <= 0 {
		return fmt.Errorf("cdn: fleet-sharing interval %v must be positive", interval)
	}
	if !c.cfg.Riptide.Enabled {
		return errors.New("cdn: fleet sharing requires Riptide to be enabled")
	}
	tk, err := eventsim.NewTicker(c.engine, interval, func(time.Duration) {
		for _, p := range c.pops {
			hs := c.hosts[p.Name]
			if len(hs) < 2 {
				continue
			}
			// Export every machine's table first, so each merge sees its
			// peers' pre-round state rather than entries that already
			// travelled one hop this round.
			agents := make([]*core.Agent, len(hs))
			snaps := make([][]core.SnapshotEntry, len(hs))
			for i, h := range hs {
				if slot, ok := c.agents[h.Addr()]; ok && slot.agent != nil {
					agents[i] = slot.agent
					snaps[i] = slot.agent.ExportSnapshot()
				}
			}
			for i, a := range agents {
				if a == nil {
					continue
				}
				for j, snap := range snaps {
					if j == i || len(snap) == 0 {
						continue
					}
					// The simulated kernel cannot fail route programming;
					// merges against a just-rebooted (closed) agent are
					// skipped by the agent itself.
					_, _ = a.MergeSnapshot(snap, policy)
				}
			}
		}
	})
	if err != nil {
		return err
	}
	c.tickers = append(c.tickers, tk)
	return nil
}

// RebootHost simulates a single-machine maintenance reboot: machine idx of
// the named PoP loses all its connections (both ends), its kernel route
// table, and its Riptide agent's learned state, while the PoP's other
// machines keep running — the scenario fleet sharing exists to absorb. It
// returns the number of connections that died.
func (c *Cluster) RebootHost(name string, idx int) (int, error) {
	hs, ok := c.hosts[name]
	if !ok {
		return 0, fmt.Errorf("cdn: unknown PoP %q", name)
	}
	if idx < 0 || idx >= len(hs) {
		return 0, fmt.Errorf("cdn: PoP %s has no machine %d", name, idx)
	}
	h := hs[idx]
	closed := c.net.CloseConnsInvolving(h.Addr())
	for _, r := range h.Routes() {
		h.DelRoute(r.Prefix)
	}
	if slot, ok := c.agents[h.Addr()]; ok {
		_ = slot.agent.Close()
		if err := c.boot(slot, h); err != nil {
			return closed, fmt.Errorf("cdn: restart agent for %s[%d]: %w", name, idx, err)
		}
	}
	return closed, nil
}

// AgentAt returns the Riptide agent of machine idx of the named PoP (nil
// when Riptide is disabled or the index is out of range).
func (c *Cluster) AgentAt(name string, idx int) *core.Agent {
	hs := c.hosts[name]
	if idx < 0 || idx >= len(hs) {
		return nil
	}
	slot, ok := c.agents[hs[idx].Addr()]
	if !ok {
		return nil
	}
	return slot.agent
}

package cdn

import (
	"fmt"

	"riptide/internal/core"
)

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

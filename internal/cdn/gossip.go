package cdn

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"time"

	"riptide/internal/core"
	"riptide/internal/eventsim"
	"riptide/internal/fleet"
)

// GossipStats aggregates the wire cost of fleet gossip across the cluster.
// It is read from the counters the machines' fleet.Puller instances keep in
// the cluster's shared metrics registry, so it reports exactly what
// riptided's /metrics would. Rounds counts (receiver, peer) exchanges;
// exactly one of the per-mode counters increments per round. BytesOnWire is
// the gzip-compressed body size of everything the pullers received — the
// number the anti-entropy ladder exists to shrink.
type GossipStats struct {
	Rounds       int64
	DigestRounds int64
	DeltaRounds  int64
	BucketRounds int64
	// FullRounds counts whole-table rounds: full deltas on first contact
	// and, with the ladder off, every legacy snapshot pull.
	FullRounds   int64
	BytesOnWire  int64
	EntriesMoved int64
	// NotModifiedRounds counts the digest rounds whose ETag still matched
	// server-side, answered HTTP 304 — headers only, no body bytes at all.
	// Always a subset of DigestRounds.
	NotModifiedRounds int64
}

// EnableGossipSharing starts periodic table sync over a deterministic peer
// topology: every machine pulls from its same-PoP peers and from one machine
// of every other PoP, so a cold region re-learns the fleet's table without
// waiting for its own probes. Every machine runs riptided's fleet code — a
// fleet.Server on its agent and a fleet.Puller over its peers — connected by
// an in-process transport, so every exchange is the real request and the
// real gzip response. With gossip set the pullers walk the
// digest→delta→buckets→full ladder; without it every round is a legacy
// /fleet/snapshot pull of the whole table, the control arm that prices the
// ladder. The wire cost is accounted in GossipStats. Call before Run;
// requires Riptide to be enabled.
func (c *Cluster) EnableGossipSharing(interval time.Duration, policy core.MergePolicy, gossip bool) error {
	if interval <= 0 {
		return fmt.Errorf("cdn: gossip interval %v must be positive", interval)
	}
	if !c.cfg.Riptide.Enabled {
		return fmt.Errorf("cdn: gossip sharing requires Riptide to be enabled")
	}
	if c.gossip != nil {
		return fmt.Errorf("cdn: gossip sharing is already enabled")
	}
	c.gossip = &fleet.PullerConfig{
		Interval: interval,
		Policy:   policy,
		Client:   &http.Client{Transport: loopback{c}},
		Now:      c.simTime,
		Gossip:   gossip,
	}
	// Pull host by host in topology order (map iteration would break run
	// reproducibility). Slots are stable across reboots; their pullers are
	// not, so the ticker reads them through the slot.
	var slots []*agentSlot
	for pi, p := range c.pops {
		for i, h := range c.hosts[p.Name] {
			slot := c.agents[h.Addr()]
			slot.peers = c.gossipPeers(pi, i)
			if err := c.startPuller(slot); err != nil {
				return err
			}
			slots = append(slots, slot)
		}
	}
	tk, err := eventsim.NewTicker(c.engine, interval, func(time.Duration) {
		for _, slot := range slots {
			slot.puller.PullOnce(context.Background())
		}
	})
	if err != nil {
		return err
	}
	c.tickers = append(c.tickers, tk)
	return nil
}

// GossipStats returns the cumulative gossip wire accounting.
func (c *Cluster) GossipStats() GossipStats {
	n := func(name string) int64 { return int64(c.metrics.Counter(name).Value()) }
	s := GossipStats{
		DigestRounds:      n("riptide_gossip_rounds_" + fleet.ModeDigest),
		DeltaRounds:       n("riptide_gossip_rounds_" + fleet.ModeDelta),
		BucketRounds:      n("riptide_gossip_rounds_" + fleet.ModeBuckets),
		FullRounds:        n("riptide_gossip_rounds_"+fleet.ModeFull) + n("riptide_gossip_rounds_"+fleet.ModeSnapshot),
		BytesOnWire:       n("riptide_gossip_bytes_received"),
		EntriesMoved:      n("riptide_gossip_entries_received"),
		NotModifiedRounds: n("riptide_gossip_not_modified"),
	}
	s.Rounds = s.DigestRounds + s.DeltaRounds + s.BucketRounds + s.FullRounds
	return s
}

// SeedWarmEntries pre-populates every agent's table with n synthetic warm
// destinations, modeling a long-lived back-office fleet whose accumulated
// table dwarfs what a short simulation's own probes can learn. The table
// size is what the anti-entropy ladder's byte economics hinge on: a digest
// is O(1) in table size while a full snapshot is O(n), so a freshly
// started toy fleet understates the ladder's advantage badly. Call before
// Run; requires Riptide to be enabled.
func (c *Cluster) SeedWarmEntries(n int, policy core.MergePolicy) error {
	if n <= 0 {
		return fmt.Errorf("cdn: seed entry count %d must be positive", n)
	}
	if !c.cfg.Riptide.Enabled {
		return fmt.Errorf("cdn: seeding warm entries requires Riptide to be enabled")
	}
	seed := make([]core.SnapshotEntry, n)
	for i := range seed {
		// 198.18.0.0/15 (RFC 2544 benchmarking range) cannot collide with
		// the 10.0.0.0/8 addresses the simulated PoPs probe.
		seed[i] = core.SnapshotEntry{
			Prefix:  netip.PrefixFrom(netip.AddrFrom4([4]byte{198, byte(18 + i/65536), byte(i / 256 % 256), byte(i % 256)}), 32),
			Window:  10 + i%20,
			Samples: 50,
		}
	}
	for _, p := range c.pops {
		for _, h := range c.hosts[p.Name] {
			slot, ok := c.agents[h.Addr()]
			if !ok || slot.agent == nil {
				continue
			}
			if _, err := slot.agent.MergeSnapshot(seed, policy); err != nil {
				return fmt.Errorf("cdn: seed %s: %w", h.Addr(), err)
			}
		}
	}
	return nil
}

// gossipPeers builds machine i of PoP pi's peer list in topology order: every
// other machine of its PoP, then machine i of every other PoP.
func (c *Cluster) gossipPeers(pi, i int) []string {
	hs := c.hosts[c.pops[pi].Name]
	var out []string
	for j, peer := range hs {
		if j != i {
			out = append(out, peer.Addr().String())
		}
	}
	for qi, q := range c.pops {
		if qi == pi {
			continue
		}
		qh := c.hosts[q.Name]
		out = append(out, qh[i%len(qh)].Addr().String())
	}
	return out
}

// startPuller gives a slot's current agent a fresh puller — no cursors, the
// state a restarted riptided begins with.
func (c *Cluster) startPuller(slot *agentSlot) error {
	cfg := *c.gossip
	cfg.Agent = slot.agent
	cfg.Peers = slot.peers
	p, err := fleet.NewPuller(cfg)
	if err != nil {
		return err
	}
	slot.puller = p
	return nil
}

// simTime maps the simulation clock onto the wall-clock type the fleet
// code stamps and schedules with.
func (c *Cluster) simTime() time.Time { return time.Unix(0, 0).Add(c.engine.Now()) }

// loopback is the simulated fleet network: an http.RoundTripper that hands
// each request to the addressed machine's fleet handlers in-process. There
// are no sockets and no goroutines, so a pull round runs synchronously
// inside the event loop and every run is reproducible.
type loopback struct{ c *Cluster }

// RoundTrip implements http.RoundTripper.
func (l loopback) RoundTrip(req *http.Request) (*http.Response, error) {
	addr, err := netip.ParseAddr(req.URL.Host)
	if err != nil {
		return nil, fmt.Errorf("cdn: fleet peer %q: %w", req.URL.Host, err)
	}
	slot, ok := l.c.agents[addr]
	if !ok {
		return nil, fmt.Errorf("cdn: no fleet server at %v", addr)
	}
	rec := httptest.NewRecorder()
	// The mux records its routing decision on the request; serve a copy so
	// the caller's request stays unmodified, as RoundTrip requires.
	served := *req
	slot.serve.ServeHTTP(rec, &served)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

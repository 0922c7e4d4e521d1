package cdn

import (
	"fmt"
	"time"

	"riptide/internal/kernel"
	"riptide/internal/netsim"
)

// This file provides the incident primitives — fault and traffic knobs on a
// running Cluster — that the scenario engine (internal/scenario) schedules
// to reproduce the incidents the paper's Section II motivates: load shifts,
// path congestion, and state-destroying maintenance.

// SetPoPPathLoss sets the random loss rate on every path into and out of
// the named PoP, the blast radius of a regional network degradation.
func (c *Cluster) SetPoPPathLoss(name string, lossRate float64) error {
	hs, ok := c.hosts[name]
	if !ok {
		return fmt.Errorf("cdn: unknown PoP %q", name)
	}
	for _, other := range c.pops {
		if other.Name == name {
			continue
		}
		for _, h := range hs {
			for _, oh := range c.hosts[other.Name] {
				if err := c.net.SetPathLoss(h.Addr(), oh.Addr(), lossRate); err != nil {
					return err
				}
				if err := c.net.SetPathLoss(oh.Addr(), h.Addr(), lossRate); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// SetPoPPathCapacity sets the bottleneck capacity (segments per RTT, 0 =
// unlimited) on every path into and out of the named PoP — a capacity cut
// with site-wide blast radius, such as a backbone failure at the site's edge.
func (c *Cluster) SetPoPPathCapacity(name string, segments int) error {
	hs, ok := c.hosts[name]
	if !ok {
		return fmt.Errorf("cdn: unknown PoP %q", name)
	}
	for _, other := range c.pops {
		if other.Name == name {
			continue
		}
		for _, h := range hs {
			for _, oh := range c.hosts[other.Name] {
				if err := c.net.SetPathCapacity(h.Addr(), oh.Addr(), segments); err != nil {
					return err
				}
				if err := c.net.SetPathCapacity(oh.Addr(), h.Addr(), segments); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// pairHosts resolves two distinct PoPs to their machine lists.
func (c *Cluster) pairHosts(a, b string) (ha, hb []*kernel.Host, err error) {
	ha, ok := c.hosts[a]
	if !ok {
		return nil, nil, fmt.Errorf("cdn: unknown PoP %q", a)
	}
	hb, ok = c.hosts[b]
	if !ok {
		return nil, nil, fmt.Errorf("cdn: unknown PoP %q", b)
	}
	if a == b {
		return nil, nil, fmt.Errorf("cdn: PoP pair needs two distinct PoPs, got %q twice", a)
	}
	return ha, hb, nil
}

// SetPoPPairCapacity sets the bottleneck capacity on every path between two
// PoPs, in both directions — a cut confined to one inter-site link.
func (c *Cluster) SetPoPPairCapacity(a, b string, segments int) error {
	ha, hb, err := c.pairHosts(a, b)
	if err != nil {
		return err
	}
	for _, x := range ha {
		for _, y := range hb {
			if err := c.net.SetPathCapacity(x.Addr(), y.Addr(), segments); err != nil {
				return err
			}
			if err := c.net.SetPathCapacity(y.Addr(), x.Addr(), segments); err != nil {
				return err
			}
		}
	}
	return nil
}

// SetPoPPairRTT sets the round-trip time on every path between two PoPs, in
// both directions — a route flap onto a longer (or shorter) backbone path.
func (c *Cluster) SetPoPPairRTT(a, b string, rtt time.Duration) error {
	ha, hb, err := c.pairHosts(a, b)
	if err != nil {
		return err
	}
	for _, x := range ha {
		for _, y := range hb {
			if err := c.net.SetPathRTT(x.Addr(), y.Addr(), rtt); err != nil {
				return err
			}
			if err := c.net.SetPathRTT(y.Addr(), x.Addr(), rtt); err != nil {
				return err
			}
		}
	}
	return nil
}

// BaselinePairRTT returns the topology-derived RTT between two PoPs — the
// value paths between them were built with, and the one flaps restore.
func (c *Cluster) BaselinePairRTT(a, b string) (time.Duration, error) {
	pa, ok := c.byName[a]
	if !ok {
		return 0, fmt.Errorf("cdn: unknown PoP %q", a)
	}
	pb, ok := c.byName[b]
	if !ok {
		return 0, fmt.Errorf("cdn: unknown PoP %q", b)
	}
	return RTTBetween(pa, pb), nil
}

// PartitionPoPs blocks (or unblocks) every path between two PoPs. Blocking
// also force-closes the connections currently crossing the partition, like a
// real split kills established flows; it returns how many closed.
func (c *Cluster) PartitionPoPs(a, b string, blocked bool) (int, error) {
	ha, hb, err := c.pairHosts(a, b)
	if err != nil {
		return 0, err
	}
	closed := 0
	for _, x := range ha {
		for _, y := range hb {
			if err := c.net.SetPathBlocked(x.Addr(), y.Addr(), blocked); err != nil {
				return closed, err
			}
			if err := c.net.SetPathBlocked(y.Addr(), x.Addr(), blocked); err != nil {
				return closed, err
			}
			if blocked {
				closed += c.net.CloseConnsBetween(x.Addr(), y.Addr())
			}
		}
	}
	return closed, nil
}

// InjectTransfer sends one application transfer between PoPs through the
// cluster's connection pools, exactly like organic traffic. done may be nil.
func (c *Cluster) InjectTransfer(srcPoP, dstPoP string, bytes int64, done func(netsim.TransferResult)) error {
	src, ok := c.byName[srcPoP]
	if !ok {
		return fmt.Errorf("cdn: unknown PoP %q", srcPoP)
	}
	dst, ok := c.byName[dstPoP]
	if !ok {
		return fmt.Errorf("cdn: unknown PoP %q", dstPoP)
	}
	if src.Name == dst.Name {
		return fmt.Errorf("cdn: transfer within PoP %q", srcPoP)
	}
	srcHost := c.pickHost(src)
	dstHost := c.pickHost(dst)
	conn, _, err := c.grabConn(srcHost.Addr(), dstHost.Addr())
	if err != nil {
		return err
	}
	err = conn.Transfer(bytes, func(r netsim.TransferResult) {
		if done != nil {
			done(r)
		}
		c.releaseConn(conn)
	})
	if err != nil {
		conn.Close()
		return err
	}
	return nil
}

// ScheduleAt runs fn at the given offset from the current simulated time.
func (c *Cluster) ScheduleAt(after time.Duration, fn func()) error {
	_, err := c.engine.Schedule(after, fn)
	return err
}

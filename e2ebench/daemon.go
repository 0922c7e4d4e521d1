package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"riptide/internal/core"
	"riptide/internal/metrics"
	"riptide/internal/netlink"
)

// simClock is the simulated clock every workload runs on: the agent's
// Clock, the fleet Server's and Puller's now, all read it. The loop
// advances it one update interval per tick without sleeping.
type simClock struct {
	ns atomic.Int64
}

// epoch anchors simulated wall time for the fleet layer (snapshot stamps,
// backoff schedules).
var epoch = time.Date(2016, 6, 27, 0, 0, 0, 0, time.UTC)

func (c *simClock) since() time.Duration    { return time.Duration(c.ns.Load()) }
func (c *simClock) now() time.Time          { return epoch.Add(c.since()) }
func (c *simClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// daemon is one agent composed exactly as riptided composes its netlink
// backend: netlink.Sampler → core.Agent (default config: Shards 0, no
// FullRescan, no AggregateBits) → core.RetryingRouteProgrammer →
// netlink.Routes, sharing one metrics registry, over a fake kernel.
type daemon struct {
	kern    *Kernel
	sampler *netlink.Sampler
	routes  *netlink.Routes
	retry   *core.RetryingRouteProgrammer
	agent   *core.Agent
	reg     *metrics.Registry
}

// newDaemon builds one daemon over kern. With a tracer, the calls into
// each layer go through timing wrappers; without one, the composition is
// exactly riptided's. Like riptided it probes both backends and reconciles
// leftover routes before the first tick.
func newDaemon(ctx context.Context, kern *Kernel, clock *simClock, tr *tracer) (*daemon, error) {
	d := &daemon{kern: kern, reg: metrics.NewRegistry()}
	dial := netlink.DialFunc(kern.Dial)
	if tr != nil {
		dial = tracedDial(dial, tr)
	}
	var err error
	if d.sampler, err = netlink.NewSampler(netlink.SamplerConfig{Dial: dial}); err != nil {
		return nil, err
	}
	if err := core.ProbeBackend(d.sampler); err != nil {
		return nil, fmt.Errorf("probe sampler: %w", err)
	}
	if d.routes, err = netlink.NewRoutes(netlink.RoutesConfig{Dial: dial}); err != nil {
		return nil, err
	}
	if err := core.ProbeBackend(d.routes); err != nil {
		return nil, fmt.Errorf("probe routes: %w", err)
	}
	if _, err := d.routes.Reconcile(); err != nil {
		return nil, fmt.Errorf("reconcile: %w", err)
	}

	var inner core.RouteProgrammer = d.routes
	if tr != nil {
		inner = &tracedRoutes{inner: d.routes, tr: tr, kind: spanRoutes}
	}
	if d.retry, err = core.NewRetryingRouteProgrammer(inner, core.RetryPolicy{
		Context: ctx,
		Metrics: d.reg,
	}); err != nil {
		return nil, err
	}

	var sampler core.ConnectionSampler = d.sampler
	var programmer core.RouteProgrammer = d.retry
	if tr != nil {
		sampler = &tracedSampler{inner: d.sampler, tr: tr}
		programmer = &tracedRoutes{inner: d.retry, tr: tr, kind: spanRetry}
	}
	// riptided's flag defaults are the core defaults, so the zero config
	// fields below are exactly what it passes.
	d.agent, err = core.New(core.Config{
		Sampler: sampler,
		Routes:  programmer,
		Clock:   clock.since,
		Metrics: d.reg,
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// tick runs one Agent.Tick, inside a tick span when traced, and
// returns its wall time.
func (d *daemon) tick(tr *tracer) (time.Duration, error) {
	if tr != nil {
		i := tr.begin(spanTick)
		defer tr.end(i)
	}
	start := time.Now()
	err := d.agent.Tick()
	return time.Since(start), err
}

// checkRoutes compares the kernel route table with the agent's view:
// every entry installed at its window, nothing else installed.
func (d *daemon) checkRoutes() error {
	entries := d.agent.Entries()
	if len(entries) != len(d.kern.Routes) {
		return fmt.Errorf("kernel holds %d routes, agent %d entries", len(d.kern.Routes), len(entries))
	}
	for _, e := range entries {
		if w, ok := d.kern.Routes[e.Prefix]; !ok || w != e.Window {
			return fmt.Errorf("route %v: kernel initcwnd %d (installed %v), agent window %d", e.Prefix, w, ok, e.Window)
		}
	}
	return nil
}

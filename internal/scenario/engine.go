package scenario

import (
	"fmt"
	"math"
	"time"

	"riptide/internal/cdn"
	"riptide/internal/core"
	"riptide/internal/eventsim"
	"riptide/internal/guard"
	"riptide/internal/stats"
	"riptide/internal/workload"
)

// Run executes the scenario: the main run, the control run when a compare
// block is present, and the assertions over both runs' metrics. The report
// is deterministic — the same spec and seed always produce the same bytes.
func (sp *Spec) Run() (*Report, error) {
	rep := &Report{
		Schema:      ReportSchema,
		Scenario:    sp.Name,
		Description: sp.Description,
		Seed:        sp.Fleet.Seed,
		Duration:    sp.Duration.String(),
	}
	start, end := sp.phaseWindow()
	rep.Phases = PhaseBounds{
		Before: phaseSpan(0, start),
		During: phaseSpan(start, end),
		After:  phaseSpan(end, sp.Duration),
	}

	metrics := make(map[string]float64)
	mainName := "riptide"
	if !sp.Fleet.Riptide.Enabled {
		mainName = "control"
	}
	mainMetrics, err := sp.executeRun(runOverrides{})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %s run: %w", sp.Name, mainName, err)
	}
	rep.Runs = append(rep.Runs, RunReport{Name: mainName, Metrics: sortMetrics(mainName, mainMetrics, metrics)})

	if sp.Compare != nil {
		ctl, err := sp.executeRun(runOverrides{
			riptide: sp.Compare.Riptide,
			guard:   sp.Compare.Guard,
			gossip:  sp.Compare.Gossip,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario %s: control run: %w", sp.Name, err)
		}
		rep.Runs = append(rep.Runs, RunReport{Name: "control", Metrics: sortMetrics("control", ctl, metrics)})
	}

	rep.Pass = true
	for _, a := range sp.Assertions {
		res := a.Eval(metrics)
		rep.Assertions = append(rep.Assertions, res)
		if !res.Pass {
			rep.Pass = false
		}
	}
	return rep, nil
}

// phaseWindow resolves the "during" phase: the explicit window block when
// present, otherwise the union of the events' disruption windows, otherwise
// the whole run.
func (sp *Spec) phaseWindow() (time.Duration, time.Duration) {
	if sp.Window != nil {
		return sp.Window.Start, sp.Window.End
	}
	start, end := time.Duration(-1), time.Duration(-1)
	for _, ev := range sp.Events {
		s, e := ev.Payload.window(ev.At, sp.Duration)
		if s == 0 && e == 0 {
			continue
		}
		if start < 0 || s < start {
			start = s
		}
		if e > end {
			end = e
		}
	}
	if start < 0 {
		return 0, sp.Duration
	}
	if end > sp.Duration {
		end = sp.Duration
	}
	return start, end
}

// affectedPoPs unions the events' blast radii; empty means "no filter".
func (sp *Spec) affectedPoPs() map[string]bool {
	out := make(map[string]bool)
	for _, ev := range sp.Events {
		for _, p := range ev.Payload.affected() {
			out[p] = true
		}
	}
	return out
}

// runOverrides derives the control run from the main spec.
type runOverrides struct {
	riptide *bool
	guard   *bool
	gossip  *bool
}

// runState accumulates per-run observations that the event callbacks and the
// metrics ticker write.
type runState struct {
	winStart, winEnd time.Duration

	// Retransmit / probe-failure counters sampled at phase boundaries.
	retransAtStart, retransAtEnd int64
	sawStart, sawEnd             bool

	// Gossip wire bytes sampled at the same boundaries (gossipOn is set
	// when an enable_gossip_sharing event actually started the exchange).
	gossipOn                   bool
	gossipAtStart, gossipAtEnd int64

	// Safety-governor observations.
	guardOn    bool
	quarMax    int
	quarSeen   bool
	quarSeenAt time.Duration
	// Route-recovery tracking (first tracked reboot event).
	tracking     bool
	rebootAt     time.Duration
	targetRoutes int
	recovered    bool
	recoveryTick int
}

// clusterConfig translates the fleet block, with the control run's
// overrides applied, into the simulated cluster's configuration.
func (sp *Spec) clusterConfig(ov runOverrides) (cdn.Config, error) {
	fleet := sp.Fleet
	riptideOn := fleet.Riptide.Enabled
	if ov.riptide != nil {
		riptideOn = *ov.riptide
	}
	guardSpec := fleet.Riptide.Guard
	if ov.guard != nil && !*ov.guard {
		guardSpec = nil
	}
	pops, err := fleet.ResolvePoPs()
	if err != nil {
		return cdn.Config{}, err
	}

	cfg := cdn.Config{
		PoPs:             pops,
		HostsPerPoP:      fleet.HostsPerPoP,
		Seed:             fleet.Seed,
		LossRate:         fleet.LossRate,
		RTTJitter:        fleet.RTTJitter,
		CapacitySegments: fleet.CapacitySegments,
		Riptide: cdn.RiptideOptions{
			Enabled:        riptideOn,
			CMax:           fleet.Riptide.CMax,
			CMin:           fleet.Riptide.CMin,
			Alpha:          fleet.Riptide.Alpha,
			UpdateInterval: fleet.Riptide.UpdateInterval,
			TTL:            fleet.Riptide.TTL,
			PrefixBits:     fleet.Riptide.PrefixBits,
		},
		Traffic: cdn.TrafficOptions{
			ProbeInterval:          fleet.Traffic.ProbeInterval,
			CloseAfterTransferProb: fleet.Traffic.CloseAfterTransferProb,
			IdleTimeout:            fleet.Traffic.IdleTimeout,
		},
	}
	if riptideOn && guardSpec != nil {
		cfg.Riptide.Guard = &guard.Config{
			Holdback:        guardSpec.Holdback,
			MinSegments:     guardSpec.MinSegments,
			HysteresisTicks: guardSpec.HysteresisTicks,
			QuarantineTTL:   guardSpec.QuarantineTTL,
		}
	}
	for _, kb := range fleet.Traffic.ProbeSizesKB {
		cfg.Traffic.ProbeSizes = append(cfg.Traffic.ProbeSizes, kb*1024)
	}
	if len(fleet.Traffic.Organic) > 0 {
		cfg.Traffic.OrganicRates = make(map[string]float64, len(fleet.Traffic.Organic))
		for _, o := range fleet.Traffic.Organic {
			cfg.Traffic.OrganicRates[o.PoP] = o.Rate
		}
	}
	if fleet.Traffic.OrganicSizeKB > 0 {
		cfg.Traffic.OrganicSizes = workload.Constant(fleet.Traffic.OrganicSizeKB * 1024)
	}
	return cfg, nil
}

func (sp *Spec) executeRun(ov runOverrides) (map[string]float64, error) {
	cfg, err := sp.clusterConfig(ov)
	if err != nil {
		return nil, err
	}
	c, err := cdn.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	riptideOn := cfg.Riptide.Enabled

	st := &runState{guardOn: cfg.Riptide.Guard != nil}
	st.winStart, st.winEnd = sp.phaseWindow()

	ladder := ov.gossip == nil || *ov.gossip
	for _, ev := range sp.Events {
		if err := applyEvent(c, ev, st, riptideOn, ladder, sp.Fleet.LossRate); err != nil {
			return nil, fmt.Errorf("event at %v (%s): %w", ev.At, ev.Kind, err)
		}
	}

	// Phase-boundary samples of the cumulative counters. Boundaries at the
	// very start or end of the run are read directly instead of scheduled.
	if st.winStart > 0 && st.winStart < sp.Duration {
		if err := c.ScheduleAt(st.winStart, func() {
			st.retransAtStart = c.TotalRetransmits()
			st.gossipAtStart = c.GossipStats().BytesOnWire
			st.sawStart = true
		}); err != nil {
			return nil, err
		}
	}
	if st.winEnd > 0 && st.winEnd < sp.Duration {
		if err := c.ScheduleAt(st.winEnd, func() {
			st.retransAtEnd = c.TotalRetransmits()
			st.gossipAtEnd = c.GossipStats().BytesOnWire
			st.sawEnd = true
		}); err != nil {
			return nil, err
		}
	}

	// The 1 s observer drives quarantine and route-recovery bookkeeping.
	// It is created after the cluster's own tickers, so at equal timestamps
	// the agents have already ticked when it looks.
	tick, err := eventsim.NewTicker(c.Engine(), time.Second, func(now time.Duration) {
		if st.guardOn && !st.quarSeen {
			if n := c.QuarantineCount(); n > 0 {
				st.quarSeen = true
				st.quarSeenAt = now
			}
		}
		if st.guardOn {
			if n := c.QuarantineCount(); n > st.quarMax {
				st.quarMax = n
			}
		}
		if st.tracking && !st.recovered && now >= st.rebootAt {
			if c.TotalRoutes() >= st.targetRoutes {
				st.recovered = true
				st.recoveryTick = int((now - st.rebootAt) / time.Second)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	defer tick.Stop()

	c.Run(sp.Duration)

	metrics := sp.collect(c, st)
	c.Stop()
	return metrics, nil
}

// applyEvent schedules one parsed event onto the cluster through the cdn
// primitives. Parse already range-checked the payload, so the callbacks
// cannot fail on their arguments. Recovery-tracking snapshots are scheduled
// before the event itself so the FIFO order at equal timestamps reads the
// pre-reboot route count.
func applyEvent(c *cdn.Cluster, ev Event, st *runState, riptideOn, ladder bool, baselineLoss float64) error {
	switch p := ev.Payload.(type) {
	case *CapacityCutEvent:
		set := func(segments int) {
			if p.From != "" {
				_ = c.SetPoPPairCapacity(p.From, p.PoP, segments)
			} else {
				_ = c.SetPoPPathCapacity(p.PoP, segments)
			}
		}
		return scheduleEpisode(c, ev.At, p.For, func() { set(p.Segments) }, func() { set(p.RestoreSegments) })
	case *HostRebootEvent:
		if p.TrackRecovery > 0 {
			if err := scheduleRecoverySnapshot(c, st, ev.At, p.TrackRecovery); err != nil {
				return err
			}
		}
		return c.ScheduleAt(ev.At, func() {
			_, _ = c.RebootHost(p.PoP, p.Host)
		})
	case *RollingRebootsEvent:
		if p.TrackRecovery > 0 {
			if err := scheduleRecoverySnapshot(c, st, ev.At, p.TrackRecovery); err != nil {
				return err
			}
		}
		for i, name := range p.PoPs {
			if err := c.ScheduleAt(ev.At+time.Duration(i)*p.Interval, func() {
				_, _ = c.RebootPoP(name)
			}); err != nil {
				return err
			}
		}
		return nil
	case *FlashCrowdEvent:
		size := int64(p.SizeKB) * 1024
		if size == 0 {
			size = 100 * 1024
		}
		// Fixed-interval injections approximate the burst deterministically.
		// The crowd fetches FROM the target, so the hot data flows
		// target -> edge.
		gap := time.Duration(float64(time.Second) / p.RatePerPoP)
		for _, src := range c.PoPs() {
			if src.Name == p.Target {
				continue
			}
			for off := ev.At; off < ev.At+p.For; off += gap {
				if err := c.ScheduleAt(off, func() {
					_ = c.InjectTransfer(p.Target, src.Name, size, nil)
				}); err != nil {
					return err
				}
			}
		}
		return nil
	case *PathFlapEvent:
		base, err := c.BaselinePairRTT(p.A, p.B)
		if err != nil {
			return err
		}
		flapped := time.Duration(float64(base) * p.RTTScale)
		if flapped <= 0 {
			return fmt.Errorf("rtt_scale %v underflows the %v baseline", p.RTTScale, base)
		}
		return scheduleEpisode(c, ev.At, p.For,
			func() { _ = c.SetPoPPairRTT(p.A, p.B, flapped) },
			func() { _ = c.SetPoPPairRTT(p.A, p.B, base) })
	case *PeerPartitionEvent:
		return scheduleEpisode(c, ev.At, p.For,
			func() { _, _ = c.PartitionPoPs(p.A, p.B, true) },
			func() { _, _ = c.PartitionPoPs(p.A, p.B, false) })
	case *DegradationEvent:
		return scheduleEpisode(c, ev.At, p.For,
			func() { _ = c.SetPoPPathLoss(p.PoP, p.LossRate) },
			func() { _ = c.SetPoPPathLoss(p.PoP, baselineLoss) })
	case *GossipSharingEvent:
		if !riptideOn {
			return nil // a control run without agents has nothing to sync
		}
		if p.SeedEntries > 0 {
			if err := c.SeedWarmEntries(p.SeedEntries, core.MergePolicy{}); err != nil {
				return err
			}
		}
		if err := c.EnableGossipSharing(p.Interval, core.MergePolicy{}, ladder); err != nil {
			return err
		}
		st.gossipOn = true
		return nil
	case *KnobEvent:
		return c.ScheduleAt(ev.At, func() { applyKnob(c, p) })
	}
	return fmt.Errorf("unhandled event kind %q", ev.Kind)
}

// scheduleEpisode runs start at the given time and end dur later; a zero
// dur leaves the episode in force for the rest of the run.
func scheduleEpisode(c *cdn.Cluster, at, dur time.Duration, start, end func()) error {
	if err := c.ScheduleAt(at, start); err != nil {
		return err
	}
	if dur == 0 {
		return nil
	}
	return c.ScheduleAt(at+dur, end)
}

func scheduleRecoverySnapshot(c *cdn.Cluster, st *runState, at time.Duration, frac float64) error {
	if st.tracking {
		return fmt.Errorf("track_recovery set on more than one event")
	}
	st.tracking = true
	st.rebootAt = at
	return c.ScheduleAt(at, func() {
		st.targetRoutes = int(math.Ceil(frac * float64(c.TotalRoutes())))
	})
}

func applyKnob(c *cdn.Cluster, k *KnobEvent) {
	switch k.Knob {
	case KnobPoPLoss:
		_ = c.SetPoPPathLoss(k.PoP, k.Value)
	case KnobPoPCapacity:
		_ = c.SetPoPPathCapacity(k.PoP, int(k.Value))
	case KnobPairCapacity:
		_ = c.SetPoPPairCapacity(k.A, k.B, int(k.Value))
	case KnobPairRTTMs:
		_ = c.SetPoPPairRTT(k.A, k.B, time.Duration(k.Value*float64(time.Millisecond)))
	}
}

// collect turns the run's raw observations into the flat metric map the
// assertions evaluate against.
func (sp *Spec) collect(c *cdn.Cluster, st *runState) map[string]float64 {
	m := make(map[string]float64)

	// Retransmits by phase, from the cumulative counter's boundary samples.
	total := c.TotalRetransmits()
	atStart, atEnd := st.retransAtStart, st.retransAtEnd
	if !st.sawStart {
		if st.winStart <= 0 {
			atStart = 0
		} else {
			atStart = total // window started at/after the end of the run
		}
	}
	if !st.sawEnd {
		if st.winEnd >= sp.Duration {
			atEnd = total
		} else {
			atEnd = atStart
		}
	}
	m["retrans.before"] = float64(atStart)
	m["retrans.during"] = float64(atEnd - atStart)
	m["retrans.after"] = float64(total - atEnd)
	m["retrans.total"] = float64(total)

	// Probe completion CDFs by phase, filtered to the blast radius.
	affected := sp.affectedPoPs()
	phases := map[string]*stats.CDF{
		"before": stats.NewCDF(0), "during": stats.NewCDF(0), "after": stats.NewCDF(0), "total": stats.NewCDF(0),
	}
	for _, pr := range c.ProbeRecords() {
		if len(affected) > 0 && !affected[pr.Src] && !affected[pr.Dst] {
			continue
		}
		if sp.ProbeFilter.SizeKB > 0 && pr.SizeBytes != sp.ProbeFilter.SizeKB*1024 {
			continue
		}
		if sp.ProbeFilter.FreshOnly && !pr.FreshConn {
			continue
		}
		ms := float64(pr.Elapsed) / float64(time.Millisecond)
		phases[sp.phaseOf(pr.At)].Add(ms)
		phases["total"].Add(ms)
	}
	for name, cdf := range phases {
		m["probes."+name] = float64(cdf.Len())
		if cdf.Len() == 0 {
			continue
		}
		m["probe_ms.p50."+name] = cdf.MustPercentile(50)
		m["probe_ms.p90."+name] = cdf.MustPercentile(90)
		m["probe_ms.p99."+name] = cdf.MustPercentile(99)
		if mean, err := cdf.Mean(); err == nil {
			m["probe_ms.mean."+name] = mean
		}
	}

	// Probe open failures by phase — the partition fingerprint.
	fails := map[string]float64{"before": 0, "during": 0, "after": 0}
	for _, f := range c.ProbeFailures() {
		if len(affected) > 0 && !affected[f.Src] && !affected[f.Dst] {
			continue
		}
		fails[sp.phaseOf(f.At)]++
	}
	for name, n := range fails {
		m["probe_failures."+name] = n
	}
	m["probe_failures.total"] = fails["before"] + fails["during"] + fails["after"]

	m["routes.end"] = float64(c.TotalRoutes())

	// Gossip wire accounting, with bytes split by phase the same way as
	// retransmits so assertions can price the steady state separately from
	// the incident window.
	if st.gossipOn {
		gs := c.GossipStats()
		gAtStart, gAtEnd := st.gossipAtStart, st.gossipAtEnd
		if !st.sawStart {
			if st.winStart <= 0 {
				gAtStart = 0
			} else {
				gAtStart = gs.BytesOnWire
			}
		}
		if !st.sawEnd {
			if st.winEnd >= sp.Duration {
				gAtEnd = gs.BytesOnWire
			} else {
				gAtEnd = gAtStart
			}
		}
		m["gossip.bytes.before"] = float64(gAtStart)
		m["gossip.bytes.during"] = float64(gAtEnd - gAtStart)
		m["gossip.bytes.after"] = float64(gs.BytesOnWire - gAtEnd)
		m["gossip.bytes.total"] = float64(gs.BytesOnWire)
		m["gossip.rounds.total"] = float64(gs.Rounds)
		m["gossip.rounds.digest"] = float64(gs.DigestRounds)
		m["gossip.rounds.delta"] = float64(gs.DeltaRounds)
		m["gossip.rounds.buckets"] = float64(gs.BucketRounds)
		m["gossip.rounds.full"] = float64(gs.FullRounds)
		m["gossip.rounds.not_modified"] = float64(gs.NotModifiedRounds)
		m["gossip.entries_moved"] = float64(gs.EntriesMoved)
	}

	if st.guardOn {
		m["quarantines"] = float64(st.quarMax)
		if st.quarSeen {
			ticks := (st.quarSeenAt - st.winStart) / time.Second
			if ticks < 1 {
				ticks = 1
			}
			m["quarantine_ticks"] = float64(ticks)
		}
	}
	if st.tracking {
		if st.recovered {
			m["recovery_ticks"] = float64(st.recoveryTick)
		} else {
			// Censored: recovery had not completed when the run ended.
			m["recovery_ticks"] = float64((sp.Duration - st.rebootAt) / time.Second)
			m["recovery_censored"] = 1
		}
	}
	return m
}

func (sp *Spec) phaseOf(at time.Duration) string {
	start, end := sp.phaseWindow()
	switch {
	case at < start:
		return "before"
	case at < end:
		return "during"
	default:
		return "after"
	}
}

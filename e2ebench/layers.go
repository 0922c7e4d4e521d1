package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload. A
// "step" is one turn of the workload's closed loop: an Agent.Tick on the
// daemon workloads, one simulated second of the whole fleet on
// fleet-propagation, one Spec.Run (main and control run) on sim-outcome.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"step_p50_ms", "ms"},
	{"cpu_ms_per_sim_s", "ms"},
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	// netlink, sampling side
	{"netlink.dump_ms", "ms"},
	{"netlink.kernel_ms", "ms"},
	{"netlink.decode_ms", "ms"},
	{"netlink.sockets_per_dump", "count"},
	{"netlink.dump_kb", "KiB"},
	// core, the agent's stage histograms and tick bookkeeping
	{"core.tick_ms", "ms"},
	{"core.sample_ms", "ms"},
	{"core.plan_ms", "ms"},
	{"core.commit_ms", "ms"},
	{"core.program_ms", "ms"},
	{"core.tick_self_ms", "ms"},
	{"core.stage_share_pct", "%"},
	{"core.route_ops_per_tick", "count"},
	{"core.expired_per_tick", "count"},
	{"core.entries", "count"},
	{"core.ops_per_changed_dest", "ratio"},
	{"core.merge_accept_ratio", "ratio"},
	// core retry decorator and netlink routes
	{"retry.batches_per_tick", "count"},
	{"retry.retries", "count"},
	{"retry.batch_fallbacks", "count"},
	{"retry.self_ms", "ms"},
	{"netlink.route_batch_ms", "ms"},
	{"netlink.route_kernel_ms", "ms"},
	{"netlink.route_ops_per_batch", "count"},
	{"netlink.route_failures", "count"},
	// fleet serve
	{"fleet.serve_us_p50", "us"},
	{"fleet.requests_per_interval", "count"},
	{"fleet.not_modified_ratio", "ratio"},
	{"fleet.cache_hit_ratio", "ratio"},
	{"fleet.serve_misses_per_interval", "count"},
	// fleet pull and core merge
	{"fleet.pull_ms", "ms"},
	{"fleet.pull_self_ms", "ms"},
	{"fleet.rounds_digest", "count"},
	{"fleet.rounds_delta", "count"},
	{"fleet.rounds_buckets", "count"},
	{"fleet.rounds_full", "count"},
	{"fleet.pull_failures", "count"},
	{"fleet.propagation_rounds_p50", "intervals"},
	{"fleet.propagation_kb", "KiB"},
	// gossip wire
	{"gossip.kb_per_interval", "KiB"},
	{"gossip.digest_kb_share", "ratio"},
	// scenario / cdn simulator
	{"scenario.main_s", "s"},
	{"scenario.control_s", "s"},
	{"cdn.gossip_kb", "KiB"},
	{"cdn.gossip_rounds", "count"},
	{"cdn.probes", "count"},
	{"cdn.probe_speedup_p50", "ratio"},
	{"cdn.probe_speedup_p90", "ratio"},
	// the run itself
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"run.max_rss_mb", "MB"},
	{"run.step_p99_ms", "ms"},
	{"run.sim_rate", "s/s"},
	{"error_rate", "ratio"},
}

// Counter indices. Everything is cumulative except the gauges noted.
const (
	cTicks = iota
	cObservations
	cRoutesSet
	cRoutesCleared
	cExpired
	cMerged
	cOffered
	cBatches
	cRetries
	cBatchFallbacks
	cExhausted
	cDumpBytes
	cRouteSends
	cRouteMsgs
	cRouteFailures
	cTickN
	cTickNs
	cSampleN
	cSampleNs
	cPlanN
	cPlanNs
	cCommitN
	cCommitNs
	cProgramN
	cProgramNs
	cChangedDests // destinations whose sockets the generator changed
	cRequests     // fleet HTTP requests through the transport
	cNotModified
	cCacheHits
	cCacheMisses
	cWire       // fleet response body bytes the pullers read
	cDigestWire // the digest endpoint's share of cWire
	cRoundsDigest
	cRoundsDelta
	cRoundsBuckets
	cRoundsFull
	cPulls
	cPullFailures
	cPropagated // new destinations that reached every agent
	cEntries    // gauge: learned entries summed over agents
	cAgents     // gauge
	numCounters
)

// counters is a snapshot of every layer counter, summed over agents.
type counters [numCounters]uint64

// sub returns c minus an earlier snapshot b; gauges keep c's value.
func (c counters) sub(b counters) counters {
	var d counters
	for i := range c {
		d[i] = c[i] - b[i]
	}
	d[cEntries], d[cAgents] = c[cEntries], c[cAgents]
	return d
}

// addDaemon folds one daemon's agent, retry, kernel and histogram
// counters into c.
func (c *counters) addDaemon(d *daemon) {
	st := d.agent.Stats()
	rs := d.retry.Stats()
	c[cTicks] += st.Ticks
	c[cObservations] += st.Observations
	c[cRoutesSet] += st.RoutesSet
	c[cRoutesCleared] += st.RoutesCleared
	c[cExpired] += st.EntriesExpired
	c[cMerged] += st.FleetMerged
	c[cOffered] += st.FleetMerged + st.FleetSkippedLocal + st.FleetSkippedStale + st.FleetSkippedQuarantined
	c[cBatches] += rs.Batches
	c[cRetries] += rs.Retries
	c[cBatchFallbacks] += rs.BatchFallbacks
	c[cExhausted] += rs.Exhausted
	c[cDumpBytes] += d.kern.DumpBytes
	c[cRouteSends] += d.kern.RouteSends
	c[cRouteMsgs] += d.kern.RouteMsgs
	c[cRouteFailures] += d.kern.RouteFailure
	for _, h := range []struct {
		name   string
		n, sum int
	}{
		{"riptide_tick_duration", cTickN, cTickNs},
		{"riptide_sample_duration", cSampleN, cSampleNs},
		{"riptide_plan_duration", cPlanN, cPlanNs},
		{"riptide_commit_duration", cCommitN, cCommitNs},
		{"riptide_program_duration", cProgramN, cProgramNs},
	} {
		s := d.reg.Histogram(h.name).Snapshot()
		c[h.n] += s.Count
		c[h.sum] += uint64(s.SumNanos)
	}
	m := d.reg
	c[cPulls] += m.Counter("riptide_peer_pulls").Value()
	c[cPullFailures] += m.Counter("riptide_peer_pull_errors").Value()
	c[cRoundsDigest] += m.Counter("riptide_gossip_rounds_digest").Value()
	c[cRoundsDelta] += m.Counter("riptide_gossip_rounds_delta").Value()
	c[cRoundsBuckets] += m.Counter("riptide_gossip_rounds_buckets").Value()
	c[cRoundsFull] += m.Counter("riptide_gossip_rounds_full").Value() + m.Counter("riptide_gossip_rounds_snapshot").Value()
	c[cEntries] += uint64(len(d.agent.Entries()))
	c[cAgents]++
}

// layerMetrics computes the per-layer metrics every workload shares from
// the traced phase's counters and span summaries. Ratios over work a
// workload never does come out 0.
func layerMetrics(m map[string]float64, ls loopStats, s [numSpanKinds]spanSummary) {
	d := ls.after.sub(ls.before)
	f := func(i int) float64 { return float64(d[i]) }
	ticks := f(cTicks)
	histMean := func(n, ns int) float64 { return ratio(f(ns)/1e6, f(n)) }
	spanMean := func(k int, total int64) float64 { return ratio(ms(total), float64(s[k].count)) }

	m["netlink.dump_ms"] = ratio(ms(int64(s[spanSample].total)), ticks)
	m["netlink.kernel_ms"] = ratio(ms(int64(s[spanKernelDiag].total)), ticks)
	m["netlink.decode_ms"] = ratio(ms(int64(s[spanSample].self)), ticks)
	m["netlink.sockets_per_dump"] = ratio(f(cObservations), ticks)
	m["netlink.dump_kb"] = ratio(f(cDumpBytes)/1024, ticks)

	m["core.tick_ms"] = histMean(cTickN, cTickNs)
	m["core.sample_ms"] = histMean(cSampleN, cSampleNs)
	m["core.plan_ms"] = histMean(cPlanN, cPlanNs)
	m["core.commit_ms"] = histMean(cCommitN, cCommitNs)
	m["core.program_ms"] = histMean(cProgramN, cProgramNs)
	m["core.tick_self_ms"] = ratio(ms(int64(s[spanTick].self)), ticks)
	m["core.stage_share_pct"] = 100 * ratio(f(cSampleNs)+f(cPlanNs)+f(cCommitNs)+f(cProgramNs), f(cTickNs))
	m["core.route_ops_per_tick"] = ratio(f(cRoutesSet)+f(cRoutesCleared), ticks)
	m["core.expired_per_tick"] = ratio(f(cExpired), ticks)
	m["core.entries"] = ratio(f(cEntries), f(cAgents))
	m["core.ops_per_changed_dest"] = ratio(f(cRoutesSet)+f(cRoutesCleared), f(cChangedDests))
	m["core.merge_accept_ratio"] = ratio(f(cMerged), f(cOffered))

	m["retry.batches_per_tick"] = ratio(f(cBatches), ticks)
	m["retry.retries"] = f(cRetries)
	m["retry.batch_fallbacks"] = f(cBatchFallbacks)
	m["retry.self_ms"] = spanMean(spanRetry, int64(s[spanRetry].self))
	m["netlink.route_batch_ms"] = spanMean(spanRoutes, int64(s[spanRoutes].total))
	m["netlink.route_kernel_ms"] = ratio(ms(int64(s[spanKernelRoute].total)), float64(s[spanRoutes].count))
	m["netlink.route_ops_per_batch"] = ratio(f(cRouteMsgs), f(cRouteSends))
	m["netlink.route_failures"] = f(cRouteFailures)

	intervals := ls.sim.Seconds() / gossipInterval.Seconds()
	m["fleet.serve_us_p50"] = 1000 * percentile(s[spanServe].durs, 50)
	m["fleet.requests_per_interval"] = ratio(f(cRequests), intervals)
	m["fleet.not_modified_ratio"] = ratio(f(cNotModified), f(cRequests))
	m["fleet.cache_hit_ratio"] = ratio(f(cCacheHits), f(cCacheHits)+f(cCacheMisses))
	m["fleet.serve_misses_per_interval"] = ratio(f(cCacheMisses), intervals)
	m["fleet.pull_ms"] = spanMean(spanPull, int64(s[spanPull].total))
	m["fleet.pull_self_ms"] = spanMean(spanPull, int64(s[spanPull].total-s[spanServe].total))
	m["fleet.rounds_digest"] = ratio(f(cRoundsDigest), f(cPropagated))
	m["fleet.rounds_delta"] = ratio(f(cRoundsDelta), f(cPropagated))
	m["fleet.rounds_buckets"] = ratio(f(cRoundsBuckets), f(cPropagated))
	m["fleet.rounds_full"] = ratio(f(cRoundsFull), f(cPropagated))
	m["fleet.pull_failures"] = f(cPullFailures)
	m["fleet.propagation_kb"] = ratio(f(cWire)/1024, f(cPropagated))
	m["gossip.kb_per_interval"] = ratio(f(cWire)/1024, intervals)
	m["gossip.digest_kb_share"] = ratio(f(cDigestWire), f(cWire))
}

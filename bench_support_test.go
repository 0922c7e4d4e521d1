package riptide

import (
	"net/netip"
	"time"
)

// syntheticObservations builds an n-connection observed table over distinct
// IPv4 hosts (unique up to 250^3 connections) with varied windows, RTTs and
// byte counts: the shape of a busy host's socket dump. Hosts fill /24s
// densely, so prefix aggregation sees realistic covering groups.
func syntheticObservations(n int) []Observation {
	obs := make([]Observation, n)
	for i := range obs {
		obs[i] = Observation{
			Dst:        netip.AddrFrom4([4]byte{10, byte(i / 62500 % 250), byte(i / 250 % 250), byte(1 + i%250)}),
			Cwnd:       10 + i%90,
			RTT:        time.Duration(20+i%200) * time.Millisecond,
			BytesAcked: int64(i) * 1500,
		}
	}
	return obs
}

// tableSampler appends a fixed table into the agent's buffer every round,
// as netlink.Sampler appends each fresh dump: equal observations in a
// backing array the agent owns.
type tableSampler []Observation

func (s tableSampler) SampleConnections(buf []Observation) ([]Observation, error) {
	return append(buf, s...), nil
}

// churnSampler changes the window of about 1 in frac entries of its private
// table each round, then appends the table into the agent's buffer.
type churnSampler struct {
	table []Observation
	frac  int
	round int
}

func (s *churnSampler) SampleConnections(buf []Observation) ([]Observation, error) {
	s.round++
	n := len(s.table)
	for j := 0; j < n/s.frac; j++ {
		o := &s.table[(j*9973+s.round*31337)%n]
		o.Cwnd = 10 + (o.Cwnd+s.round+j)%90
	}
	return append(buf, s.table...), nil
}

// nopRoutes discards route programs, so the benchmarks measure the agent
// alone.
type nopRoutes struct{}

func (nopRoutes) SetInitCwnd(netip.Prefix, int) error { return nil }
func (nopRoutes) ClearInitCwnd(netip.Prefix) error    { return nil }

// nopBatchRoutes adds the batch surface, exercising the agent's batched
// programming path.
type nopBatchRoutes struct{ nopRoutes }

func (nopBatchRoutes) ProgramRoutes([]RouteOp) []error { return nil }

// newSyntheticBackend builds an n-connection sampler, a no-op route sink,
// and a fixed clock for agent micro-benchmarks.
func newSyntheticBackend(n int) (ConnectionSampler, RouteProgrammer, func() time.Duration) {
	return tableSampler(syntheticObservations(n)), nopRoutes{}, func() time.Duration { return 0 }
}

// newModeBackend picks the sampler matching a tick-series mode: a steady
// table (churnFrac 0) or a deterministic 1-in-churnFrac per-round window
// churn, over the batched route surface.
func newModeBackend(n, churnFrac int) (ConnectionSampler, RouteProgrammer, func() time.Duration) {
	var sampler ConnectionSampler = tableSampler(syntheticObservations(n))
	if churnFrac > 0 {
		sampler = &churnSampler{table: syntheticObservations(n), frac: churnFrac}
	}
	return sampler, nopBatchRoutes{}, func() time.Duration { return 0 }
}

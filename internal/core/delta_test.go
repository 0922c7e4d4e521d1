package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the delta-driven tick: for any observation stream, the delta
// path (sample caching, clean-group reuse, the quiescent stable round,
// next-expiry gating) must produce byte-identical route programs, entries,
// stats, and error text to a full rescan of the same stream.

// ownSliceSampler ignores the agent's buffer and returns its own unchanged
// slice every round, as the ConnectionSampler contract permits. No shipped
// sampler does this; the agent must still treat the round as an ordinary
// positionally-stable one.
type ownSliceSampler []Observation

func (s ownSliceSampler) SampleConnections([]Observation) ([]Observation, error) {
	return s, nil
}

// modeResult captures everything the determinism contract covers.
type modeResult struct {
	ops      []string
	entries  []Entry
	stats    Stats
	tickErrs []string
}

// runModeSchedule drives one agent over the schedule with 30s tick spacing
// (so TTL expiry fires for destinations that churn out) and records its
// complete observable output.
func runModeSchedule(t *testing.T, shards int, fullRescan bool, aggBits int, rounds [][]Observation) modeResult {
	t.Helper()
	routes := &recordingBatchRoutes{}
	var now atomic.Int64
	cfg := Config{
		Sampler:    &playbackSampler{rounds: rounds},
		Routes:     routes,
		Clock:      func() time.Duration { return time.Duration(now.Load()) },
		PrefixBits: 24,
		Shards:     shards,
		FullRescan: fullRescan,
	}
	if aggBits > 0 {
		cfg.AggregateBits = aggBits
		cfg.AggregateMinChildren = 4
		cfg.AggregateTolerance = 2
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tickErrs []string
	for range rounds {
		now.Add(int64(30 * time.Second))
		if err := a.Tick(); err != nil {
			tickErrs = append(tickErrs, err.Error())
		}
	}
	return modeResult{ops: routes.recorded(), entries: a.Entries(), stats: a.Stats(), tickErrs: tickErrs}
}

// compareModes diffs the delta run against the full-rescan reference.
func compareModes(t *testing.T, label string, full, delta modeResult) {
	t.Helper()
	if !reflect.DeepEqual(delta.ops, full.ops) {
		t.Errorf("%s: route-op stream diverged (delta %d ops, full %d)", label, len(delta.ops), len(full.ops))
		for i := range delta.ops {
			if i < len(full.ops) && delta.ops[i] != full.ops[i] {
				t.Errorf("first divergence at op %d:\n  delta %s\n  full  %s", i, delta.ops[i], full.ops[i])
				break
			}
		}
	}
	if !reflect.DeepEqual(delta.entries, full.entries) {
		t.Errorf("%s: learned table diverged (%d vs %d entries)", label, len(delta.entries), len(full.entries))
	}
	if delta.stats != full.stats {
		t.Errorf("%s: stats diverged:\n  delta %+v\n  full  %+v", label, delta.stats, full.stats)
	}
	if !reflect.DeepEqual(delta.tickErrs, full.tickErrs) {
		t.Errorf("%s: tick errors diverged:\n  delta %q\n  full  %q", label, delta.tickErrs, full.tickErrs)
	}
}

// TestDeltaTickMatchesFullRescan drives the standard determinism schedule —
// churn, drifting windows, invalid samples, expiry — through both modes at
// several shard counts and demands identical output.
func TestDeltaTickMatchesFullRescan(t *testing.T) {
	rounds := determinismRounds(6, 900)
	for _, shards := range []int{1, 2, 4, 8} {
		full := runModeSchedule(t, shards, true, 0, rounds)
		if len(full.ops) == 0 || len(full.entries) == 0 {
			t.Fatalf("full-rescan reference did nothing: %d ops, %d entries", len(full.ops), len(full.entries))
		}
		delta := runModeSchedule(t, shards, false, 0, rounds)
		compareModes(t, fmt.Sprintf("shards=%d", shards), full, delta)
	}
}

// randomRounds evolves a seeded random observation stream with persistence:
// most observations repeat byte-identically between rounds (the delta fast
// path), a slice mutate their windows, some destinations sit rounds out, and
// a few invalid samples ride along.
func randomRounds(seed int64, roundCount, n int) [][]Observation {
	r := rand.New(rand.NewSource(seed))
	cur := make([]Observation, n)
	for i := range cur {
		cur[i] = Observation{
			Dst:        netip.AddrFrom4([4]byte{10, byte(r.Intn(40)), byte(r.Intn(200)), byte(1 + r.Intn(4))}),
			Cwnd:       10 + r.Intn(90),
			RTT:        time.Duration(20+r.Intn(200)) * time.Millisecond,
			BytesAcked: int64(r.Intn(100)) * 1500,
		}
	}
	out := make([][]Observation, roundCount)
	for round := 0; round < roundCount; round++ {
		next := make([]Observation, 0, n)
		for i := range cur {
			switch {
			case r.Float64() < 0.05: // churn out this round
				continue
			case r.Float64() < 0.10: // window moves
				cur[i].Cwnd = 10 + r.Intn(90)
			case r.Float64() < 0.02: // invalid: must be skipped identically
				o := cur[i]
				o.Cwnd = 0
				next = append(next, o)
				continue
			}
			next = append(next, cur[i])
		}
		out[round] = next
	}
	return out
}

// TestDeltaTickMatchesFullRescanRandom repeats the equivalence check over
// randomized streams and seeds; run with -race to also exercise the cache
// backfill writes from parallel plan workers.
func TestDeltaTickMatchesFullRescanRandom(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rounds := randomRounds(seed, 8, 1200)
		for _, shards := range []int{1, 4} {
			full := runModeSchedule(t, shards, true, 0, rounds)
			delta := runModeSchedule(t, shards, false, 0, rounds)
			compareModes(t, fmt.Sprintf("seed=%d/shards=%d", seed, shards), full, delta)
		}
	}
}

// TestDeltaTickMatchesFullRescanWithAggregation runs the equivalence check
// with prefix aggregation enabled, so formation, absorption, splits, and
// dissolution all happen identically in both modes.
func TestDeltaTickMatchesFullRescanWithAggregation(t *testing.T) {
	rounds := determinismRounds(6, 900)
	for _, shards := range []int{1, 4} {
		full := runModeSchedule(t, shards, true, 16, rounds)
		delta := runModeSchedule(t, shards, false, 16, rounds)
		compareModes(t, fmt.Sprintf("agg/shards=%d", shards), full, delta)
	}
}

// quiescentRounds evolves a stream whose membership and positions stay
// fixed — the shape the stable-round fast path (planShardQuiescent) is
// built for. Most rounds mutate a few windows in place (some with large
// swings, some with one-segment nudges, so freeze horizons of every length
// occur); some rounds change nothing at all; a handful shuffle membership
// or inject an invalid sample, forcing a full rebuild in the middle of a
// quiescent run and exercising the lazy-credit settlement either side of it.
func quiescentRounds(seed int64, roundCount, n int) [][]Observation {
	r := rand.New(rand.NewSource(seed))
	cur := make([]Observation, n)
	for i := range cur {
		cur[i] = Observation{
			Dst:        netip.AddrFrom4([4]byte{10, byte(r.Intn(30)), byte(r.Intn(150)), byte(1 + r.Intn(4))}),
			Cwnd:       10 + r.Intn(90),
			RTT:        time.Duration(20+r.Intn(200)) * time.Millisecond,
			BytesAcked: int64(r.Intn(100)) * 1500,
		}
	}
	out := make([][]Observation, roundCount)
	for round := range out {
		switch {
		case round == 0:
			// Seed round: install the table.
		case round%11 == 0:
			// Membership change: drop the tail, add fresh destinations.
			k := 1 + r.Intn(3)
			cur = cur[:len(cur)-k]
			for j := 0; j < k; j++ {
				cur = append(cur, Observation{
					Dst:  netip.AddrFrom4([4]byte{10, 200, byte(round), byte(1 + j)}),
					Cwnd: 10 + r.Intn(90),
				})
			}
		case round%13 == 0:
			// An invalid sample surfaces at a stable position: the validity
			// change must divert to a full rebuild identically in both modes
			// (and the destination, no longer covered, must TTL out on
			// schedule unless a later mutation revives it).
			cur[r.Intn(len(cur))].Cwnd = 0
		case round%7 == 0:
			// Nothing moves: fully stable content on a fresh backing array.
		default:
			for j := 0; j < 1+n/25; j++ {
				i := r.Intn(len(cur))
				if r.Intn(2) == 0 {
					cur[i].Cwnd = 10 + r.Intn(90)
				} else if cur[i].Cwnd < 99 {
					cur[i].Cwnd++
				} else {
					cur[i].Cwnd = 10
				}
			}
		}
		out[round] = append([]Observation(nil), cur...)
	}
	return out
}

// TestQuiescentTickMatchesFullRescan pins the stable-round fast path to the
// full-rescan reference over positionally-stable streams: byte-identical
// route programs, entries (lazy TTL/sample credit included), stats, and
// errors across seeds and shard counts, through mid-run rebuilds, invalid
// injections, freeze/park drains and re-dirties.
func TestQuiescentTickMatchesFullRescan(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rounds := quiescentRounds(seed, 42, 600)
		for _, shards := range []int{1, 4, 8} {
			full := runModeSchedule(t, shards, true, 0, rounds)
			if len(full.ops) == 0 || len(full.entries) == 0 {
				t.Fatalf("full-rescan reference did nothing: %d ops, %d entries", len(full.ops), len(full.entries))
			}
			delta := runModeSchedule(t, shards, false, 0, rounds)
			compareModes(t, fmt.Sprintf("seed=%d/shards=%d", seed, shards), full, delta)
		}
	}
}

// TestStableRoundsEngageQuiescentPath guards the fast path against silent
// rot: a positionally-stable schedule must actually be planned by
// planShardQuiescent (observable as the shards' clean-round counters
// advancing), not fall back to full rebuilds — equivalence alone would hold
// either way.
func TestStableRoundsEngageQuiescentPath(t *testing.T) {
	base := make([]Observation, 400)
	for i := range base {
		base[i] = Observation{
			Dst:  netip.AddrFrom4([4]byte{10, 3, byte(i / 200), byte(1 + i%200)}),
			Cwnd: 10 + i%90,
			RTT:  50 * time.Millisecond,
		}
	}
	rounds := make([][]Observation, 9)
	for r := range rounds {
		rounds[r] = append([]Observation(nil), base...)
		if r > 0 {
			// In-place window mutations only: positions and membership fixed.
			for j := 0; j < 4; j++ {
				rounds[r][(r*37+j*101)%len(base)].Cwnd = 10 + (r*13+j)%90
			}
		}
	}
	var now atomic.Int64
	a, err := New(Config{
		Sampler: &playbackSampler{rounds: rounds},
		Routes:  nopRoutes{},
		Clock:   func() time.Duration { return time.Duration(now.Load()) },
		Shards:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	for range rounds {
		now.Add(int64(time.Second))
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	var clean uint64
	for _, sh := range a.shards {
		clean += sh.cleanRounds
	}
	// Round 0 installs, round 1 is the first with a previous stream; all 8
	// subsequent rounds are positionally stable on every shard.
	if want := uint64(8 * len(a.shards)); clean != want {
		t.Fatalf("clean-round counters sum to %d, want %d: stable rounds fell back to full rebuilds", clean, want)
	}
}

// TestIdentStreamRefreshesTTL pins a sampler that returns its own backing
// slice every round: the delta tick compares the slice with itself and takes
// the stable-round path, but smoothing and TTL refresh must still run —
// otherwise entries would expire mid-stream here.
func TestIdentStreamRefreshesTTL(t *testing.T) {
	obs := make([]Observation, 300) // past parallelThreshold
	for i := range obs {
		obs[i] = Observation{
			Dst:  netip.AddrFrom4([4]byte{10, 0, byte(i / 200), byte(1 + i%200)}),
			Cwnd: 40,
			RTT:  50 * time.Millisecond,
		}
	}
	routes := &recordingRoutes{}
	var now atomic.Int64
	a, err := New(Config{
		Sampler: ownSliceSampler(obs),
		Routes:  routes,
		Clock:   func() time.Duration { return time.Duration(now.Load()) },
		Shards:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	// 10 ticks spaced at half the default 90s TTL: every destination is
	// re-observed each round, so nothing may expire.
	for i := 0; i < 10; i++ {
		now.Add(int64(45 * time.Second))
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(a.Entries()); got != 300 {
		t.Fatalf("entries = %d after identical-stream ticks, want 300", got)
	}
	st := a.Stats()
	if st.EntriesExpired != 0 {
		t.Errorf("EntriesExpired = %d, want 0", st.EntriesExpired)
	}
	// Steady state programs each route exactly once.
	if got := len(routes.recorded()); got != 300 {
		t.Errorf("route ops = %d, want 300 (one install per destination)", got)
	}
	if w, ok := a.Lookup(obs[0].Dst); !ok || w != 40 {
		t.Errorf("Lookup = %d,%v want 40,true", w, ok)
	}
}

// TestExpiryFiresUnderDelta verifies the next-expiry index does not sit on
// lapsed TTLs: a destination that stops being observed is withdrawn once its
// TTL passes, even though later rounds never mark its shard dirty.
func TestExpiryFiresUnderDelta(t *testing.T) {
	keep := Observation{Dst: netip.MustParseAddr("10.1.0.1"), Cwnd: 30, RTT: 40 * time.Millisecond}
	gone := Observation{Dst: netip.MustParseAddr("10.2.0.1"), Cwnd: 30, RTT: 40 * time.Millisecond}
	rounds := [][]Observation{
		{keep, gone},
		{keep},
		{keep},
		{keep},
	}
	routes := &recordingRoutes{}
	var now atomic.Int64
	a, err := New(Config{
		Sampler: &playbackSampler{rounds: rounds},
		Routes:  routes,
		Clock:   func() time.Duration { return time.Duration(now.Load()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	for range rounds {
		now.Add(int64(30 * time.Second))
		if err := a.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// gone was last refreshed at t=30s; with the default 90s TTL it lapses
	// at t=120s, the final tick.
	if _, ok := a.Lookup(gone.Dst); ok {
		t.Error("expired destination still resolves")
	}
	if _, ok := a.Lookup(keep.Dst); !ok {
		t.Error("refreshed destination lost")
	}
	if st := a.Stats(); st.EntriesExpired != 1 {
		t.Errorf("EntriesExpired = %d, want 1", st.EntriesExpired)
	}
	want := fmt.Sprintf("clear %v", netip.PrefixFrom(gone.Dst, 32))
	found := false
	for _, op := range routes.recorded() {
		if op == want {
			found = true
		}
	}
	if !found {
		t.Errorf("ops %q missing %q", routes.recorded(), want)
	}
}

// BenchmarkExpirePassNoop is the regression guard for the next-expiry index:
// an expiry round where no TTL can have fired must cost O(shards), not a
// scan of every state under the shard locks.
func BenchmarkExpirePassNoop(b *testing.B) {
	const conns = 100_000
	obs := make([]Observation, conns)
	for i := range obs {
		obs[i] = Observation{
			Dst:  netip.AddrFrom4([4]byte{10, byte(i / 62500 % 250), byte(i / 250 % 250), byte(1 + i%250)}),
			Cwnd: 10 + i%90,
			RTT:  50 * time.Millisecond,
		}
	}
	a, err := New(Config{
		Sampler: ownSliceSampler(obs),
		Routes:  nopRoutes{},
		Clock:   func() time.Duration { return 0 },
		Shards:  8,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	if err := a.Tick(); err != nil { // install the table
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Clock is pinned at 0 and every TTL is 90s out: nothing can fire.
		if err := a.expirePass(time.Nanosecond); err != nil {
			b.Fatal(err)
		}
	}
}

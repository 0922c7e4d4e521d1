package gossip

import (
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"riptide/internal/core"
)

type stubSampler struct {
	mu  sync.Mutex
	obs []core.Observation
}

func (s *stubSampler) SampleConnections(buf []core.Observation) ([]core.Observation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf = append(buf, s.obs...)
	s.obs = nil
	return buf, nil
}

type memRoutes struct {
	mu  sync.Mutex
	set map[netip.Prefix]int
}

func newMemRoutes() *memRoutes { return &memRoutes{set: make(map[netip.Prefix]int)} }

func (r *memRoutes) SetInitCwnd(p netip.Prefix, cwnd int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.set[p] = cwnd
	return nil
}

func (r *memRoutes) ClearInitCwnd(p netip.Prefix) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.set, p)
	return nil
}

func obs(t *testing.T, addr string, cwnd int) core.Observation {
	t.Helper()
	a, err := netip.ParseAddr(addr)
	if err != nil {
		t.Fatalf("ParseAddr(%q): %v", addr, err)
	}
	return core.Observation{Dst: a, Cwnd: cwnd}
}

func entries(n int) []Entry {
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Entry{
			Prefix:  netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1}), 32).String(),
			Window:  10 + i%50,
			Samples: uint64(i + 1),
		})
	}
	return out
}

// TestDigestOrderIndependent: the digest is a pure function of the entry
// set — shuffling the slice, or differing sample counts / ages / mod
// versions, must not change it.
func TestDigestOrderIndependent(t *testing.T) {
	base := entries(200)
	d1 := Compute(base, "a", "i1", 7)

	shuffled := append([]Entry(nil), base...)
	rand.New(rand.NewSource(42)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	churned := make([]Entry, len(shuffled))
	copy(churned, shuffled)
	for i := range churned {
		churned[i].Samples += 1000
		churned[i].AgeNanos += int64(time.Minute)
		churned[i].ModVersion += 99
	}
	d2 := Compute(churned, "b", "i2", 900)
	if !ContentEqual(d1, d2) {
		t.Fatal("digest changed under shuffle + samples/age/version churn")
	}

	// Durable content changes do move it: a window change...
	mod := append([]Entry(nil), base...)
	mod[17].Window++
	if ContentEqual(d1, Compute(mod, "a", "i1", 7)) {
		t.Fatal("window change not reflected in digest")
	}
	// ...a quarantine flip...
	mod = append([]Entry(nil), base...)
	mod[17].Quarantined = true
	if ContentEqual(d1, Compute(mod, "a", "i1", 7)) {
		t.Fatal("quarantine flip not reflected in digest")
	}
	// ...and a removed entry.
	if ContentEqual(d1, Compute(base[1:], "a", "i1", 7)) {
		t.Fatal("removed entry not reflected in digest")
	}
}

func TestDiffBucketsIsolatesChange(t *testing.T) {
	base := entries(300)
	d1 := Compute(base, "", "", 0)

	mod := append([]Entry(nil), base...)
	mod[123].Window += 5
	d2 := Compute(mod, "", "", 0)

	diff := DiffBuckets(d1, d2)
	if len(diff) != 1 {
		t.Fatalf("diff = %v, want exactly one bucket", diff)
	}
	if want := BucketOf(base[123].Prefix); diff[0] != want {
		t.Fatalf("diff bucket %d, want %d", diff[0], want)
	}

	// Fetching the divergent bucket returns the changed entry.
	got := FilterBuckets(mod, diff)
	found := false
	for _, e := range got {
		if e.Prefix == mod[123].Prefix && e.Window == mod[123].Window {
			found = true
		}
	}
	if !found {
		t.Fatalf("FilterBuckets(%v) = %d entries, changed entry missing", diff, len(got))
	}
	if len(got) >= len(mod) {
		t.Fatalf("bucket fetch returned %d of %d entries — no narrowing", len(got), len(mod))
	}

	if d := DiffBuckets(d1, d1); len(d) != 0 {
		t.Fatalf("self-diff = %v, want empty", d)
	}
}

func TestDigestRoundTrip(t *testing.T) {
	d := Compute(entries(10), "host-a", "inst-1", 42)
	data, err := EncodeDigest(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDigest(data)
	if err != nil {
		t.Fatal(err)
	}
	if !ContentEqual(d, got) || got.Instance != "inst-1" || got.TableVersion != 42 || got.Source != "host-a" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestDecodeDigestRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":        `{"version": 1,`,
		"zero version":   `{"buckets": []}`,
		"future version": `{"version": 2, "buckets": []}`,
		"short buckets":  `{"version": 1, "buckets": [1, 2, 3]}`,
		"long buckets":   `{"version": 1, "count": 1, "buckets": [` + longBuckets(NumBuckets+1) + `]}`,
		"negative count": `{"version": 1, "count": -1, "buckets": [` + longBuckets(NumBuckets) + `]}`,
		"wrong type":     `[1, 2]`,
	}
	for name, data := range cases {
		if _, err := DecodeDigest([]byte(data)); err == nil {
			t.Errorf("%s: DecodeDigest accepted %q", name, data)
		}
	}
}

func longBuckets(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			s += ","
		}
		s += "0"
	}
	return s
}

func TestDeltaRoundTrip(t *testing.T) {
	d := Delta{
		Version:      WireVersion,
		Source:       "host-a",
		Instance:     "inst-1",
		TableVersion: 42,
		Since:        40,
		Entries:      entries(3),
	}
	data, err := EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDelta(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.TableVersion != 42 || got.Since != 40 || len(got.Entries) != 3 || got.Full {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range got.Entries {
		if got.Entries[i] != d.Entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got.Entries[i], d.Entries[i])
		}
	}
}

func TestDecodeDeltaRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":        `{"version": 1,`,
		"zero version":   `{"entries": []}`,
		"future version": `{"version": 2, "entries": []}`,
		"wrong type":     `"delta"`,
	}
	for name, data := range cases {
		if _, err := DecodeDelta([]byte(data)); err == nil {
			t.Errorf("%s: DecodeDelta accepted %q", name, data)
		}
	}
}

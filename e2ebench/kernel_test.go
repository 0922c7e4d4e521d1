package main

import (
	"errors"
	"math/rand"
	"net/netip"
	"sort"
	"testing"

	"riptide/internal/core"
	"riptide/internal/netlink"
)

// sampleAll dumps the kernel through the shipped netlink.Sampler.
func sampleAll(t *testing.T, s *netlink.Sampler) []core.Observation {
	t.Helper()
	obs, err := s.SampleConnections(nil)
	if err != nil {
		t.Fatal(err)
	}
	return obs
}

func sortObs(obs []core.Observation) {
	sort.Slice(obs, func(i, j int) bool {
		a, b := obs[i], obs[j]
		if a.Dst != b.Dst {
			return a.Dst.Less(b.Dst)
		}
		if a.Cwnd != b.Cwnd {
			return a.Cwnd < b.Cwnd
		}
		return a.BytesAcked < b.BytesAcked
	})
}

// TestPatchedDumpDecodesToTable patches, adds and removes sockets in place
// and checks that every dump decodes through netlink.Sampler to exactly the
// generator's table, across datagram boundaries.
func TestPatchedDumpDecodesToTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := NewKernel()
	want := make(map[int]core.Observation)
	for i := 0; i < 3*recsPerDgram+17; i++ {
		o := observe(rng, uint32(rng.Intn(500)))
		want[k.AddSocket(o)] = o
	}
	s, err := netlink.NewSampler(netlink.SamplerConfig{Dial: k.Dial})
	if err != nil {
		t.Fatal(err)
	}
	check := func(round int) {
		got := sampleAll(t, s)
		exp := make([]core.Observation, 0, len(want))
		for _, o := range want {
			exp = append(exp, o)
		}
		sortObs(got)
		sortObs(exp)
		if len(got) != len(exp) {
			t.Fatalf("round %d: dump has %d sockets, table %d", round, len(got), len(exp))
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("round %d: socket %d decoded as %+v, table has %+v", round, i, got[i], exp[i])
			}
		}
	}
	check(0)
	for round := 1; round <= 5; round++ {
		handles := make([]int, 0, len(want))
		for h := range want {
			handles = append(handles, h)
		}
		sort.Ints(handles)
		for n := 0; n < 40; n++ {
			h := handles[rng.Intn(len(handles))]
			if _, ok := want[h]; !ok {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				o := observe(rng, uint32(rng.Intn(500)))
				k.SetSocket(h, o)
				want[h] = o
			case 1:
				k.RemoveSocket(h)
				delete(want, h)
			default:
				o := observe(rng, uint32(rng.Intn(500)))
				want[k.AddSocket(o)] = o
			}
		}
		check(round)
	}
	if k.Len() != len(want) {
		t.Fatalf("kernel holds %d sockets, table %d", k.Len(), len(want))
	}
}

// TestRoutesReachKernelTable programs routes through the shipped
// netlink.Routes and checks the kernel's route map and its acks.
func TestRoutesReachKernelTable(t *testing.T) {
	k := NewKernel()
	r, err := netlink.NewRoutes(netlink.RoutesConfig{Dial: k.Dial})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ProbeBackend(r); err != nil {
		t.Fatalf("probe: %v", err)
	}
	p := func(id uint32) netip.Prefix { return netip.PrefixFrom(destAddr(id), 32) }
	var ops []core.RouteOp
	for id := uint32(0); id < 300; id++ {
		ops = append(ops, core.RouteOp{Prefix: p(id), Window: 10 + int(id%50)})
	}
	if errs := r.ProgramRoutes(ops); errs != nil {
		t.Fatalf("program: %v", errs)
	}
	errs := r.ProgramRoutes([]core.RouteOp{{Prefix: p(3), Clear: true}, {Prefix: p(9999), Clear: true}})
	if errs == nil || errs[0] != nil || !errors.Is(errs[1], netlink.Errno(errnoESRCH)) {
		t.Fatalf("clear acks = %v, want success then ESRCH", errs)
	}
	if len(k.Routes) != 299 {
		t.Fatalf("kernel holds %d routes, want 299", len(k.Routes))
	}
	if _, ok := k.Routes[p(3)]; ok {
		t.Fatal("cleared route still installed")
	}
	if w := k.Routes[p(42)]; w != 10+42%50 {
		t.Fatalf("route %v initcwnd %d", p(42), w)
	}
	listed, err := r.ListRiptideRoutes()
	if err != nil || len(listed) != 299 {
		t.Fatalf("route dump listed %d routes (err %v), want 299", len(listed), err)
	}
}

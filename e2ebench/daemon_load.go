package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"riptide/internal/core"
)

// daemonLoad drives one composed daemon over a churning socket table: the
// daemon-steady and daemon-turnover workloads. Each step mutates the fake
// kernel's table (O(churn)), advances the simulated clock one update
// interval, and runs Agent.Tick; the step latency is the tick's wall time.
type daemonLoad struct {
	sockets  int     // open sockets
	dests    int     // steady: destinations, sockets spread evenly over them
	churn    float64 // steady: fraction of sockets whose cwnd changes per tick
	turnover float64 // turnover: fraction of sockets closed and reopened per tick
	window   int     // turnover: destination ids a reopened socket draws from
	slide    int     // turnover: ids the window advances per tick
	warmup   int     // ticks run in setup

	rng     *rand.Rand
	clock   *simClock
	d       *daemon
	handles []int    // kernel handle per socket
	dst     []uint32 // destination id per socket
	offset  int      // turnover window start
	changed map[uint32]struct{}
	nChange uint64
}

// newSteady: about 100k sockets over 20k destinations, five pooled
// connections per back-office destination, 1% of sockets changing cwnd
// per tick, no turnover.
func newSteady() *daemonLoad {
	return &daemonLoad{sockets: 100_000, dests: 20_000, churn: 0.01, warmup: 10}
}

// newTurnover: about 10k sockets, 10% closing and reopening per tick to
// destinations drawn from a sliding pool twice the socket count, so
// destinations arrive, go silent, expire at the 90 s TTL and get cleared.
func newTurnover() *daemonLoad {
	return &daemonLoad{sockets: 10_000, turnover: 0.10, window: 20_000, slide: 100,
		warmup: 20_000/100 + int(core.DefaultTTL/time.Second) + 30}
}

// destAddr maps a destination id to its IPv4 address inside 10.0.0.0/8.
func destAddr(id uint32) netip.Addr {
	v := 10<<24 | (id+1)&0xffffff
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// mix is a 32-bit integer hash: per-destination path properties derive
// from the id, so they need no table.
func mix(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// observe draws one socket's state on destination id: the path's base
// window (12–91 segments, from the id) plus per-connection jitter.
func observe(rng *rand.Rand, id uint32) core.Observation {
	h := mix(id)
	return core.Observation{
		Dst:        destAddr(id),
		Cwnd:       12 + int(h%80) + rng.Intn(9) - 4,
		RTT:        time.Duration(10+(h>>8)%190) * time.Millisecond,
		BytesAcked: rng.Int63n(1 << 30),
		SegsOut:    rng.Int63n(1 << 20),
	}
}

func (w *daemonLoad) setup(ctx context.Context, seed int64, tr *tracer) error {
	w.rng = rand.New(rand.NewSource(seed))
	w.clock = &simClock{}
	w.changed = make(map[uint32]struct{})
	kern := NewKernel()
	w.handles = make([]int, w.sockets)
	w.dst = make([]uint32, w.sockets)
	for i := range w.handles {
		id := uint32(i % max(w.dests, 1))
		if w.window > 0 {
			id = uint32(w.rng.Intn(w.window))
		}
		w.dst[i] = id
		w.handles[i] = kern.AddSocket(observe(w.rng, id))
	}
	var err error
	if w.d, err = newDaemon(ctx, kern, w.clock, tr); err != nil {
		return err
	}
	for i := 0; i < w.warmup; i++ {
		if _, err := w.step(nil); err != nil {
			return fmt.Errorf("warm-up tick %d: %w", i, err)
		}
	}
	return nil
}

// mutate applies one tick's churn to the kernel table.
func (w *daemonLoad) mutate() {
	clear(w.changed)
	if w.turnover > 0 {
		w.offset += w.slide
		for n := int(float64(w.sockets) * w.turnover); n > 0; n-- {
			i := w.rng.Intn(w.sockets)
			w.changed[w.dst[i]] = struct{}{}
			w.dst[i] = uint32(w.offset + w.rng.Intn(w.window))
			w.changed[w.dst[i]] = struct{}{}
			w.d.kern.SetSocket(w.handles[i], observe(w.rng, w.dst[i]))
		}
	} else {
		for n := int(float64(w.sockets) * w.churn); n > 0; n-- {
			i := w.rng.Intn(w.sockets)
			w.changed[w.dst[i]] = struct{}{}
			w.d.kern.SetSocket(w.handles[i], observe(w.rng, w.dst[i]))
		}
	}
	w.nChange += uint64(len(w.changed))
}

func (w *daemonLoad) step(tr *tracer) (time.Duration, error) {
	w.mutate()
	w.clock.advance(core.DefaultUpdateInterval)
	return w.d.tick(tr)
}

func (w *daemonLoad) simPerStep() time.Duration { return core.DefaultUpdateInterval }

func (w *daemonLoad) counters() counters {
	var c counters
	c.addDaemon(w.d)
	c[cChangedDests] = w.nChange
	return c
}

func (w *daemonLoad) traced(*tracer) error { return nil }

// finish checks that the kernel route table equals the agent's view.
func (w *daemonLoad) finish(map[string]float64) (uint64, uint64, error) {
	if err := w.d.checkRoutes(); err != nil {
		return 1, 1, err
	}
	return 1, 0, nil
}

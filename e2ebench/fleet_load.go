package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/netip"
	"time"

	"riptide/internal/core"
	"riptide/internal/fleet"
)

// gossipInterval is the fleet's pull cadence (riptided -gossip-interval).
const gossipInterval = 5 * time.Second

const (
	intervalSec = int64(gossipInterval / time.Second)
	tickSec     = int64(core.DefaultUpdateInterval / time.Second)
)

// fleetLoad is the fleet-propagation workload: in-process agents, each a
// composed daemon over its own small fake kernel, serving fleet.Server and
// pulling peers with fleet.Puller over the in-process transport. One step
// is one simulated second: every agent ticks, and the agents whose pull
// phase falls on this second pull their peers. Every newEvery seconds one
// agent opens connections to a brand-new destination; the benchmark
// records how many gossip intervals it takes to reach every agent's
// Lookup. Those connections close after newLife seconds, so the learned
// destination later expires everywhere and the tables stay stationary.
type fleetLoad struct {
	agents      int
	poolDests   int // shared destination pool
	localDests  int // pool destinations each agent talks to itself
	sockPerDest int
	churn       float64 // fraction of pool sockets whose cwnd changes per tick
	fanout      int
	newEvery    int64 // seconds between brand-new destinations
	newLife     int64 // seconds a brand-new destination's sockets stay open

	ctx     context.Context
	rng     *rand.Rand
	clock   *simClock
	tp      *transport
	members []*member
	sec     int64
	nextID  uint32
	pending []*newDest
	rounds  []float64 // propagation rounds of destinations that reached everyone
	done    uint64
	learned uint64
	// lost counts new destinations whose sockets closed before they
	// reached every agent; draining stops new ones at run end.
	lost     uint64
	draining bool
}

type member struct {
	d       *daemon
	handles []int    // the agent's own pool sockets
	dst     []uint32 // their destination ids
	srv     *fleet.Server
	puller  *fleet.Puller
	phase   int64 // pulls on seconds where (sec+phase) % intervalSec == 0
}

// newDest is one brand-new destination on its way through the fleet.
type newDest struct {
	addr     netip.Addr
	writer   int
	handles  []int
	retireAt int64
	learned  int64 // second the writer's Lookup first held it; -1 before
	reached  bool
}

func newFleetLoad() *fleetLoad {
	return &fleetLoad{agents: 32, poolDests: 1000, localDests: 40, sockPerDest: 5,
		churn: 0.005, fanout: 3, newEvery: 2 * intervalSec, newLife: 60}
}

func hostName(i int) string { return fmt.Sprintf("agent%02d", i) }

func (w *fleetLoad) setup(ctx context.Context, seed int64, tr *tracer) error {
	w.ctx = ctx
	w.rng = rand.New(rand.NewSource(seed))
	w.clock = &simClock{}
	w.tp = newTransport(tr)
	w.nextID = uint32(w.poolDests)
	covered := make(map[uint32]bool)
	for i := 0; i < w.agents; i++ {
		kern := NewKernel()
		m := &member{phase: int64(i) % intervalSec}
		for _, id := range w.rng.Perm(w.poolDests)[:w.localDests] {
			covered[uint32(id)] = true
			for s := 0; s < w.sockPerDest; s++ {
				m.handles = append(m.handles, kern.AddSocket(observe(w.rng, uint32(id))))
				m.dst = append(m.dst, uint32(id))
			}
		}
		d, err := newDaemon(ctx, kern, w.clock, tr)
		if err != nil {
			return err
		}
		host := hostName(i)
		m.d = d
		m.srv = fleet.NewServer(d.agent, host, host+"-boot1", w.clock.now)
		w.tp.mount(host, m.srv)
		w.members = append(w.members, m)
	}
	// Partial pull mesh with fanout 3: the ring successor guarantees every
	// agent is pulled by at least one peer; the rest are random.
	for i, m := range w.members {
		peers := []int{(i + 1) % w.agents}
		for len(peers) < w.fanout {
			p := w.rng.Intn(w.agents)
			if p != i && !contains(peers, p) {
				peers = append(peers, p)
			}
		}
		urls := make([]string, len(peers))
		for k, p := range peers {
			urls[k] = fleet.NormalizePeerURL("http://" + hostName(p))
		}
		var err error
		m.puller, err = fleet.NewPuller(fleet.PullerConfig{
			Agent:    m.d.agent,
			Peers:    urls,
			Interval: gossipInterval,
			Client:   &http.Client{Transport: w.tp},
			Now:      w.clock.now,
			Gossip:   true,
		})
		if err != nil {
			return err
		}
	}
	// Converge: every agent learns the whole covered pool by merges.
	for n := int64(0); !w.holdsAll(covered); n++ {
		if n > 60*intervalSec {
			return fmt.Errorf("fleet did not converge on %d pool destinations", len(covered))
		}
		if _, err := w.step(nil); err != nil {
			return err
		}
	}
	// Then run two TTLs so merged entries cycle through expiry and
	// re-merge, and brand-new destinations come and go, as in the
	// measured steady state.
	for n := int64(0); n < 2*int64(core.DefaultTTL/time.Second); n++ {
		if _, err := w.step(nil); err != nil {
			return err
		}
	}
	if w.lost > 0 {
		return fmt.Errorf("%d new destinations never reached every agent during warm-up", w.lost)
	}
	w.rounds, w.done, w.learned = nil, 0, 0
	return nil
}

func contains(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// holdsAll reports whether every agent's Lookup holds every id.
func (w *fleetLoad) holdsAll(ids map[uint32]bool) bool {
	for _, m := range w.members {
		for id := range ids {
			if _, ok := m.d.agent.Lookup(destAddr(id)); !ok {
				return false
			}
		}
	}
	return true
}

func (w *fleetLoad) step(tr *tracer) (time.Duration, error) {
	start := time.Now()
	w.clock.advance(time.Duration(tickSec) * time.Second)
	w.sec += tickSec
	w.events()
	var firstErr error
	for _, m := range w.members {
		if _, err := m.d.tick(tr); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, m := range w.members {
		if (w.sec+m.phase)%intervalSec == 0 {
			var sp int32 = -1
			if tr != nil {
				sp = tr.begin(spanPull)
			}
			m.puller.PullOnce(w.ctx)
			if tr != nil {
				tr.end(sp)
			}
		}
	}
	w.track()
	return time.Since(start), firstErr
}

// events changes the cwnd of a churn fraction of every agent's pool sockets, opens a
// brand-new destination every newEvery seconds, and closes the sockets of
// brand-new destinations whose life is over.
func (w *fleetLoad) events() {
	for _, m := range w.members {
		x := float64(len(m.handles)) * w.churn
		n := int(x)
		if w.rng.Float64() < x-float64(n) {
			n++
		}
		for ; n > 0; n-- {
			i := w.rng.Intn(len(m.handles))
			m.d.kern.SetSocket(m.handles[i], observe(w.rng, m.dst[i]))
		}
	}
	if !w.draining && w.sec%w.newEvery == 0 {
		nd := &newDest{addr: destAddr(w.nextID), writer: w.rng.Intn(w.agents), retireAt: w.sec + w.newLife, learned: -1}
		kern := w.members[nd.writer].d.kern
		for s := 0; s < w.sockPerDest; s++ {
			nd.handles = append(nd.handles, kern.AddSocket(observe(w.rng, w.nextID)))
		}
		w.nextID++
		w.pending = append(w.pending, nd)
	}
	live := w.pending[:0]
	for _, nd := range w.pending {
		if w.sec >= nd.retireAt {
			kern := w.members[nd.writer].d.kern
			for _, h := range nd.handles {
				kern.RemoveSocket(h)
			}
			if !nd.reached {
				w.lost++
			}
			continue
		}
		live = append(live, nd)
	}
	w.pending = live
}

// track notes when the writer learns each new destination and when every
// agent holds it.
func (w *fleetLoad) track() {
	for _, nd := range w.pending {
		if nd.reached {
			continue
		}
		if nd.learned < 0 {
			if _, ok := w.members[nd.writer].d.agent.Lookup(nd.addr); ok {
				nd.learned = w.sec
				w.learned++
			}
			continue
		}
		all := true
		for _, m := range w.members {
			if _, ok := m.d.agent.Lookup(nd.addr); !ok {
				all = false
				break
			}
		}
		if all {
			nd.reached = true
			w.done++
			w.rounds = append(w.rounds, float64(w.sec-nd.learned)/float64(intervalSec))
		}
	}
}

func (w *fleetLoad) simPerStep() time.Duration { return time.Duration(tickSec) * time.Second }

func (w *fleetLoad) counters() counters {
	var c counters
	for _, m := range w.members {
		c.addDaemon(m.d)
		st := m.srv.Stats()
		c[cCacheHits] += st.Hits
		c[cCacheMisses] += st.Misses
	}
	c[cRequests] = w.tp.requests
	c[cNotModified] = w.tp.notModified
	c[cWire] = w.tp.wire
	c[cDigestWire] = w.tp.digestWire
	c[cPropagated] = w.done
	return c
}

func (w *fleetLoad) traced(*tracer) error { return nil }

// finish lets destinations still in flight finish propagating (untimed),
// then checks that every learned destination reached every agent and
// that every agent's kernel route table equals its view.
func (w *fleetLoad) finish(m map[string]float64) (uint64, uint64, error) {
	w.draining = true
	for n := int64(0); n < 20*intervalSec && w.inFlight() > 0; n++ {
		if _, err := w.step(nil); err != nil {
			return w.learned, w.learned, err
		}
	}
	failed := w.lost + uint64(w.inFlight())
	var err error
	if failed > 0 {
		err = fmt.Errorf("%d learned destinations never reached every agent", failed)
	}
	for i, mb := range w.members {
		if cerr := mb.d.checkRoutes(); cerr != nil {
			failed++
			if err == nil {
				err = fmt.Errorf("agent %d: %w", i, cerr)
			}
		}
	}
	m["fleet.propagation_rounds_p50"] = median(w.rounds)
	return w.learned + uint64(len(w.members)), failed, err
}

// inFlight counts learned destinations not yet held by every agent.
func (w *fleetLoad) inFlight() int {
	n := 0
	for _, nd := range w.pending {
		if nd.learned >= 0 && !nd.reached {
			n++
		}
	}
	return n
}

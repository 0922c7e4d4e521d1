package main

import (
	"bufio"
	"fmt"
	"net/http"
	"net/netip"
	"os"
	"time"

	"riptide/internal/core"
	"riptide/internal/netlink"
)

// Span kinds: one per layer boundary the traced run wraps.
const (
	spanStep        = iota // one closed-loop step (tick, fleet second, scenario run)
	spanTick               // core.Agent.Tick
	spanSample             // netlink.Sampler.SampleConnections
	spanKernelDiag         // fake kernel Send/Receive on the sock_diag conn
	spanRetry              // core.RetryingRouteProgrammer.ProgramRoutes
	spanRoutes             // netlink.Routes.ProgramRoutes
	spanKernelRoute        // fake kernel Send/Receive on the route conn
	spanPull               // fleet.Puller.PullOnce
	spanServe              // the transport's ServeHTTP call into fleet.Server
	spanScenario           // scenario.Spec.Run
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"step", "tick", "sample", "kernel.diag", "retry.program", "routes.program",
	"kernel.route", "fleet.pull", "fleet.serve", "scenario.run",
}

// span is one timed call: start and end in nanoseconds since the tracer's
// epoch, the enclosing span (-1 for a root), and the step it belongs to.
type span struct {
	kind   uint8
	parent int32
	step   int32
	start  int64
	end    int64
}

// tracer records spans in memory from the single goroutine that drives the
// workload; the spans are summarised and written out when the run ends.
// Untraced runs build no wrappers at all; a traced run builds them once and
// switches recording on only for its traced phase, so its untraced phase
// pays one flag check per wrapped call.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int32 // stack of open span indices
	step  int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span as a child of the innermost open span; -1 when off.
func (t *tracer) begin(kind uint8) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: kind, parent: parent, step: t.step, start: int64(time.Since(t.epoch))})
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// spanSummary aggregates one span kind: how many, total and self time
// (duration minus the time its direct children cover), and each
// duration for percentiles.
type spanSummary struct {
	count int
	total time.Duration
	self  time.Duration
	durs  []float64 // milliseconds
}

// summarize folds spans into per-kind summaries.
func summarize(spans []span) [numSpanKinds]spanSummary {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out [numSpanKinds]spanSummary
	for i, s := range spans {
		d := s.end - s.start
		o := &out[s.kind]
		o.count++
		o.total += time.Duration(d)
		o.self += time.Duration(d - child[i])
		o.durs = append(o.durs, float64(d)/1e6)
	}
	return out
}

// writeSpans writes at most limit spans as CSV: name, id, parent id, step,
// and start and end in nanoseconds since the tracer epoch.
func writeSpans(path string, spans []span, limit int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,id,parent,step,start_ns,end_ns")
	for i, s := range spans {
		if i >= limit {
			break
		}
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", spanNames[s.kind], i, s.parent, s.step, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Timing wrappers. Each delegates to the wrapped layer unchanged and
// records one span around the call.

type tracedSampler struct {
	inner core.ConnectionSampler
	tr    *tracer
}

func (s *tracedSampler) SampleConnections(buf []core.Observation) ([]core.Observation, error) {
	i := s.tr.begin(spanSample)
	obs, err := s.inner.SampleConnections(buf)
	s.tr.end(i)
	return obs, err
}

// batchProgrammer is what both route layers implement.
type batchProgrammer interface {
	core.RouteProgrammer
	core.BatchRouteProgrammer
}

type tracedRoutes struct {
	inner batchProgrammer
	tr    *tracer
	kind  uint8
}

func (r *tracedRoutes) SetInitCwnd(p netip.Prefix, cwnd int) error {
	i := r.tr.begin(r.kind)
	err := r.inner.SetInitCwnd(p, cwnd)
	r.tr.end(i)
	return err
}

func (r *tracedRoutes) ClearInitCwnd(p netip.Prefix) error {
	i := r.tr.begin(r.kind)
	err := r.inner.ClearInitCwnd(p)
	r.tr.end(i)
	return err
}

func (r *tracedRoutes) ProgramRoutes(ops []core.RouteOp) []error {
	i := r.tr.begin(r.kind)
	errs := r.inner.ProgramRoutes(ops)
	r.tr.end(i)
	return errs
}

type tracedConn struct {
	inner netlink.Conn
	tr    *tracer
	kind  uint8
}

func (c *tracedConn) Send(req []byte) error {
	i := c.tr.begin(c.kind)
	err := c.inner.Send(req)
	c.tr.end(i)
	return err
}

func (c *tracedConn) Receive(p []byte) (int, error) {
	i := c.tr.begin(c.kind)
	n, err := c.inner.Receive(p)
	c.tr.end(i)
	return n, err
}

func (c *tracedConn) Close() error { return c.inner.Close() }

// tracedDial wraps every conversation dial opens, telling the sock_diag
// and route conversations apart by protocol.
func tracedDial(dial netlink.DialFunc, tr *tracer) netlink.DialFunc {
	return func(proto int) (netlink.Conn, error) {
		c, err := dial(proto)
		if err != nil {
			return nil, err
		}
		kind := uint8(spanKernelRoute)
		if proto == netlink.ProtoSockDiag {
			kind = spanKernelDiag
		}
		return &tracedConn{inner: c, tr: tr, kind: kind}, nil
	}
}

// tracedHandler times the transport's ServeHTTP call into a fleet handler.
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	i := h.tr.begin(spanServe)
	h.inner.ServeHTTP(w, r)
	h.tr.end(i)
}

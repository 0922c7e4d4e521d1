package main

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"

	"riptide/internal/fleet"
)

// transport is an in-process http.RoundTripper for fleet.Puller: it calls
// the handlers riptided mounts for each agent (fleet.Server on
// SnapshotPath, DigestPath and DeltaPath) directly, with no sockets and no
// goroutines, and counts the response body bytes as the Puller reads them
// — gzipped when the Puller negotiated gzip, as on the wire.
type transport struct {
	hosts map[string]http.Handler
	tr    *tracer

	requests, notModified uint64
	wire, digestWire      uint64
}

func newTransport(tr *tracer) *transport {
	return &transport{hosts: make(map[string]http.Handler), tr: tr}
}

// mount serves srv's endpoints for host, as riptided's status mux does.
func (t *transport) mount(host string, srv *fleet.Server) {
	mux := http.NewServeMux()
	mux.Handle(fleet.SnapshotPath, srv.SnapshotHandler())
	mux.Handle(fleet.DigestPath, srv.DigestHandler())
	mux.Handle(fleet.DeltaPath, srv.DeltaHandler())
	var h http.Handler = mux
	if t.tr != nil {
		h = tracedHandler{inner: mux, tr: t.tr}
	}
	t.hosts[host] = h
}

var errNoHost = errors.New("transport: connection refused")

// RoundTrip implements http.RoundTripper.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t.hosts[req.URL.Host]
	if !ok {
		return nil, errNoHost
	}
	// The handler sees a server-side request: same method, URL and
	// headers, an empty body.
	sreq := req.WithContext(req.Context())
	sreq.Body = http.NoBody
	sreq.RequestURI = req.URL.RequestURI()
	sreq.Host = req.URL.Host
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, sreq)
	resp := rec.Result()
	resp.Request = req
	t.requests++
	if resp.StatusCode == http.StatusNotModified {
		t.notModified++
	}
	counter := &t.wire
	if req.URL.Path == fleet.DigestPath {
		counter = &t.digestWire
	}
	resp.Body = &countingBody{r: resp.Body, n: counter, total: &t.wire}
	return resp, nil
}

// countingBody counts bytes read into n and, when n is a share, total.
type countingBody struct {
	r        io.ReadCloser
	n, total *uint64
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	*c.n += uint64(n)
	if c.total != c.n {
		*c.total += uint64(n)
	}
	return n, err
}

func (c *countingBody) Close() error { return c.r.Close() }

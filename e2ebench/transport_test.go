package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"riptide/internal/fleet"
)

// rawGet fetches url with gzip negotiated, as fleet.Puller does, and returns
// the body bytes as they crossed the wire.
func rawGet(t *testing.T, c *http.Client, url string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTransportMatchesHTTPServer checks that the in-process transport
// returns digest and delta bodies byte-identical to the same handlers
// behind a real HTTP server, and counts exactly those bytes.
func TestTransportMatchesHTTPServer(t *testing.T) {
	clock := &simClock{}
	k := NewKernel()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		k.AddSocket(observe(rng, uint32(i%40)))
	}
	d, err := newDaemon(context.Background(), k, clock, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		clock.advance(1e9)
		if _, err := d.tick(nil); err != nil {
			t.Fatal(err)
		}
	}
	srv := fleet.NewServer(d.agent, "a", "a-boot1", clock.now)

	tp := newTransport(nil)
	tp.mount("agent00", srv)
	mux := http.NewServeMux()
	mux.Handle(fleet.SnapshotPath, srv.SnapshotHandler())
	mux.Handle(fleet.DigestPath, srv.DigestHandler())
	mux.Handle(fleet.DeltaPath, srv.DeltaHandler())
	hs := httptest.NewServer(mux)
	defer hs.Close()

	inproc := &http.Client{Transport: tp}
	for _, path := range []string{
		fleet.DigestPath,
		fleet.DeltaPath,
		fleet.DeltaPath + "?since=2&instance=a-boot1",
		fleet.DeltaPath + "?buckets=1,5,63",
	} {
		before := tp.wire
		got := rawGet(t, inproc, "http://agent00"+path)
		want := rawGet(t, hs.Client(), hs.URL+path)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: in-process body (%d bytes) differs from HTTP server body (%d bytes)", path, len(got), len(want))
		}
		if n := tp.wire - before; n != uint64(len(got)) {
			t.Errorf("%s: transport counted %d wire bytes, body has %d", path, n, len(got))
		}
		if strings.HasPrefix(path, fleet.DigestPath) && tp.digestWire == 0 {
			t.Errorf("%s: digest bytes not attributed", path)
		}
	}
	if _, err := inproc.Get("http://nowhere/fleet/digest"); err == nil {
		t.Error("request to an unknown host succeeded")
	}
}

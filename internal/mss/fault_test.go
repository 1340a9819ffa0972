package mss

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/testpki"
)

// A failed dial surfaces cleanly and the next call re-dials.
func TestClientRecoversAfterConnectFailure(t *testing.T) {
	_, addr := startMSS(t, defaultGridmap(t))
	c := newMSSClient(t, testpki.User(t, "mss-alice"), addr)
	c.DialContext = (&faultnet.Dialer{Script: faultnet.NewScript(
		faultnet.Plan{ConnectError: faultnet.ErrInjectedConnect},
	)}).DialContext

	if err := c.Put("a.dat", []byte("x")); !errors.Is(err, faultnet.ErrInjectedConnect) {
		t.Fatalf("err = %v, want injected connect failure", err)
	}
	if err := c.Put("a.dat", []byte("payload")); err != nil {
		t.Fatalf("Put after failed dial: %v", err)
	}
	data, err := c.Get("a.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("payload")) {
		t.Errorf("Get = %q", data)
	}
}

// Objects survive a link that fragments every write into tiny chunks.
func TestTransferOverFragmentingLink(t *testing.T) {
	_, addr := startMSS(t, defaultGridmap(t))
	c := newMSSClient(t, testpki.User(t, "mss-alice"), addr)
	c.DialContext = (&faultnet.Dialer{Script: faultnet.NewScript(
		faultnet.Plan{MaxWriteChunk: 5},
	)}).DialContext
	payload := bytes.Repeat([]byte("simulation output "), 64)
	if err := c.Put("big.dat", payload); err != nil {
		t.Fatalf("Put over fragmenting link: %v", err)
	}
	got, err := c.Get("big.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("object corrupted: %d bytes, want %d", len(got), len(payload))
	}
}

// A mid-session reset is detected, not silently swallowed: the client
// errors, then recovers on a fresh session.
func TestClientRecoversAfterMidSessionReset(t *testing.T) {
	_, addr := startMSS(t, defaultGridmap(t))
	c := newMSSClient(t, testpki.User(t, "mss-alice"), addr)
	if err := c.Put("keep.dat", []byte("stable")); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.conn.Close()
	c.mu.Unlock()
	if err := c.Put("lost.dat", []byte("x")); err == nil {
		t.Fatal("call on dropped session succeeded")
	}
	got, err := c.Get("keep.dat")
	if err != nil {
		t.Fatalf("Get after reconnect: %v", err)
	}
	if !bytes.Equal(got, []byte("stable")) {
		t.Errorf("Get = %q", got)
	}
}

// A call that fails mid-exchange gives its session up: the client closes the
// connection it failed on, so the server has no session left to wait out and
// its Close returns at once rather than at the session cap.
func TestFailedCallReleasesServerSession(t *testing.T) {
	srv, addr := startMSS(t, defaultGridmap(t))
	c := newMSSClient(t, testpki.User(t, "mss-alice"), addr)
	c.Timeout = 500 * time.Millisecond
	var link *faultnet.Conn
	c.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		var nd net.Dialer
		raw, err := nd.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		link = faultnet.WrapConn(raw, faultnet.Plan{})
		return link, nil
	}
	if _, err := c.List(); err != nil {
		t.Fatal(err)
	}
	link.Stall() // the link goes silent; the transport stays open
	if _, err := c.List(); err == nil {
		t.Fatal("call over a silent link succeeded")
	}
	start := time.Now()
	srv.Close()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("server Close took %v: the failed call left its session open", elapsed)
	}
}

package gram

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/proxy"
)

// A failed dial surfaces cleanly and does not poison the client: the next
// call re-dials and succeeds.
func TestClientRecoversAfterConnectFailure(t *testing.T) {
	_, addr := startGRAM(t, nil)
	c := newGRAMClient(t, userProxy(t, proxy.Options{}), addr)
	c.DialContext = (&faultnet.Dialer{Script: faultnet.NewScript(
		faultnet.Plan{ConnectError: faultnet.ErrInjectedConnect},
	)}).DialContext

	if _, err := c.Submit("echo", nil, false); !errors.Is(err, faultnet.ErrInjectedConnect) {
		t.Fatalf("err = %v, want injected connect failure", err)
	}
	job, err := c.Submit("echo", nil, false)
	if err != nil {
		t.Fatalf("Submit after failed dial: %v", err)
	}
	if job.ID == "" {
		t.Fatal("no job ID")
	}
}

// A session that dies mid-use is detected and replaced on the next call
// (call() drops the cached conn on any I/O error).
func TestClientReconnectsAfterMidSessionDrop(t *testing.T) {
	_, addr := startGRAM(t, nil)
	c := newGRAMClient(t, userProxy(t, proxy.Options{}), addr)
	job, err := c.Submit("echo", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the cached session out from under the client.
	c.mu.Lock()
	c.conn.Close()
	c.mu.Unlock()
	if _, err := c.Status(job.ID); err == nil {
		t.Fatal("call on dropped session succeeded")
	}
	// The dead conn was discarded; a fresh dial restores service.
	st, err := c.Status(job.ID)
	if err != nil {
		t.Fatalf("Status after reconnect: %v", err)
	}
	if st.ID != job.ID {
		t.Errorf("status for %q, want %q", st.ID, job.ID)
	}
}

// Degraded links (tiny write chunks, added latency) must not corrupt the
// protocol — framing and TLS are stream-safe.
func TestClientToleratesDegradedLink(t *testing.T) {
	_, addr := startGRAM(t, nil)
	c := newGRAMClient(t, userProxy(t, proxy.Options{}), addr)
	c.DialContext = (&faultnet.Dialer{Script: faultnet.NewScript(
		faultnet.Plan{MaxWriteChunk: 7, WriteDelay: time.Millisecond},
	)}).DialContext
	job, err := c.Submit("echo", []string{"--trial=1"}, false)
	if err != nil {
		t.Fatalf("Submit over degraded link: %v", err)
	}
	if _, err := c.Wait(job.ID, 5*time.Second); err != nil {
		t.Fatalf("Wait over degraded link: %v", err)
	}
}

// A call that fails mid-exchange gives its session up: the client closes the
// connection it failed on, so the server has no session left to wait out and
// its Close returns at once rather than at the session cap.
func TestFailedCallReleasesServerSession(t *testing.T) {
	srv, addr := startGRAM(t, nil)
	c := newGRAMClient(t, userProxy(t, proxy.Options{}), addr)
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

package gsi

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/testpki"
)

// The acceptor and the dialer are tested here, where they live; the three
// services on top of them test only their handlers and exchanges.

type reported struct {
	ev   Event
	peer net.Addr
	err  error
}

// startAcceptor builds an acceptor whose events land on the returned
// channel and serves it on a loopback listener.
func startAcceptor(t *testing.T, cfg AcceptorConfig) (*Acceptor, string, chan reported) {
	t.Helper()
	events := make(chan reported, 16)
	cfg.Credential = testpki.Host(t, "myproxy.test")
	cfg.Auth = AuthOptions{Roots: testRoots(t)}
	cfg.Event = func(ev Event, peer net.Addr, err error) { events <- reported{ev, peer, err} }
	a, err := NewAcceptor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go a.Serve(ln)
	t.Cleanup(func() { a.Close() })
	return a, ln.Addr().String(), events
}

func testDialer(t *testing.T, addr string) *Dialer {
	t.Helper()
	return &Dialer{
		Credential:   testpki.User(t, "gsi-alice"),
		Roots:        testRoots(t),
		Addr:         addr,
		ExpectedPeer: "*/CN=myproxy.test",
		Timeout:      10 * time.Second,
	}
}

func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// pipeClient handshakes as a client over one end of a pipe and returns the
// other end for the acceptor; the handshake's outcome arrives on the channel
// once the session is over.
func pipeClient(t *testing.T) (net.Conn, <-chan error) {
	t.Helper()
	mine, theirs := net.Pipe()
	t.Cleanup(func() { mine.Close(); theirs.Close() })
	done := make(chan error, 1)
	go func() {
		c, err := Client(mine, testpki.User(t, "gsi-alice"), defaultOpts(t))
		if err == nil {
			c.ReadMessage() // keep reading until the acceptor hangs up: a pipe has no buffer
		}
		done <- err
	}()
	return theirs, done
}

func TestServeAfterCloseRefusesTheListener(t *testing.T) {
	a, _, _ := startAcceptor(t, AcceptorConfig{Handler: func(*Conn) {}})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Serve(ln); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Serve after Close = %v, want net.ErrClosed", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("listener left open: Accept = %v", err)
	}
}

func TestSlotBackpressure(t *testing.T) {
	var inFlight, peak atomic.Int32
	entered, release := make(chan struct{}, 2), make(chan struct{})
	a, err := NewAcceptor(AcceptorConfig{
		Credential:    testpki.Host(t, "myproxy.test"),
		Auth:          AuthOptions{Roots: testRoots(t)},
		MaxConcurrent: 1,
		Handler: func(*Conn) {
			if n := inFlight.Add(1); n > peak.Load() {
				peak.Store(n)
			}
			entered <- struct{}{}
			<-release
			inFlight.Add(-1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := faultnet.NewHandoff()
	go a.Serve(ln)

	first, firstDone := pipeClient(t)
	ln.Conns <- first
	await(t, entered, "the first session")
	// The second connection is accepted and waits for the one slot; the
	// accept loop is parked behind it, so a third is not even accepted.
	second, secondDone := pipeClient(t)
	ln.Conns <- second
	third, _ := pipeClient(t)
	thirdAccepted := make(chan struct{})
	go func() {
		ln.Conns <- third
		close(thirdAccepted)
	}()
	select {
	case <-entered:
		t.Fatal("second session served beside the first at limit 1")
	case <-thirdAccepted:
		t.Fatal("accept loop ran on while every slot was taken")
	default:
	}
	close(release)
	await(t, entered, "the second session, once the slot is free")
	await(t, thirdAccepted, "the accept loop to resume")
	for _, done := range []<-chan error{firstDone, secondDone} {
		if err := await(t, done, "client handshake"); err != nil {
			t.Errorf("client handshake: %v", err)
		}
	}
	close(ln.Conns)
	a.Close()
	if peak.Load() != 1 {
		t.Errorf("peak concurrent sessions = %d, want 1", peak.Load())
	}
}

func TestDrainWaitsForInFlightSessions(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	a, addr, events := startAcceptor(t, AcceptorConfig{
		DrainTimeout: time.Minute,
		Handler: func(*Conn) {
			close(entered)
			<-release
		},
	})
	conn, err := testDialer(t, addr).Dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	await(t, entered, "the session")
	closed := make(chan error, 1)
	go func() { closed <- a.Close() }()
	await(t, a.Done(), "Close to begin")
	select {
	case <-closed:
		t.Fatal("Close returned with a session in flight")
	default:
	}
	close(release)
	if err := await(t, closed, "Close"); err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Errorf("a clean drain reported %+v", <-events)
	}
}

// A multiplexed session is in flight only while a stream is: once Close
// begins, Accept hands out no further stream, the one being served finishes
// and is answered, one that arrives meanwhile fails with the session, and
// nothing is force-closed.
func TestDrainEndsASessionWhenItsStreamsAreDone(t *testing.T) {
	accepted, release := make(chan struct{}), make(chan struct{})
	acceptErr := make(chan error, 1)
	a, addr, events := startAcceptor(t, AcceptorConfig{
		DrainTimeout: time.Minute,
		Handler: func(c *Conn) {
			sess := NewServerSession(c)
			defer sess.Close()
			var wg sync.WaitGroup
			defer wg.Wait()
			for {
				st, err := sess.Accept()
				if err != nil {
					acceptErr <- err
					return
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					msg, _ := st.ReadMessage()
					accepted <- struct{}{}
					<-release
					st.WriteMessage(msg)
				}()
			}
		},
	})
	conn, err := testDialer(t, addr).Dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := conn.Multiplex()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	inFlight := openAndWrite(t, sess, "in flight")
	await(t, accepted, "the first stream to be served")

	closed := make(chan error, 1)
	go func() { closed <- a.Close() }()
	if err := await(t, acceptErr, "Accept to stop"); !errors.Is(err, ErrDraining) {
		t.Fatalf("Accept during the drain = %v, want ErrDraining", err)
	}
	late := openAndWrite(t, sess, "late")
	select {
	case <-closed:
		t.Fatal("Close returned with a stream in flight")
	default:
	}
	close(release)
	if msg, err := inFlight.ReadMessage(); err != nil || string(msg) != "in flight" {
		t.Errorf("stream in flight across the drain: %q, %v", msg, err)
	}
	if err := await(t, closed, "Close"); err != nil {
		t.Fatal(err)
	}
	if msg, err := late.ReadMessage(); err == nil {
		t.Errorf("a stream opened during the drain was answered %q", msg)
	}
	if len(events) != 0 {
		t.Errorf("a clean drain reported %+v", <-events)
	}
}

func openAndWrite(t *testing.T, sess *Session, msg string) *Stream {
	t.Helper()
	st, err := sess.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteMessage([]byte(msg)); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDrainTimeoutForceClosesAndReports(t *testing.T) {
	entered := make(chan struct{})
	readErr := make(chan error, 1)
	a, addr, events := startAcceptor(t, AcceptorConfig{
		DrainTimeout: 20 * time.Millisecond,
		Handler: func(c *Conn) {
			close(entered)
			_, err := c.ReadMessage() // the peer never sends
			readErr <- err
		},
	})
	conn, err := testDialer(t, addr).Dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	await(t, entered, "the session")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := await(t, readErr, "the handler to be cut off"); err == nil {
		t.Error("handler's read survived the force-close")
	}
	if got := await(t, events, "the force-close report"); got.ev != EventForceClosed || got.peer == nil {
		t.Errorf("reported %+v, want EventForceClosed with the peer address", got)
	}
}

func TestHandoffDuringDrainIsRefused(t *testing.T) {
	events := make(chan reported, 1)
	a, err := NewAcceptor(AcceptorConfig{
		Credential: testpki.Host(t, "myproxy.test"),
		Auth:       AuthOptions{Roots: testRoots(t)},
		Handler:    func(*Conn) { t.Error("refused connection reached the handler") },
		Event:      func(ev Event, peer net.Addr, err error) { events <- reported{ev, peer, err} },
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := faultnet.NewHandoff()
	served := make(chan error, 1)
	go func() { served <- a.Serve(ln) }()
	await(t, ln.Accepting, "Serve to register the listener")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	mine, theirs := net.Pipe()
	defer mine.Close()
	ln.Conns <- theirs
	close(ln.Conns)
	if err := await(t, served, "Serve to return"); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Serve = %v", err)
	}
	if got := await(t, events, "the refusal report"); got.ev != EventRefused {
		t.Errorf("reported %+v, want EventRefused", got)
	}
	if _, err := mine.Read(make([]byte, 1)); err == nil {
		t.Error("refused connection left open")
	}
}

func TestPanickingHandlerIsReportedAndItsConnClosed(t *testing.T) {
	_, addr, events := startAcceptor(t, AcceptorConfig{
		Handler: func(*Conn) { panic("handler bug") },
	})
	conn, err := testDialer(t, addr).Dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.ReadMessage(); err == nil {
		t.Error("connection of a panicked session still delivers")
	}
	got := await(t, events, "the panic report")
	if got.ev != EventPanic || got.err == nil || !strings.Contains(got.err.Error(), "handler bug") {
		t.Errorf("reported %+v, want EventPanic carrying the value", got)
	}
}

func TestFailedHandshakeIsReportedWithPeerAddress(t *testing.T) {
	_, addr, events := startAcceptor(t, AcceptorConfig{
		Handler: func(*Conn) { t.Error("unauthenticated connection reached the handler") },
	})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	got := await(t, events, "the authentication-failure report")
	if got.ev != EventAuthFailed || got.err == nil || got.peer.String() != raw.LocalAddr().String() {
		t.Errorf("reported %+v, want EventAuthFailed from %v", got, raw.LocalAddr())
	}
}

// The refusal must reach a peer that is still writing its request: the
// request goes out in fragments, so a refusal written (and the connection
// closed) before reading would reset it mid-write.
func TestRefuseReadsTheRequestFirst(t *testing.T) {
	_, addr, _ := startAcceptor(t, AcceptorConfig{
		Handler: func(c *Conn) { c.Refuse([]byte("not served")) },
	})
	d := testDialer(t, addr)
	d.DialContext = (&faultnet.Dialer{Script: faultnet.NewScript(faultnet.Plan{MaxWriteChunk: 64})}).DialContext
	conn, err := d.Dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteMessage(make([]byte, 32<<10)); err != nil {
		t.Fatalf("request cut off by the refusal: %v", err)
	}
	if reply, err := conn.ReadMessage(); err != nil || string(reply) != "not served" {
		t.Errorf("refusal = %q, %v", reply, err)
	}
}

func TestDialClosesTheTransportWhenThePeerIsNotTheExpectedOne(t *testing.T) {
	_, addr, _ := startAcceptor(t, AcceptorConfig{Handler: func(*Conn) {}})
	d := testDialer(t, addr)
	d.ExpectedPeer = "*/CN=someone.else"
	var raw net.Conn
	d.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		var nd net.Dialer
		c, err := nd.DialContext(ctx, network, addr)
		raw = c
		return c, err
	}
	if _, err := d.Dial(context.Background()); err == nil || !strings.Contains(err.Error(), "does not match expected") {
		t.Fatalf("Dial = %v, want an identity mismatch", err)
	}
	if _, err := raw.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Errorf("transport left open after the failed dial: Write = %v", err)
	}
}

// A peer that completes the connect and then never speaks TLS must not hold
// either half for longer than the handshake timeout: the accepting side's
// slot and the initiating side's caller are both released by it.
func TestStalledHandshakeIsReleasedAfterTheTimeout(t *testing.T) {
	// silent returns a connection whose peer stays connected, takes whatever
	// is written to it and never answers.
	silent := func() *faultnet.Conn {
		mine, theirs := net.Pipe()
		go io.Copy(io.Discard, theirs)
		c := faultnet.WrapConn(mine, faultnet.Plan{})
		c.Stall()
		t.Cleanup(func() { c.Close(); theirs.Close() })
		return c
	}
	var nerr net.Error

	events := make(chan reported, 1)
	a, err := NewAcceptor(AcceptorConfig{
		Credential:     testpki.Host(t, "myproxy.test"),
		Auth:           AuthOptions{Roots: testRoots(t)},
		MessageTimeout: 50 * time.Millisecond,
		Handler:        func(*Conn) { t.Error("a peer that never spoke reached the handler") },
		Event:          func(ev Event, peer net.Addr, err error) { events <- reported{ev, peer, err} },
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := faultnet.NewHandoff()
	go a.Serve(ln)
	ln.Conns <- silent()
	if got := await(t, events, "the acceptor to give up on the silent peer"); got.ev != EventAuthFailed || !errors.As(got.err, &nerr) || !nerr.Timeout() {
		t.Errorf("acceptor reported %+v, want EventAuthFailed with a timeout", got)
	}
	close(ln.Conns)
	a.Close()

	d := testDialer(t, "silent")
	d.Timeout = 50 * time.Millisecond
	d.DialContext = func(context.Context, string, string) (net.Conn, error) { return silent(), nil }
	dialed := make(chan error, 1)
	go func() {
		_, err := d.Dial(context.Background())
		dialed <- err
	}()
	if err := await(t, dialed, "the dialer to give up on the silent peer"); !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("Dial = %v, want a timeout", err)
	}
}

func TestDialDeadlineIsTheEarlierOfTimeoutAndContext(t *testing.T) {
	_, addr, _ := startAcceptor(t, AcceptorConfig{
		Handler: func(c *Conn) { c.ReadMessage() }, // never answers
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	d := testDialer(t, addr)
	d.Timeout = time.Hour
	conn, err := d.Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var nerr net.Error
	if _, err := conn.ReadMessage(); !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("read past the context's deadline = %v, want a timeout", err)
	}
}

func TestContextCancelWakesBlockedRead(t *testing.T) {
	_, addr, _ := startAcceptor(t, AcceptorConfig{
		Handler: func(c *Conn) { c.ReadMessage() },
	})
	ctx, cancel := context.WithCancel(context.Background())
	d := testDialer(t, addr)
	d.Timeout = time.Hour
	conn, err := d.Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cancel()
	var nerr net.Error
	if _, err := conn.ReadMessage(); !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("read under a cancelled context = %v, want a timeout", err)
	}
}

// An exchange that fails midway forfeits the held connection: it is closed,
// so the accepting side's session ends at once instead of at its cap, and
// the next exchange dials afresh.
func TestCallerClosesAndReplacesAFailedConnection(t *testing.T) {
	started, ended := make(chan struct{}, 2), make(chan struct{}, 2)
	_, addr, _ := startAcceptor(t, AcceptorConfig{
		Handler: func(c *Conn) {
			started <- struct{}{}
			for {
				msg, err := c.ReadMessage()
				if err != nil || c.WriteMessage(msg) != nil {
					break
				}
			}
			ended <- struct{}{}
		},
	})
	d := testDialer(t, addr)
	caller := &Caller{Dialer: Dialer{Credential: d.Credential, Roots: d.Roots, Addr: addr, ExpectedPeer: d.ExpectedPeer, Timeout: d.Timeout}}
	defer caller.Close()
	var echoed string
	broken := errors.New("delegation failed")
	if err := caller.Exchange("ping", &echoed, func(*Conn) error { return broken }); err != broken {
		t.Fatalf("Exchange = %v, want the failure between request and reply", err)
	}
	await(t, ended, "the failed exchange's session to end")
	if err := caller.Exchange("ping", &echoed, nil); err != nil || echoed != "ping" {
		t.Fatalf("Exchange after a failed one: %q, %v", echoed, err)
	}
	await(t, started, "the first session")
	await(t, started, "a second session for the second exchange")
	// A third exchange rides the second session.
	if err := caller.Exchange("pong", &echoed, nil); err != nil || echoed != "pong" {
		t.Fatalf("Exchange on the held connection: %q, %v", echoed, err)
	}
	select {
	case <-started:
		t.Error("a healthy held connection was not reused")
	default:
	}
}

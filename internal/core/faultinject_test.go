package core

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/gsi"
	"repro/internal/pki"
	"repro/internal/protocol"
	"repro/internal/resilience"
	"repro/internal/testpki"
)

// fastRetry is a prompt policy for tests: a millisecond's backoff.
func fastRetry(attempts int) resilience.Policy {
	return resilience.Policy{MaxAttempts: attempts, BaseDelay: time.Millisecond}
}

// --- Acceptance (a): Get rides out connect failures and a handshake reset.

func TestGetSurvivesConnectFailuresAndHandshakeReset(t *testing.T) {
	srv, addr := startServer(t, nil)
	alice := testpki.User(t, "core-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{})

	script := faultnet.NewScript(
		faultnet.Plan{ConnectError: faultnet.ErrInjectedConnect}, // attempt 1: refused
		faultnet.Plan{ConnectError: faultnet.ErrInjectedConnect}, // attempt 2: refused
		faultnet.Plan{ResetAfterBytesWritten: 64},                // attempt 3: reset mid-TLS-handshake
		// attempt 4: clean
	)
	stats := &Stats{}
	cli := newClient(t, testpki.Host(t, "portal.test"), addr)
	cli.DialContext = (&faultnet.Dialer{Script: script}).DialContext
	cli.Retry = fastRetry(4)
	cli.Stats = stats

	cred, err := cli.Get(context.Background(), GetOptions{Username: testUser, Passphrase: testPass})
	if err != nil {
		t.Fatalf("Get through faults: %v", err)
	}
	if cred == nil || cred.PrivateKey == nil {
		t.Fatal("no credential delegated")
	}
	if got := script.Consumed(); got != 4 {
		t.Errorf("dial attempts = %d, want 4", got)
	}
	if got := stats.Retries.Load(); got != 3 {
		t.Errorf("retries counted = %d, want 3", got)
	}
	// The repository saw exactly one completed session.
	if got := srv.Stats().Gets.Load(); got != 1 {
		t.Errorf("server gets = %d, want 1", got)
	}
}

// Without a retry policy the first fault is fatal — the pre-resilience
// behavior is preserved for zero-value clients.
func TestZeroPolicyFailsOnFirstFault(t *testing.T) {
	_, addr := startServer(t, nil)
	cli := newClient(t, testpki.Host(t, "portal.test"), addr)
	cli.DialContext = (&faultnet.Dialer{Script: faultnet.NewScript(
		faultnet.Plan{ConnectError: faultnet.ErrInjectedConnect},
	)}).DialContext
	if _, err := cli.Get(context.Background(), GetOptions{Username: testUser, Passphrase: testPass}); !errors.Is(err, faultnet.ErrInjectedConnect) {
		t.Fatalf("err = %v, want injected connect failure", err)
	}
}

// Server verdicts are permanent: a wrong pass phrase must not burn retries
// (each retry would hammer the repository and could trip lockouts).
func TestServerVerdictNotRetried(t *testing.T) {
	srv, addr := startServer(t, nil)
	alice := testpki.User(t, "core-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{})
	cli := newClient(t, testpki.Host(t, "portal.test"), addr)
	cli.Retry = fastRetry(5)
	stats := &Stats{}
	cli.Stats = stats
	_, err := cli.Get(context.Background(), GetOptions{Username: testUser, Passphrase: "wrong wrong"})
	if err == nil || !strings.Contains(err.Error(), "bad pass phrase") {
		t.Fatalf("err = %v", err)
	}
	if got := stats.Retries.Load(); got != 0 {
		t.Errorf("permanent verdict retried %d times", got)
	}
	// Exactly one session reached the server.
	if got := srv.Stats().Connections.Load(); got != 2 { // 1 for Put + 1 for Get
		t.Errorf("connections = %d, want 2", got)
	}
}

// fakeRepository accepts GSI sessions and lets a test script the server side
// of the protocol by hand (e.g. vanish before confirming).
type fakeRepository struct {
	ln    net.Listener
	cred  *pki.Credential
	roots *x509Pool
}

func startFakeRepository(t *testing.T, handle func(conn *gsi.Conn)) string {
	t.Helper()
	ln, err := listenLoopback(t)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeRepository{ln: ln, cred: testpki.Host(t, "myproxy.test"), roots: testRoots(t)}
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				conn, err := gsi.Server(raw, f.cred, gsi.AuthOptions{Roots: f.roots, HandshakeTimeout: 5 * time.Second})
				if err != nil {
					raw.Close()
					return
				}
				defer conn.Close()
				handle(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// --- Post-commit ambiguity: a mutation whose confirmation is lost is
// surfaced, not replayed.

func TestDestroyAmbiguousAfterLostConfirmation(t *testing.T) {
	var sessions struct {
		sync.Mutex
		n int
	}
	addr := startFakeRepository(t, func(conn *gsi.Conn) {
		sessions.Lock()
		sessions.n++
		sessions.Unlock()
		// Read the DESTROY request, then vanish without answering: the
		// client cannot know whether the credential is gone.
		conn.ReadMessage()
	})
	stats := &Stats{}
	cli := newClient(t, testpki.User(t, "core-alice"), addr)
	cli.Retry = fastRetry(5)
	cli.Stats = stats
	err := cli.Destroy(context.Background(), testUser, testPass, "")
	if !resilience.IsAmbiguous(err) {
		t.Fatalf("err = %v, want ambiguous", err)
	}
	var ae *resilience.AmbiguousError
	if !errors.As(err, &ae) || ae.Op != "DESTROY" {
		t.Errorf("ambiguous op = %+v", ae)
	}
	sessions.Lock()
	n := sessions.n
	sessions.Unlock()
	if n != 1 {
		t.Errorf("ambiguous DESTROY retried: %d sessions", n)
	}
	if stats.Ambiguous.Load() != 1 {
		t.Errorf("ambiguous counter = %d", stats.Ambiguous.Load())
	}
}

// A PUT whose final confirmation is cut off is ambiguous, and the transport
// error that cut it stays reachable inside the AmbiguousError: the client's
// wrap of the final read keeps the chain that retry classes and callers
// inspect.
func TestPutFinalResponseCutKeepsTheTransportError(t *testing.T) {
	addr := startFakeRepository(t, func(conn *gsi.Conn) {
		// Accept the PUT and take the delegation, then hang up before the
		// confirmation: the deposit may or may not have committed.
		if _, err := conn.ReadMessage(); err != nil {
			return
		}
		if err := conn.WriteMessage(protocol.MarshalResponse(protocol.OKResponse())); err != nil {
			return
		}
		gsi.RequestDelegationFrom(conn, nil, pki.KeySpec{Algorithm: pki.AlgEd25519}, nil)
	})
	cli := newClient(t, testpki.User(t, "core-alice"), addr)
	err := cli.Put(context.Background(), PutOptions{Username: testUser, Passphrase: testPass})
	var ae *resilience.AmbiguousError
	if !errors.As(err, &ae) || ae.Op != "PUT" {
		t.Fatalf("err = %v, want a PUT AmbiguousError", err)
	}
	if !errors.Is(ae.Err, io.EOF) {
		t.Errorf("the cut is not reachable through the ambiguity: %v", err)
	}
}

// A repository that reads an INFO request and hangs up yields an error,
// not a listing read off the missing response.
func TestInfoFromAVanishingRepositoryIsAnError(t *testing.T) {
	addr := startFakeRepository(t, func(conn *gsi.Conn) {
		conn.ReadMessage() // read the request, then hang up unanswered
	})
	cli := newClient(t, testpki.User(t, "core-alice"), addr)
	cli.Retry = fastRetry(1)
	if infos, err := cli.Info(context.Background(), testUser, testPass); err == nil {
		t.Fatalf("Info = %v, nil error from a repository that hung up", infos)
	}
}

// Pre-response faults on mutations ARE retried: a connect failure before
// the request ever left cannot have committed anything.
func TestDestroyRetriesConnectFailures(t *testing.T) {
	_, addr := startServer(t, nil)
	alice := testpki.User(t, "core-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{})
	cli := newClient(t, alice, addr)
	cli.DialContext = (&faultnet.Dialer{Script: faultnet.NewScript(
		faultnet.Plan{ConnectError: faultnet.ErrInjectedConnect},
		faultnet.Plan{ConnectError: faultnet.ErrInjectedConnect},
	)}).DialContext
	cli.Retry = fastRetry(3)
	if err := cli.Destroy(context.Background(), testUser, testPass, ""); err != nil {
		t.Fatalf("Destroy with retries: %v", err)
	}
}

// --- Satellite: context cancellation aborts in-flight round trips, not
// just the dial.

func TestContextCancelAbortsInFlightRoundTrip(t *testing.T) {
	release := make(chan struct{})
	addr := startFakeRepository(t, func(conn *gsi.Conn) {
		conn.ReadMessage() // swallow the request...
		<-release          // ...and never answer until the test ends
	})
	defer close(release)
	cli := newClient(t, testpki.Host(t, "portal.test"), addr)
	cli.Timeout = time.Hour // the context, not the timeout, must cut this off
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := cli.Get(ctx, GetOptions{Username: testUser, Passphrase: testPass})
	if err == nil {
		t.Fatal("cancelled Get succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; in-flight round trip not aborted", elapsed)
	}
}

// --- Acceptance (b): a stalled reader is evicted by the per-message
// deadline without taking other sessions down with it.

func TestStalledClientEvictedByMessageDeadline(t *testing.T) {
	// MessageTimeout must be well under the 30s session budget to prove
	// per-message eviction, but not so tight that the live client's own
	// think-time (RSA keygen between messages) trips it on a loaded
	// machine.
	srv, addr := startServer(t, func(cfg *ServerConfig) {
		cfg.MessageTimeout = 2 * time.Second
	})
	alice := testpki.User(t, "core-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{})

	// The slowloris: completes the handshake, then goes silent.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	stalled, err := gsi.Client(raw, testpki.Host(t, "portal.test"), gsi.AuthOptions{
		Roots: testRoots(t), HandshakeTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()

	// While the stalled session occupies the server, a live client works.
	if _, err := newClient(t, testpki.Host(t, "portal.test"), addr).Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass,
	}); err != nil {
		t.Fatalf("live Get alongside stalled session: %v", err)
	}

	// The stalled session is evicted at the message deadline, well before
	// the 30s session budget.
	deadline := time.Now().Add(8 * time.Second)
	for srv.Stats().Timeouts.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled session never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The server hung up on it: the stalled side sees EOF/reset.
	stalled.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := stalled.ReadMessage(); err == nil {
		t.Error("evicted session still delivered data")
	}
}

// With MaxConcurrent=1 the per-message deadline is what frees the slot: the
// stalled client would otherwise starve everyone (accept backpressure).
func TestStalledClientFreesSlotUnderBackpressure(t *testing.T) {
	// As above: short enough to free the slot quickly, generous enough
	// that the live client's keygen pauses don't trip it under load.
	_, addr := startServer(t, func(cfg *ServerConfig) {
		cfg.MessageTimeout = 2 * time.Second
		cfg.MaxConcurrent = 1
	})
	alice := testpki.User(t, "core-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{})

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	stalled, err := gsi.Client(raw, testpki.Host(t, "portal.test"), gsi.AuthOptions{
		Roots: testRoots(t), HandshakeTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()

	// The live client queues behind the stalled one until the eviction
	// frees the only slot; it must still succeed.
	cli := newClient(t, testpki.Host(t, "portal.test"), addr)
	cli.Timeout = 8 * time.Second
	if _, err := cli.Get(context.Background(), GetOptions{Username: testUser, Passphrase: testPass}); err != nil {
		t.Fatalf("Get behind stalled session: %v", err)
	}
}

// --- Acceptance (c): Close drains in-flight work and refuses new arrivals.

func TestCloseDrainsInFlightDelegation(t *testing.T) {
	srv, addr := startServer(t, func(cfg *ServerConfig) {
		cfg.DrainTimeout = 10 * time.Second
	})
	alice := testpki.User(t, "core-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{})

	// Slow the client's reads so the delegation is reliably in flight when
	// Close lands.
	cli := newClient(t, testpki.Host(t, "portal.test"), addr)
	cli.DialContext = (&faultnet.Dialer{Script: faultnet.NewScript(
		faultnet.Plan{ReadDelay: 20 * time.Millisecond},
	)}).DialContext

	type result struct {
		cred *pki.Credential
		err  error
	}
	done := make(chan result, 1)
	go func() {
		cred, err := cli.Get(context.Background(), GetOptions{Username: testUser, Passphrase: testPass})
		done <- result{cred, err}
	}()

	// Wait until the session is authenticated and in flight.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Connections.Load() < 2 { // 1 Put + this Get
		if time.Now().After(deadline) {
			t.Fatal("Get session never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A second listener that will hand over one more connection after Close
	// has begun.
	late := faultnet.NewHandoff()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(late) }()
	<-late.Accepting
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The in-flight delegation completed despite the shutdown.
	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight Get interrupted by drain: %v", res.err)
	}
	if res.cred == nil || res.cred.PrivateKey == nil {
		t.Fatal("drained Get returned no credential")
	}
	if srv.Stats().ForcedCloses.Load() != 0 {
		t.Errorf("drain force-closed %d sessions", srv.Stats().ForcedCloses.Load())
	}

	// New connections are refused: the listener is down...
	if _, err := newClient(t, testpki.Host(t, "portal.test"), addr).Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass,
	}); err == nil {
		t.Error("Get after Close succeeded")
	}
	// ...and a connection accepted after Close began is refused and counted.
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	late.Conns <- c2
	close(late.Conns)
	<-served
	if got := srv.Stats().DrainRefusals.Load(); got != 1 {
		t.Errorf("drain refusals = %d, want 1", got)
	}
}

// A session that outlives the drain timeout is force-closed rather than
// holding shutdown hostage.
func TestDrainTimeoutForceClosesStragglers(t *testing.T) {
	srv, addr := startServer(t, func(cfg *ServerConfig) {
		cfg.DrainTimeout = 200 * time.Millisecond
	})
	// A client that handshakes and then stalls forever holds a session open.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	stalled, err := gsi.Client(raw, testpki.Host(t, "portal.test"), gsi.AuthOptions{
		Roots: testRoots(t), HandshakeTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Connections.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled session never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close took %v; drain timeout not applied", elapsed)
	}
	if got := srv.Stats().ForcedCloses.Load(); got != 1 {
		t.Errorf("forced closes = %d, want 1", got)
	}
}

package core

import (
	"context"
	"crypto"
	"crypto/ed25519"
	"crypto/x509"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/credstore"
	"repro/internal/pki"
	"repro/internal/testpki"
)

// TestSessionPipelinesExchanges proves the multiplexed hot path: one
// authenticated connection carries a batch of pipelined Fig. 2 exchanges,
// and the server accounts them as one session with N streams.
func TestSessionPipelinesExchanges(t *testing.T) {
	srv, addr := startServer(t, nil)
	alice := testpki.User(t, "sess-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{Lifetime: 24 * time.Hour})

	portal := testpki.Host(t, "sess-portal.test")
	cli := newClient(t, portal, addr)
	sess, err := cli.NewSession(context.Background())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	if !sess.Multiplexed() {
		t.Fatal("server declined session mode; expected multiplexing")
	}

	opts := make([]GetOptions, 4)
	for i := range opts {
		opts[i] = GetOptions{Username: testUser, Passphrase: testPass, Lifetime: time.Hour}
	}
	creds, err := sess.GetBatch(context.Background(), opts)
	if err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	for i, cred := range creds {
		if cred == nil {
			t.Fatalf("GetBatch left creds[%d] nil without error", i)
		}
		if err := cred.Validate(time.Now()); err != nil {
			t.Fatalf("creds[%d] invalid: %v", i, err)
		}
	}
	// Info rides the same session too.
	infos, err := sess.Info(context.Background(), testUser, testPass)
	if err != nil || len(infos) == 0 {
		t.Fatalf("Info over session = %v, %v", infos, err)
	}
	if n := srv.Stats().Sessions.Load(); n != 1 {
		t.Errorf("sessions = %d, want 1", n)
	}
	if n := srv.Stats().Streams.Load(); n != 5 {
		t.Errorf("streams = %d, want 5 (4 gets + 1 info)", n)
	}
	if err := sess.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestSessionCarriesKeyAlgorithm proves algorithm agility end to end over
// the multiplexed path: a client asking for Ed25519 delegation keys gets an
// Ed25519 proxy back through a session stream.
func TestSessionCarriesKeyAlgorithm(t *testing.T) {
	_, addr := startServer(t, nil)
	alice := testpki.User(t, "sess-ed-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{Lifetime: 24 * time.Hour})

	portal := testpki.Host(t, "sess-ed-portal.test")
	cli := newClient(t, portal, addr)
	cli.KeyAlgorithm = pki.AlgEd25519
	sess, err := cli.NewSession(context.Background())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	cred, err := sess.Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass, Lifetime: time.Hour,
	})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if alg, _ := pki.AlgorithmOf(cred.PrivateKey); alg != pki.AlgEd25519 {
		t.Fatalf("delegated key algorithm = %v, want ed25519", alg)
	}
	if err := cred.Validate(time.Now()); err != nil {
		t.Fatalf("ed25519 credential invalid: %v", err)
	}
}

// TestSessionDowngrade proves the legacy path: a server with sessions
// disabled answers the SESSION hello with an error verdict, and the client
// degrades to one connection per exchange — same results, no multiplexing.
func TestSessionDowngrade(t *testing.T) {
	_, addr := startServer(t, func(cfg *ServerConfig) {
		cfg.DisableSessions = true
	})
	alice := testpki.User(t, "sess-down-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{Lifetime: 24 * time.Hour})

	portal := testpki.Host(t, "sess-down-portal.test")
	sess, err := newClient(t, portal, addr).NewSession(context.Background())
	if err != nil {
		t.Fatalf("NewSession against a no-session server: %v", err)
	}
	defer sess.Close()
	if sess.Multiplexed() {
		t.Fatal("session reports multiplexed against a refusing server")
	}
	cred, err := sess.Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass, Lifetime: time.Hour,
	})
	if err != nil {
		t.Fatalf("degraded Get: %v", err)
	}
	if err := cred.Validate(time.Now()); err != nil {
		t.Fatalf("degraded credential invalid: %v", err)
	}
}

// TestSessionRevokedPeerRefusedMidSession pins the security property the
// session mode must not weaken: a CRL reload (SetRevoked) refuses the peer
// on its NEXT stream even though the session — with its cached chain
// verification and resumed TLS state — is already open and has served
// exchanges.
func TestSessionRevokedPeerRefusedMidSession(t *testing.T) {
	srv, addr := startServer(t, nil)
	alice := testpki.User(t, "sess-rev-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{Lifetime: 24 * time.Hour})

	portal := testpki.Host(t, "sess-rev-portal.test")
	sess, err := newClient(t, portal, addr).NewSession(context.Background())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	if !sess.Multiplexed() {
		t.Fatal("expected a multiplexed session")
	}
	if _, err := sess.Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass, Lifetime: time.Hour,
	}); err != nil {
		t.Fatalf("Get before revocation: %v", err)
	}

	// "CRL reload": the portal's certificate is revoked while its session
	// is open and pipelining.
	serial := portal.Certificate.SerialNumber.String()
	srv.SetRevoked(func(c *x509.Certificate) bool {
		return c.SerialNumber.String() == serial
	})

	if _, err := sess.Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass, Lifetime: time.Hour,
	}); err == nil {
		t.Fatal("revoked peer served on an already-open session")
	}
}

// TestPutServerSideKeyAlgorithm proves the KEY_ALG request key: a PUT asking
// for Ed25519 makes the server generate the stored proxy's key pair with
// that algorithm, visible in the issuer certificate of a later delegation.
func TestPutServerSideKeyAlgorithm(t *testing.T) {
	_, addr := startServer(t, nil)
	alice := testpki.User(t, "keyalg-alice")
	userCli := newClient(t, alice, addr)
	userCli.KeyAlgorithm = pki.AlgEd25519
	mustPut(t, userCli, PutOptions{Lifetime: 24 * time.Hour})

	portal := testpki.Host(t, "keyalg-portal.test")
	cred, err := newClient(t, portal, addr).Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass, Lifetime: time.Hour,
	})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	chain := cred.CertChain()
	if len(chain) < 2 {
		t.Fatalf("delegated chain has %d certificates", len(chain))
	}
	// chain[1] is the stored proxy the repository holds — the certificate
	// whose key PUT asked the server to generate as Ed25519.
	if _, ok := chain[1].PublicKey.(ed25519.PublicKey); !ok {
		t.Fatalf("stored proxy key is %T, want ed25519", chain[1].PublicKey)
	}
}

// TestSessionStreamAllocs pins the allocation profile of one pipelined
// Fig. 2 exchange over an established session — the multiplexed path
// exists to amortize the handshake, key generation and chain verification,
// and this test keeps the residue from regrowing. The count covers both
// sides (client and in-process server) and measures 559 objects
// steady-state (573 under -race); the bound is that plus 10 %, so parsing
// and verifying again the issuer chain the repository sends behind every
// delegated proxy (≈ 185 objects), or the proxy subjects, ProxyCertInfo or
// the freshly signed certificate (≈ 475 between them), fails here.
// AllocsPerRun's warm-up run absorbs the session's first-use costs (unseal
// cache fill, verify cache and anchor misses).
func TestSessionStreamAllocs(t *testing.T) {
	_, addr := startServer(t, nil)
	alice := testpki.User(t, "alloc-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{Lifetime: 24 * time.Hour})

	portal := testpki.Host(t, "alloc-portal.test")
	cli := newClient(t, portal, addr)
	// Ed25519 delegation keys keep the measured loop free of RSA keygen's
	// nondeterministic allocation tail.
	cli.KeyAlgorithm = pki.AlgEd25519
	sess, err := cli.NewSession(context.Background())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	if !sess.Multiplexed() {
		t.Fatal("server declined session mode")
	}
	opts := GetOptions{Username: testUser, Passphrase: testPass, Lifetime: time.Hour}
	allocs := testing.AllocsPerRun(30, func() {
		if _, err := sess.Get(context.Background(), opts); err != nil {
			t.Fatalf("session Get: %v", err)
		}
	})
	if allocs > 615 {
		t.Errorf("per-stream session Get allocates %.0f objects/op, want <= 615", allocs)
	}
}

// TestClientGetAllocs is TestSessionStreamAllocs for the per-exchange path:
// one Client.Get dials, resumes TLS, delegates and closes. It measures
// 1 825 objects (1 860 under -race); the bound is that plus 10 %.
func TestClientGetAllocs(t *testing.T) {
	_, addr := startServer(t, nil)
	alice := testpki.User(t, "alloc-ex-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{Lifetime: 24 * time.Hour})

	cli := newClient(t, testpki.Host(t, "alloc-ex-portal.test"), addr)
	cli.KeyAlgorithm = pki.AlgEd25519 // as above: no RSA keygen tail
	opts := GetOptions{Username: testUser, Passphrase: testPass, Lifetime: time.Hour}
	allocs := testing.AllocsPerRun(30, func() {
		if _, err := cli.Get(context.Background(), opts); err != nil {
			t.Fatalf("Get: %v", err)
		}
	})
	if allocs > 2008 {
		t.Errorf("per-exchange Get allocates %.0f objects/op, want <= 2008", allocs)
	}
}

// The issuer chain behind every delegated proxy is verified once per
// client: its per-exchange connections and the streams of all its sessions
// import delegations through the dialer's one verification cache.
func TestSessionsShareDelegationAnchors(t *testing.T) {
	_, addr := startServer(t, nil)
	mustPut(t, newClient(t, testpki.User(t, "anchor-alice"), addr), PutOptions{Lifetime: 24 * time.Hour})
	cli := newClient(t, testpki.Host(t, "anchor-portal.test"), addr)
	cli.KeyAlgorithm = pki.AlgEd25519
	ctx := context.Background()
	opts := GetOptions{Username: testUser, Passphrase: testPass, Lifetime: time.Hour}
	if _, err := cli.Get(ctx, opts); err != nil { // files the anchor
		t.Fatal(err)
	}
	const perSession = 4
	var wg sync.WaitGroup
	errs := make(chan error, 2*perSession)
	for i := 0; i < 2; i++ {
		sess, err := cli.NewSession(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		for j := 0; j < perSession; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := sess.Get(ctx, opts); err != nil {
					errs <- err
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	vc := cli.dialer.VerifyCache()
	if vc.AnchorMisses() != 1 || vc.AnchorHits() != 2*perSession {
		t.Errorf("anchor misses %d hits %d, want 1 and %d", vc.AnchorMisses(), vc.AnchorHits(), 2*perSession)
	}
}

// TestSessionCarriesEveryOperation runs the five operations the session did
// not speak before it was a Repository — PUT, STORE, RETRIEVE,
// CHANGE_PASSPHRASE, DESTROY — each on a stream of one held connection.
func TestSessionCarriesEveryOperation(t *testing.T) {
	srv, addr := startServer(t, nil)
	alice := testpki.User(t, "sess-all-alice")
	sess := newClient(t, alice, addr).Session()
	defer sess.Close()
	ctx := context.Background()

	if err := sess.Put(ctx, PutOptions{Username: testUser, Passphrase: testPass}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	const newPass = "a second pass phrase"
	if err := sess.ChangePassphrase(ctx, testUser, testPass, newPass, ""); err != nil {
		t.Fatalf("ChangePassphrase: %v", err)
	}
	if _, err := sess.Get(ctx, GetOptions{Username: testUser, Passphrase: newPass}); err != nil {
		t.Fatalf("Get under the new pass phrase: %v", err)
	}
	if err := sess.Destroy(ctx, testUser, newPass, ""); err != nil {
		t.Fatalf("Destroy: %v", err)
	}
	if err := sess.Store(ctx, StoreOptions{Username: testUser, Passphrase: testPass, Credential: alice}); err != nil {
		t.Fatalf("Store: %v", err)
	}
	back, err := sess.Retrieve(ctx, RetrieveOptions{Username: testUser, Passphrase: testPass})
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	if !pki.PublicKeysEqual(back.PrivateKey.Public(), alice.PrivateKey.Public()) {
		t.Error("retrieved key differs from the deposit")
	}
	st := srv.Stats()
	if conns, streams := st.Connections.Load(), st.Streams.Load(); conns != 1 || streams != 6 {
		t.Errorf("connections = %d, streams = %d, want 1 and 6", conns, streams)
	}
}

// gatedStore parks every List of one username until released, and says
// when one has arrived: a repository that has stopped answering one stream.
type gatedStore struct {
	credstore.Store
	stuck            string
	entered, release chan struct{}
}

func (g *gatedStore) List(username string) ([]*credstore.Entry, error) {
	if username == g.stuck {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.Store.List(username)
}

// TestSessionStreamReturnsWhenItsContextIsDone: an operation on a session
// stream ends with its context, not with the stream timeout, and gives up
// only its own stream — the session serves the next operation on the
// connection it already holds.
func TestSessionStreamReturnsWhenItsContextIsDone(t *testing.T) {
	store := &gatedStore{
		Store: credstore.NewMemStore(), stuck: "stuck-user",
		entered: make(chan struct{}), release: make(chan struct{}),
	}
	defer close(store.release)
	srv, addr := startServer(t, func(cfg *ServerConfig) { cfg.Store = store })
	mustPut(t, newClient(t, testpki.User(t, "sess-ctx-alice"), addr), PutOptions{})

	cli := newClient(t, testpki.Host(t, "sess-ctx-portal.test"), addr)
	cli.Timeout = time.Hour // the context, not the stream timeout, must end the call
	sess, err := cli.NewSession(context.Background())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()

	ctx, cancel := context.WithCancel(context.Background())
	failed := make(chan error, 1)
	go func() {
		_, err := sess.Get(ctx, GetOptions{Username: store.stuck, Passphrase: testPass})
		failed <- err
	}()
	<-store.entered // the request is with the server, which will not answer
	cancel()
	if err := <-failed; !errors.Is(err, context.Canceled) {
		t.Fatalf("Get on a silent stream = %v, want context.Canceled", err)
	}

	before := srv.Stats().Streams.Load()
	if _, err := sess.Info(ctx, testUser, testPass); !errors.Is(err, context.Canceled) {
		t.Errorf("Info under a finished context = %v, want context.Canceled", err)
	}
	if got := srv.Stats().Streams.Load(); got != before {
		t.Errorf("an operation under a finished context opened %d stream(s)", got-before)
	}
	if _, err := sess.Get(context.Background(), GetOptions{Username: testUser, Passphrase: testPass}); err != nil {
		t.Fatalf("Get after an abandoned stream: %v", err)
	}
	if n := srv.Stats().Sessions.Load(); n != 1 {
		t.Errorf("sessions = %d, want 1: the abandoned stream cost the session", n)
	}
}

// TestSessionOutlivesTheContextItWasDialedUnder: the dial context governs
// establishment only; the operation that happened to dial the session does
// not take it down when its own context ends.
func TestSessionOutlivesTheContextItWasDialedUnder(t *testing.T) {
	srv, addr := startServer(t, nil)
	mustPut(t, newClient(t, testpki.User(t, "sess-life-alice"), addr), PutOptions{})
	sess := newClient(t, testpki.Host(t, "sess-life-portal.test"), addr).Session()
	defer sess.Close()

	ctx, cancel := context.WithCancel(context.Background())
	opts := GetOptions{Username: testUser, Passphrase: testPass}
	if _, err := sess.Get(ctx, opts); err != nil { // dials the session under ctx
		t.Fatalf("Get: %v", err)
	}
	cancel()
	if _, err := sess.Get(context.Background(), opts); err != nil {
		t.Fatalf("Get after the dialing operation's context ended: %v", err)
	}
	if n := srv.Stats().Sessions.Load(); n != 1 {
		t.Errorf("sessions = %d, want 1", n)
	}
}

// restart closes srv and serves the same store, under the same identity, on
// the same address again.
func restart(t *testing.T, srv *Server, addr string) *Server {
	t.Helper()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := NewServer(srv.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go again.Serve(ln)
	t.Cleanup(func() { again.Close() })
	return again
}

// TestSessionRedialsAfterServerRestart: a held session that died between
// two operations is replaced by the next one as part of its only attempt —
// no error, and no retry counted.
func TestSessionRedialsAfterServerRestart(t *testing.T) {
	srv, addr := startServer(t, func(cfg *ServerConfig) { cfg.Store = credstore.NewMemStore() })
	mustPut(t, newClient(t, testpki.User(t, "sess-restart-alice"), addr), PutOptions{})

	cli := newClient(t, testpki.Host(t, "sess-restart-portal.test"), addr)
	cli.Retry, cli.Stats = fastRetry(3), &Stats{}
	sess := cli.Session()
	defer sess.Close()
	opts := GetOptions{Username: testUser, Passphrase: testPass}
	if _, err := sess.Get(context.Background(), opts); err != nil {
		t.Fatalf("Get: %v", err)
	}
	held := sess.mux.Load()
	again := restart(t, srv, addr)
	<-held.Done() // the client has seen the old server hang up

	if _, err := sess.Get(context.Background(), opts); err != nil {
		t.Fatalf("Get after the restart: %v", err)
	}
	if n := cli.Stats.Retries.Load(); n != 0 {
		t.Errorf("retries = %d, want 0: re-dialing a dead session is not a retry", n)
	}
	if n := again.Stats().Sessions.Load(); n != 1 {
		t.Errorf("sessions on the restarted server = %d, want 1", n)
	}
}

// returnsSoon fails the test unless done is closed long before the drain
// timeout the callers configure.
func returnsSoon(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// TestCloseEndsAnIdleSessionAtOnce: a session with no stream in flight does
// not hold Close for the drain timeout, and is not counted as cut off.
func TestCloseEndsAnIdleSessionAtOnce(t *testing.T) {
	srv, addr := startServer(t, func(cfg *ServerConfig) { cfg.DrainTimeout = time.Minute })
	mustPut(t, newClient(t, testpki.User(t, "drain-idle-alice"), addr), PutOptions{})
	sess, err := newClient(t, testpki.Host(t, "drain-idle-portal.test"), addr).NewSession(context.Background())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()
	if _, err := sess.Get(context.Background(), GetOptions{Username: testUser, Passphrase: testPass}); err != nil {
		t.Fatalf("Get: %v", err)
	}

	closed := make(chan struct{})
	go func() {
		defer close(closed)
		srv.Close()
	}()
	returnsSoon(t, closed, "Close with an idle session open")
	if n := srv.Stats().ForcedCloses.Load(); n != 0 {
		t.Errorf("forced closes = %d, want 0 for an idle session", n)
	}
}

// gatedKeys is a client key source that parks a GET between the server's
// go-ahead and the CSR — mid-delegation — until released.
type gatedKeys struct{ entered, release chan struct{} }

func (g *gatedKeys) Get(_ context.Context, spec pki.KeySpec) (crypto.Signer, error) {
	g.entered <- struct{}{}
	<-g.release
	return pki.GenerateSigner(spec)
}

// TestCloseLetsAnInFlightStreamFinish: a stream that is mid-delegation when
// the drain begins completes, and Close returns once it has.
func TestCloseLetsAnInFlightStreamFinish(t *testing.T) {
	srv, addr := startServer(t, func(cfg *ServerConfig) { cfg.DrainTimeout = time.Minute })
	mustPut(t, newClient(t, testpki.User(t, "drain-busy-alice"), addr), PutOptions{})
	cli := newClient(t, testpki.Host(t, "drain-busy-portal.test"), addr)
	keys := &gatedKeys{entered: make(chan struct{}), release: make(chan struct{})}
	cli.KeySource = keys
	sess, err := cli.NewSession(context.Background())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer sess.Close()

	got := make(chan error, 1)
	go func() {
		_, err := sess.Get(context.Background(), GetOptions{Username: testUser, Passphrase: testPass})
		got <- err
	}()
	<-keys.entered // the server has sent its go-ahead and waits for the CSR
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		srv.Close()
	}()
	<-srv.acceptor.Done() // Close has begun
	select {
	case <-closed:
		t.Fatal("Close returned with a stream in flight")
	default:
	}
	close(keys.release)
	if err := <-got; err != nil {
		t.Fatalf("Get in flight across the drain: %v", err)
	}
	returnsSoon(t, closed, "Close after the in-flight stream finished")
	if n := srv.Stats().ForcedCloses.Load(); n != 0 {
		t.Errorf("forced closes = %d, want 0", n)
	}
	// The drained session is gone, and nothing answers on its address.
	if _, err := sess.Get(context.Background(), GetOptions{Username: testUser, Passphrase: testPass}); err == nil {
		t.Error("Get after Close succeeded")
	}
}

package cluster

import (
	"context"
	"crypto"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/credstore"
	"repro/internal/faultnet"
	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/protocol"
	"repro/internal/resilience"
	"repro/internal/testpki"
)

// The tests above drive the router over fakes; these drive the default
// wiring — one held core.Session per node — against real repositories.

const (
	heldUser = "held-user"
	heldPass = "held pass phrase"
)

type testNode struct {
	srv  *core.Server
	addr string
	tap  *tapListener
}

// tapListener remembers the connection it accepted last, so a test can cut
// it, or silence it, at a point of its choosing.
type tapListener struct {
	net.Listener
	mu   sync.Mutex
	last *faultnet.Conn // guarded by mu
}

func (l *tapListener) Accept() (net.Conn, error) {
	raw, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.last = faultnet.WrapConn(raw, faultnet.Plan{})
	return l.last, nil
}

func (l *tapListener) lastConn() *faultnet.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// startNodes serves n repositories on loopback, configured by mutate.
func startNodes(t *testing.T, n int, mutate func(i int, cfg *core.ServerConfig)) []testNode {
	t.Helper()
	nodes := make([]testNode, n)
	for i := range nodes {
		cfg := core.ServerConfig{
			Credential:           testpki.Host(t, "myproxy.test"),
			Roots:                testpki.PoolOf(testpki.CA(t).Certificate()),
			AcceptedCredentials:  policy.NewACL("/C=US/O=Test Grid/*"),
			AuthorizedRetrievers: policy.NewACL("/C=US/O=Test Grid/*"),
			KDFIterations:        64,
			DelegationKeyBits:    1024,
			DrainTimeout:         5 * time.Second,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv, err := core.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tap := &tapListener{Listener: ln}
		go srv.Serve(tap)
		t.Cleanup(func() { srv.Close() })
		nodes[i] = testNode{srv, ln.Addr().String(), tap}
	}
	return nodes
}

// heldClient builds a cluster client over nodes as cred, with the default
// node clients; mutate may adjust the configuration first.
func heldClient(t *testing.T, cred *pki.Credential, nodes []testNode, rf int, mutate func(*Config)) *Client {
	t.Helper()
	cfg := Config{
		ReplicationFactor: rf,
		Credential:        cred,
		Roots:             testpki.PoolOf(testpki.CA(t).Certificate()),
		ExpectedServer:    "*/CN=myproxy.test",
		KeyBits:           1024,
		Timeout:           30 * time.Second,
	}
	for i, n := range nodes {
		cfg.Nodes = append(cfg.Nodes, NodeConfig{ID: NodeID(fmt.Sprintf("node%d", i)), Addr: n.addr})
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// deposit puts a proxy of a fresh user under heldUser on every replica.
func deposit(t *testing.T, nodes []testNode, rf int) {
	t.Helper()
	owner := heldClient(t, testpki.User(t, "held-owner"), nodes, rf, nil)
	if err := owner.Put(context.Background(), core.PutOptions{Username: heldUser, Passphrase: heldPass}); err != nil {
		t.Fatalf("deposit: %v", err)
	}
}

func sum(nodes []testNode, counter func(*core.Stats) int64) (n int64) {
	for _, node := range nodes {
		n += counter(node.srv.Stats())
	}
	return n
}

var getHeld = core.GetOptions{Username: heldUser, Passphrase: heldPass}

// After the first routed call has dialed a node's session, routed GETs cost
// the nodes one stream each and no connection: where the handshake and the
// unseal KDF per call went.
func TestRoutedCallsRideHeldSessions(t *testing.T) {
	nodes := startNodes(t, 3, nil)
	deposit(t, nodes, 2)
	portal := heldClient(t, testpki.Host(t, "held-portal.test"), nodes, 2, nil)
	ctx := context.Background()
	if _, err := portal.Get(ctx, getHeld); err != nil {
		t.Fatalf("warm-up Get: %v", err)
	}
	conns := sum(nodes, func(s *core.Stats) int64 { return s.Connections.Load() })
	streams := sum(nodes, func(s *core.Stats) int64 { return s.Streams.Load() })
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := portal.Get(ctx, getHeld); err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
	}
	if d := sum(nodes, func(s *core.Stats) int64 { return s.Connections.Load() }) - conns; d != 0 {
		t.Errorf("%d routed GETs opened %d connection(s), want 0", n, d)
	}
	if d := sum(nodes, func(s *core.Stats) int64 { return s.Streams.Load() }) - streams; d != n {
		t.Errorf("%d routed GETs took %d stream(s), want %d", n, d, n)
	}

	if err := portal.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := portal.Get(ctx, getHeld); err == nil {
		t.Error("Get after Close succeeded")
	}
}

// A CRL reload refuses a peer on the next routed call of a node session that
// is already open (core.TestSessionRevokedPeerRefusedMidSession, through the
// cluster client).
func TestRevokedPeerRefusedOnItsOpenNodeSession(t *testing.T) {
	nodes := startNodes(t, 1, nil)
	deposit(t, nodes, 1)
	cred := testpki.Host(t, "held-revoked.test")
	portal := heldClient(t, cred, nodes, 1, nil)
	if _, err := portal.Get(context.Background(), getHeld); err != nil {
		t.Fatalf("Get before the revocation: %v", err)
	}
	serial := cred.Certificate.SerialNumber.String()
	nodes[0].srv.SetRevoked(func(c *x509.Certificate) bool { return c.SerialNumber.String() == serial })
	if _, err := portal.Get(context.Background(), getHeld); err == nil {
		t.Fatal("revoked peer served on its open node session")
	}
	if n := nodes[0].srv.Stats().Gets.Load(); n != 1 {
		t.Errorf("gets served = %d, want 1", n)
	}
}

// A node that refuses session mode is served one connection per exchange.
func TestNodeWithoutSessionsServedPerExchange(t *testing.T) {
	nodes := startNodes(t, 1, func(_ int, cfg *core.ServerConfig) { cfg.DisableSessions = true })
	deposit(t, nodes, 1)
	portal := heldClient(t, testpki.Host(t, "held-legacy.test"), nodes, 1, nil)
	for i := 0; i < 2; i++ {
		if _, err := portal.Get(context.Background(), getHeld); err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
	}
	st := nodes[0].srv.Stats()
	if st.Sessions.Load() != 0 || st.Streams.Load() != 0 || st.Gets.Load() != 2 {
		t.Errorf("sessions %d, streams %d, gets %d; want 0, 0, 2",
			st.Sessions.Load(), st.Streams.Load(), st.Gets.Load())
	}
}

// hookKeys is a key source that calls hook before the first key it hands
// out: on a server, inside a PUT's commit window; on a client, mid-GET.
type hookKeys struct {
	once sync.Once
	hook func()
}

func (h *hookKeys) Get(_ context.Context, spec pki.KeySpec) (crypto.Signer, error) {
	h.once.Do(h.hook)
	return pki.GenerateSigner(spec)
}

// hookStore calls hook before the first Delete: inside a DESTROY's commit
// window.
type hookStore struct {
	credstore.Backend
	once sync.Once
	hook func()
}

func (h *hookStore) Delete(username, name string) error {
	h.once.Do(h.hook)
	return h.Backend.Delete(username, name)
}

// A node session cut inside a mutation's commit window leaves the outcome
// unknown: the cluster client reports ambiguity, marked safe to replay
// exactly when protocol.Command.Idempotent says the command is, and the
// node client — retry policy or not — does not replay it.
func TestSessionCutInCommitWindowIsAmbiguousNotReplayed(t *testing.T) {
	for _, tc := range []struct {
		cmd protocol.Command
		run func(ctx context.Context, c *Client) error
	}{
		{protocol.CmdPut, func(ctx context.Context, c *Client) error {
			return c.Put(ctx, core.PutOptions{Username: heldUser, Passphrase: heldPass})
		}},
		{protocol.CmdDestroy, func(ctx context.Context, c *Client) error {
			return c.Destroy(ctx, heldUser, heldPass, "")
		}},
	} {
		t.Run(tc.cmd.String(), func(t *testing.T) {
			// The server hangs up from inside the commit window: what it had
			// sent by then — a PUT's go-ahead — still reaches the client.
			var nodes []testNode
			cut := func() { nodes[0].tap.lastConn().Close() }
			nodes = startNodes(t, 1, func(_ int, cfg *core.ServerConfig) {
				cfg.KeySource = &hookKeys{hook: cut}
				cfg.Store = &hookStore{Backend: credstore.NewMemStore(), hook: cut}
			})
			stats := &core.Stats{}
			owner := heldClient(t, testpki.User(t, "held-owner"), nodes, 1, func(cfg *Config) {
				cfg.Retry = resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond}
				cfg.Stats = stats
			})
			ctx := context.Background()
			if tc.cmd == protocol.CmdDestroy {
				// Something to destroy, deposited without the client under test.
				entry := &credstore.Entry{Username: heldUser, Owner: testpki.User(t, "held-owner").Subject()}
				if err := entry.SetPassphrase([]byte(heldPass), 64); err != nil {
					t.Fatal(err)
				}
				if err := nodes[0].srv.Store().Put(entry); err != nil {
					t.Fatal(err)
				}
			}
			err := tc.run(ctx, owner)
			var ae *resilience.AmbiguousError
			if !errors.As(err, &ae) || ae.Op != tc.cmd.String() || ae.RetrySafe != tc.cmd.Idempotent() {
				t.Fatalf("%s cut in its commit window = %v, want ambiguity with RetrySafe=%v", tc.cmd, err, tc.cmd.Idempotent())
			}
			st := nodes[0].srv.Stats()
			if st.Connections.Load() != 1 || st.Streams.Load() != 1 || stats.Retries.Load() != 0 {
				t.Errorf("connections %d, streams %d, retries %d; want 1, 1, 0: the mutation was replayed",
					st.Connections.Load(), st.Streams.Load(), stats.Retries.Load())
			}
		})
	}
}

// The same cut in a GET — no commit window — is a retryable fault: under a
// retry policy the next attempt runs on a fresh session.
func TestSessionCutInGetIsRetriedOnAFreshSession(t *testing.T) {
	nodes := startNodes(t, 1, nil)
	deposit(t, nodes, 1)
	stats := &core.Stats{}
	portal := heldClient(t, testpki.Host(t, "held-cut.test"), nodes, 1, func(cfg *Config) {
		cfg.KeySource = &hookKeys{hook: func() { nodes[0].tap.lastConn().Close() }}
		cfg.Retry = resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond}
		cfg.Stats = stats
	})
	before := nodes[0].srv.Stats().Sessions.Load()
	if _, err := portal.Get(context.Background(), getHeld); err != nil {
		t.Fatalf("Get across a cut session: %v", err)
	}
	if n := stats.Retries.Load(); n != 1 {
		t.Errorf("retries = %d, want 1", n)
	}
	if d := nodes[0].srv.Stats().Sessions.Load() - before; d != 2 {
		t.Errorf("sessions opened = %d, want 2: the cut one and a fresh one", d)
	}
}

// A node whose link goes silent under an open session — a partitioned peer
// takes the request into its socket buffer and never answers — costs a read
// the client's timeout for one attempt: the router fails over and the caller
// is answered well inside its context.
func TestReadFailsOverFromASilentNode(t *testing.T) {
	nodes := startNodes(t, 2, nil)
	deposit(t, nodes, 2)
	portal := heldClient(t, testpki.Host(t, "held-silent.test"), nodes, 2, func(cfg *Config) {
		cfg.Timeout = 2 * time.Second
		cfg.Probation = time.Hour
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := portal.Get(ctx, getHeld); err != nil {
		t.Fatalf("warm-up Get: %v", err)
	}
	gets := func(i int) int64 { return nodes[i].srv.Stats().Gets.Load() }
	primary := 0
	if gets(1) == 1 {
		primary = 1
	}
	nodes[primary].tap.lastConn().Stall() // the portal's session: still open, now silent

	if _, err := portal.Get(ctx, getHeld); err != nil {
		t.Fatalf("Get with the primary silent: %v", err)
	}
	if gets(1-primary) != 1 {
		t.Errorf("gets on the other replica = %d, want 1: the read did not fail over", gets(1-primary))
	}
	if !portal.router.Health.Suspect(portal.Replicas(heldUser)[0]) {
		t.Error("the silent primary was not put on probation")
	}
}

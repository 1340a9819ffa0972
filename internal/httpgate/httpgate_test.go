package httpgate

import (
	"context"
	"log"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/credstore"
	"repro/internal/otp"
	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/proxy"
	"repro/internal/testpki"
)

func gatewayConfig(t *testing.T) core.ServerConfig {
	t.Helper()
	return core.ServerConfig{
		Credential:           testpki.Host(t, "httpgate.test"),
		Roots:                testpki.PoolOf(testpki.CA(t).Certificate()),
		AcceptedCredentials:  policy.NewACL("/C=US/O=Test Grid/*"),
		AuthorizedRetrievers: policy.NewACL("/C=US/O=Test Grid/*"),
		KDFIterations:        64,
		DelegationKeyBits:    1024,
	}
}

func startGateway(t *testing.T, mutate func(*core.ServerConfig)) (*Gateway, string) {
	t.Helper()
	cfg := gatewayConfig(t)
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go g.Serve(ln)
	t.Cleanup(func() { ln.Close() })
	return g, "https://" + ln.Addr().String()
}

func newGateClient(t *testing.T, cred *pki.Credential, base string) *Client {
	t.Helper()
	return &Client{
		Credential: cred,
		Roots:      testpki.PoolOf(testpki.CA(t).Certificate()),
		BaseURL:    base,
		ServerName: "httpgate.test",
		KeyBits:    1024,
		Timeout:    10 * time.Second,
	}
}

// seedDelegated puts a delegated credential into the gateway's store via
// the core (GSI) frontend sharing the same store, proving the two
// frontends interoperate.
func seedDelegated(t *testing.T, g *Gateway, username, pass string, user *pki.Credential) {
	t.Helper()
	cfg := gatewayConfig(t)
	cfg.Store = g.Store()
	srv, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cli := &core.Client{
		Credential: user, Roots: testpki.PoolOf(testpki.CA(t).Certificate()),
		Addr: ln.Addr().String(), ExpectedServer: "*/CN=httpgate.test", KeyBits: 1024,
	}
	if err := cli.Put(context.Background(), core.PutOptions{
		Username: username, Passphrase: pass, Lifetime: 24 * time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
}

const gatePass = "http gateway pass phrase"

// TestInfoOverHTTPLeavesRequestLine: the gateway writes the request line
// the wire server writes for every request it parses, so an INFO, which
// has no outcome line of its own, is in the audit log too.
func TestInfoOverHTTPLeavesRequestLine(t *testing.T) {
	var sink auditLog
	g, base := startGateway(t, func(cfg *core.ServerConfig) { cfg.Logger = log.New(&sink, "", 0) })
	seedDelegated(t, g, "alice", gatePass, testpki.User(t, "gate-info-alice"))
	portal := testpki.Host(t, "gate-info-portal.test")
	if _, err := newGateClient(t, portal, base).Info(context.Background(), "alice", gatePass); err != nil {
		t.Fatalf("Info: %v", err)
	}
	want := portal.Subject() + ` INFO username="alice" cred="" from 127.0.0.1:`
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, e := range sink.events {
		if strings.HasPrefix(e, want) {
			return
		}
	}
	t.Errorf("no line starting %q in the audit log: %q", want, sink.events)
}

func TestGetOverHTTP(t *testing.T) {
	g, base := startGateway(t, nil)
	alice := testpki.User(t, "gate-alice")
	seedDelegated(t, g, "alice", gatePass, alice)

	portal := testpki.Host(t, "gate-portal.test")
	cli := newGateClient(t, portal, base)
	cred, err := cli.Get(context.Background(), GetRequest{
		Username: "alice", Passphrase: gatePass, LifetimeSeconds: 3600,
	})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	res, err := proxy.Verify(cred.CertChain(), proxy.VerifyOptions{
		Roots: testpki.PoolOf(testpki.CA(t).Certificate()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.IdentityString() != alice.Subject() {
		t.Errorf("identity = %q", res.IdentityString())
	}
	if res.Depth != 2 {
		t.Errorf("depth = %d", res.Depth)
	}
	if left := cred.TimeLeft(); left > time.Hour+time.Minute {
		t.Errorf("lifetime %v exceeds request", left)
	}
}

func TestGetWrongPassphrase(t *testing.T) {
	g, base := startGateway(t, nil)
	alice := testpki.User(t, "gate-alice")
	seedDelegated(t, g, "alice", gatePass, alice)
	cli := newGateClient(t, testpki.Host(t, "gate-portal.test"), base)
	_, err := cli.Get(context.Background(), GetRequest{Username: "alice", Passphrase: "wrong wrong"})
	if err == nil || !strings.Contains(err.Error(), "bad pass phrase") {
		t.Fatalf("wrong pass: %v", err)
	}
}

func TestGetProxyClientChain(t *testing.T) {
	// A client authenticating with a proxy chain works over plain HTTPS:
	// the gateway runs the proxy-aware validator on the TLS client chain.
	g, base := startGateway(t, nil)
	alice := testpki.User(t, "gate-alice")
	seedDelegated(t, g, "alice", gatePass, alice)

	p, err := proxy.New(testpki.User(t, "gate-bob"), proxy.Options{Lifetime: time.Hour, KeyBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	cli := newGateClient(t, p, base)
	if _, err := cli.Get(context.Background(), GetRequest{
		Username: "alice", Passphrase: gatePass,
	}); err != nil {
		t.Fatalf("Get with proxy client chain: %v", err)
	}
}

func TestUntrustedClientRejected(t *testing.T) {
	_, base := startGateway(t, nil)
	rogueCA, err := pki.NewCA(pki.CAConfig{Name: pki.MustParseDN("/CN=Rogue"), Key: testpki.Key(t, 5)})
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := rogueCA.IssueCredentialForKey(pki.MustParseDN("/CN=rogue"), time.Hour, testpki.Key(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	cli := newGateClient(t, rogue, base)
	_, err = cli.Get(context.Background(), GetRequest{Username: "alice", Passphrase: gatePass})
	if err == nil || !strings.Contains(err.Error(), "client chain rejected") {
		t.Fatalf("untrusted client: %v", err)
	}
}

func TestACLEnforced(t *testing.T) {
	g, base := startGateway(t, func(cfg *core.ServerConfig) {
		cfg.AuthorizedRetrievers = policy.NewACL("*/CN=gate-portal.test")
	})
	alice := testpki.User(t, "gate-alice")
	// Seed directly through the store (core frontend would need matching
	// ACLs; keep this test focused on the gateway's retrieval ACL).
	seedViaStore(t, g, "alice", alice)

	mallory := testpki.User(t, "gate-mallory")
	cli := newGateClient(t, mallory, base)
	_, err := cli.Get(context.Background(), GetRequest{Username: "alice", Passphrase: gatePass})
	if err == nil || !strings.Contains(err.Error(), "authorization failed") {
		t.Fatalf("ACL: %v", err)
	}
}

func seedViaStore(t *testing.T, g *Gateway, username string, user *pki.Credential) {
	t.Helper()
	p, err := proxy.New(user, proxy.Options{Lifetime: 24 * time.Hour, KeyBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	entry := &credstore.Entry{Username: username, Owner: user.Subject()}
	if err := credstore.SealDelegated(entry, p, []byte(gatePass), 64); err != nil {
		t.Fatal(err)
	}
	if err := g.Store().Put(entry); err != nil {
		t.Fatal(err)
	}
}

func TestInfoOverHTTP(t *testing.T) {
	g, base := startGateway(t, nil)
	alice := testpki.User(t, "gate-alice")
	seedViaStore(t, g, "alice", alice)
	cli := newGateClient(t, alice, base)
	info, err := cli.Info(context.Background(), "alice", gatePass)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Credentials) != 1 || info.Credentials[0].Owner != alice.Subject() {
		t.Errorf("info = %+v", info)
	}
	if _, err := cli.Info(context.Background(), "alice", "wrong"); err == nil {
		t.Error("info with wrong pass phrase")
	}
}

func TestStoreRetrieveDestroyOverHTTP(t *testing.T) {
	_, base := startGateway(t, nil)
	alice := testpki.User(t, "gate-alice")
	cli := newGateClient(t, alice, base)
	ctx := context.Background()

	if err := cli.Store(ctx, StoreRequest{
		Username: "alice", Passphrase: gatePass, CredName: "longterm",
	}, alice); err != nil {
		t.Fatalf("Store: %v", err)
	}
	back, err := cli.Retrieve(ctx, RetrieveRequest{
		Username: "alice", Passphrase: gatePass, CredName: "longterm",
	})
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	if !pki.PublicKeysEqual(back.PrivateKey.Public(), alice.PrivateKey.Public()) {
		t.Error("key mismatch")
	}
	// Destroy by a non-owner fails; by the owner succeeds.
	mallory := newGateClient(t, testpki.User(t, "gate-mallory"), base)
	if err := mallory.Destroy(ctx, DestroyRequest{
		Username: "alice", Passphrase: gatePass, CredName: "longterm",
	}); err == nil {
		t.Error("non-owner destroyed")
	}
	if err := cli.Destroy(ctx, DestroyRequest{
		Username: "alice", Passphrase: gatePass, CredName: "longterm",
	}); err != nil {
		t.Fatalf("Destroy: %v", err)
	}
	if _, err := cli.Retrieve(ctx, RetrieveRequest{
		Username: "alice", Passphrase: gatePass, CredName: "longterm",
	}); err == nil {
		t.Error("retrieve after destroy")
	}
}

func TestOTPOverHTTP(t *testing.T) {
	registry := otp.NewRegistry()
	g, base := startGateway(t, func(cfg *core.ServerConfig) { cfg.OTP = registry })
	alice := testpki.User(t, "gate-alice")
	seedViaStore(t, g, "alice", alice)
	secret := "gateway otp secret"
	if err := registry.Register("alice", otp.SHA1, secret, "gateseed", 10); err != nil {
		t.Fatal(err)
	}
	cli := newGateClient(t, alice, base)
	_, err := cli.Get(context.Background(), GetRequest{Username: "alice", Passphrase: gatePass})
	if err == nil || !strings.Contains(err.Error(), "challenge") {
		t.Fatalf("expected challenge: %v", err)
	}
	// Extract the challenge and answer it.
	start := strings.Index(err.Error(), `"`)
	end := strings.LastIndex(err.Error(), `"`)
	challenge := err.Error()[start+1 : end]
	resp, err := otp.Respond(challenge, secret)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Get(context.Background(), GetRequest{
		Username: "alice", Passphrase: gatePass, OTP: resp,
	}); err != nil {
		t.Fatalf("Get with OTP: %v", err)
	}
	// Replay fails.
	if _, err := cli.Get(context.Background(), GetRequest{
		Username: "alice", Passphrase: gatePass, OTP: resp,
	}); err == nil {
		t.Fatal("replayed OTP accepted over HTTP")
	}
}

func TestGatewayValidation(t *testing.T) {
	if _, err := New(core.ServerConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

package renewal

import (
	"context"
	"crypto/x509"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/proxy"
	"repro/internal/testpki"
)

func testRoots(t *testing.T) *x509.CertPool {
	t.Helper()
	pool := x509.NewCertPool()
	pool.AddCert(testpki.CA(t).Certificate())
	return pool
}

// startRepo brings up a repository that permits the test org to deposit,
// retrieve, and renew.
func startRepo(t *testing.T) (srv *core.Server, addr string) {
	t.Helper()
	cfg := core.ServerConfig{
		Credential:           testpki.Host(t, "myproxy.test"),
		Roots:                testRoots(t),
		AcceptedCredentials:  policy.NewACL("/C=US/O=Test Grid/*"),
		AuthorizedRetrievers: policy.NewACL("/C=US/O=Test Grid/*"),
		AuthorizedRenewers:   policy.NewACL("/C=US/O=Test Grid/*"),
		KDFIterations:        64,
		DelegationKeyBits:    1024,
	}
	s, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

func newClientFactory(t *testing.T, addr string) func(cred *pki.Credential) *core.Client {
	t.Helper()
	return func(cred *pki.Credential) *core.Client {
		return &core.Client{
			Credential:     cred,
			Roots:          testRoots(t),
			Addr:           addr,
			ExpectedServer: "*/CN=myproxy.test",
			KeyBits:        1024,
			Timeout:        10 * time.Second,
		}
	}
}

// depositRenewable stores alice's renewable credential and returns an
// initial short-lived job proxy.
func depositRenewable(t *testing.T, addr string, jobLifetime time.Duration) *pki.Credential {
	t.Helper()
	alice := testpki.User(t, "renew-alice")
	factory := newClientFactory(t, addr)
	if err := factory(alice).Put(context.Background(), core.PutOptions{
		Username: "alice", Renewable: true, Lifetime: 24 * time.Hour,
	}); err != nil {
		t.Fatalf("Put renewable: %v", err)
	}
	jobProxy, err := proxy.New(alice, proxy.Options{Lifetime: jobLifetime, KeyBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return jobProxy
}

func TestRenewOnce(t *testing.T) {
	// Experiment E11 core: a job's expiring proxy is exchanged for a
	// fresh one without any pass phrase or user interaction.
	_, addr := startRepo(t)
	jobProxy := depositRenewable(t, addr, 10*time.Minute)
	holder := NewHolder(jobProxy)
	r, err := New(Config{
		Holder:    holder,
		NewClient: newClientFactory(t, addr),
		Username:  "alice",
		Threshold: 15 * time.Minute,
		Lifetime:  2 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.NeedsRenewal() {
		t.Fatal("10-minute proxy not within 15-minute threshold")
	}
	before := holder.TimeLeft()
	if err := r.RenewOnce(context.Background()); err != nil {
		t.Fatalf("RenewOnce: %v", err)
	}
	if holder.TimeLeft() <= before {
		t.Errorf("renewal did not extend lifetime: %v -> %v", before, holder.TimeLeft())
	}
	// The renewed credential still authenticates as alice.
	res, err := proxy.Verify(holder.Credential().CertChain(), proxy.VerifyOptions{Roots: testRoots(t)})
	if err != nil {
		t.Fatal(err)
	}
	if res.IdentityString() != testpki.User(t, "renew-alice").Subject() {
		t.Errorf("renewed identity = %q", res.IdentityString())
	}
}

func TestMaybeRenewSkipsFreshCredential(t *testing.T) {
	_, addr := startRepo(t)
	jobProxy := depositRenewable(t, addr, 8*time.Hour)
	holder := NewHolder(jobProxy)
	r, err := New(Config{
		Holder:    holder,
		NewClient: newClientFactory(t, addr),
		Username:  "alice",
		Threshold: 15 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	renewed, err := r.MaybeRenew(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if renewed {
		t.Error("fresh credential renewed unnecessarily")
	}
}

func TestRenewalDeniedWithoutRenewableFlag(t *testing.T) {
	_, addr := startRepo(t)
	alice := testpki.User(t, "renew-alice")
	factory := newClientFactory(t, addr)
	// Deposit WITHOUT the renewable flag.
	if err := factory(alice).Put(context.Background(), core.PutOptions{
		Username: "alice2", Passphrase: "a strong pass phrase",
	}); err != nil {
		t.Fatal(err)
	}
	jobProxy, err := proxy.New(alice, proxy.Options{Lifetime: time.Hour, KeyBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	_, err = factory(jobProxy).Get(context.Background(), core.GetOptions{
		Username: "alice2", Renewal: true,
	})
	if err == nil || !strings.Contains(err.Error(), "authorization failed") {
		t.Fatalf("renewal of non-renewable credential: %v", err)
	}
}

func TestRenewalDeniedForWrongIdentity(t *testing.T) {
	_, addr := startRepo(t)
	_ = depositRenewable(t, addr, time.Hour)
	factory := newClientFactory(t, addr)
	// Bob, though in the renewer ACL, is not alice: identity match fails.
	bob := testpki.User(t, "renew-bob")
	_, err := factory(bob).Get(context.Background(), core.GetOptions{
		Username: "alice", Renewal: true,
	})
	if err == nil {
		t.Fatal("renewal by a different identity succeeded")
	}
}

func TestRenewalDeniedOutsideRenewerACL(t *testing.T) {
	// A repository with no renewer ACL refuses all renewals even for the
	// owner identity.
	cfg := core.ServerConfig{
		Credential:           testpki.Host(t, "myproxy.test"),
		Roots:                testRoots(t),
		AcceptedCredentials:  policy.NewACL("/C=US/O=Test Grid/*"),
		AuthorizedRetrievers: policy.NewACL("/C=US/O=Test Grid/*"),
		KDFIterations:        64,
		DelegationKeyBits:    1024,
	}
	s, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	addr := ln.Addr().String()

	jobProxy := depositRenewable(t, addr, time.Hour)
	_, err = newClientFactory(t, addr)(jobProxy).Get(context.Background(), core.GetOptions{
		Username: "alice", Renewal: true,
	})
	if err == nil {
		t.Fatal("renewal without renewer ACL succeeded")
	}
}

func TestRunLoopRenews(t *testing.T) {
	_, addr := startRepo(t)
	jobProxy := depositRenewable(t, addr, 5*time.Minute)
	holder := NewHolder(jobProxy)
	renewed := make(chan *pki.Credential, 1)
	r, err := New(Config{
		Holder:    holder,
		NewClient: newClientFactory(t, addr),
		Username:  "alice",
		Threshold: 10 * time.Minute,
		Interval:  10 * time.Millisecond,
		Lifetime:  time.Hour,
		OnRenew:   func(c *pki.Credential) { renewed <- c },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()
	select {
	case <-renewed:
	case <-time.After(10 * time.Second):
		t.Fatal("Run loop never renewed")
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Errorf("Run returned %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	holder := NewHolder(nil)
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Holder: holder}); err == nil {
		t.Error("missing NewClient accepted")
	}
	if _, err := New(Config{Holder: holder, NewClient: func(*pki.Credential) *core.Client { return nil }}); err == nil {
		t.Error("missing username accepted")
	}
}

func TestHolder(t *testing.T) {
	h := NewHolder(nil)
	if h.TimeLeft() != 0 {
		t.Error("nil credential has time left")
	}
	alice := testpki.User(t, "renew-alice")
	h.Replace(alice)
	if h.Credential() != alice || h.TimeLeft() <= 0 {
		t.Error("Replace/Credential broken")
	}
}

package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/credstore"
	"repro/internal/otp"
	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/proxy"
	"repro/internal/testpki"
)

// startServer launches a repository on a loopback port with permissive test
// ACLs; mutate customizes the config before start.
func startServer(t *testing.T, mutate func(*ServerConfig)) (*Server, string) {
	t.Helper()
	roots := testRoots(t)
	cfg := ServerConfig{
		Credential:           testpki.Host(t, "myproxy.test"),
		Roots:                roots,
		AcceptedCredentials:  policy.NewACL("/C=US/O=Test Grid/*"),
		AuthorizedRetrievers: policy.NewACL("/C=US/O=Test Grid/*"),
		KDFIterations:        64, // fast tests; production default is 64k
		DelegationKeyBits:    1024,
		RequestTimeout:       10 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ln, err := listenLoopback(t)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func testRoots(t *testing.T) *x509Pool {
	t.Helper()
	pool := newX509Pool()
	pool.AddCert(testpki.CA(t).Certificate())
	return pool
}

func newClient(t *testing.T, cred *pki.Credential, addr string) *Client {
	t.Helper()
	return &Client{
		Credential:     cred,
		Roots:          testRoots(t),
		Addr:           addr,
		ExpectedServer: "*/CN=myproxy.test",
		KeyBits:        1024,
		Timeout:        10 * time.Second,
	}
}

const (
	testUser = "jdoe"
	testPass = "correct horse battery staple"
)

func mustPut(t *testing.T, c *Client, opts PutOptions) {
	t.Helper()
	if opts.Username == "" {
		opts.Username = testUser
	}
	if opts.Passphrase == "" {
		opts.Passphrase = testPass
	}
	if err := c.Put(context.Background(), opts); err != nil {
		t.Fatalf("Put: %v", err)
	}
}

func TestPutGetEndToEnd(t *testing.T) {
	// Experiment E1+E2: the paper's Figures 1 and 2 end to end.
	srv, addr := startServer(t, nil)
	alice := testpki.User(t, "core-alice")
	userCli := newClient(t, alice, addr)
	mustPut(t, userCli, PutOptions{Lifetime: 24 * time.Hour, MaxDelegation: 4 * time.Hour})

	// The portal, with its own credential, retrieves a delegation.
	portal := testpki.Host(t, "portal.test")
	portalCli := newClient(t, portal, addr)
	cred, err := portalCli.Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass, Lifetime: 2 * time.Hour,
	})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	// The retrieved proxy authenticates as alice, two delegation hops deep
	// (user -> repository -> portal).
	res, err := proxy.Verify(cred.CertChain(), proxy.VerifyOptions{Roots: testRoots(t)})
	if err != nil {
		t.Fatalf("verify retrieved chain: %v", err)
	}
	if res.IdentityString() != alice.Subject() {
		t.Errorf("identity = %q, want %q", res.IdentityString(), alice.Subject())
	}
	if res.Depth != 2 {
		t.Errorf("depth = %d, want 2", res.Depth)
	}
	if left := cred.TimeLeft(); left > 2*time.Hour+time.Minute {
		t.Errorf("delegated lifetime %v exceeds request", left)
	}
	if srv.Stats().Puts.Load() != 1 || srv.Stats().Gets.Load() != 1 {
		t.Errorf("stats = %v", srv.Stats().Snapshot())
	}
}

func TestGetWrongPassphrase(t *testing.T) {
	_, addr := startServer(t, nil)
	alice := testpki.User(t, "core-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{})
	portalCli := newClient(t, testpki.Host(t, "portal.test"), addr)
	_, err := portalCli.Get(context.Background(), GetOptions{Username: testUser, Passphrase: "wrong wrong"})
	if err == nil {
		t.Fatal("wrong pass phrase accepted")
	}
	if !strings.Contains(err.Error(), "bad pass phrase") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestGetUnknownUser(t *testing.T) {
	_, addr := startServer(t, nil)
	portalCli := newClient(t, testpki.Host(t, "portal.test"), addr)
	_, err := portalCli.Get(context.Background(), GetOptions{Username: "nobody", Passphrase: testPass})
	if err == nil || !strings.Contains(err.Error(), "no credentials") {
		t.Fatalf("unknown user: %v", err)
	}
}

func TestACLsEnforced(t *testing.T) {
	// Experiment E6: both repository ACLs (paper §5.1).
	_, addr := startServer(t, func(cfg *ServerConfig) {
		cfg.AcceptedCredentials = policy.NewACL("*/CN=core-alice")
		cfg.AuthorizedRetrievers = policy.NewACL("*/CN=portal.test")
	})
	alice := testpki.User(t, "core-alice")
	mallory := testpki.User(t, "core-mallory")
	mustPut(t, newClient(t, alice, addr), PutOptions{})

	// Unauthorized writer.
	err := newClient(t, mallory, addr).Put(context.Background(), PutOptions{
		Username: "mallory", Passphrase: testPass,
	})
	if err == nil || !strings.Contains(err.Error(), "authorization failed") {
		t.Errorf("unauthorized PUT: %v", err)
	}
	// Unauthorized retriever with the CORRECT pass phrase (the paper's
	// key point: ACLs protect even against stolen authentication data).
	_, err = newClient(t, mallory, addr).Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass,
	})
	if err == nil || !strings.Contains(err.Error(), "authorization failed") {
		t.Errorf("unauthorized GET with stolen pass phrase: %v", err)
	}
	// Authorized retriever succeeds.
	if _, err := newClient(t, testpki.Host(t, "portal.test"), addr).Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass,
	}); err != nil {
		t.Errorf("authorized GET failed: %v", err)
	}
}

func TestWeakPassphraseRejected(t *testing.T) {
	_, addr := startServer(t, nil)
	alice := testpki.User(t, "core-alice")
	err := newClient(t, alice, addr).Put(context.Background(), PutOptions{
		Username: testUser, Passphrase: "passwd",
	})
	if err == nil || !strings.Contains(err.Error(), "pass phrase rejected") {
		t.Fatalf("weak pass phrase: %v", err)
	}
}

func TestPerCredentialRetrieverRestriction(t *testing.T) {
	_, addr := startServer(t, nil)
	alice := testpki.User(t, "core-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{Retrievers: "*/CN=portal.test"})
	// A different (server-authorized) retriever is still refused by the
	// per-credential restriction.
	other := testpki.Host(t, "other-portal.test")
	_, err := newClient(t, other, addr).Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass,
	})
	if err == nil || !strings.Contains(err.Error(), "authorization failed") {
		t.Errorf("per-credential restriction not enforced: %v", err)
	}
	if _, err := newClient(t, testpki.Host(t, "portal.test"), addr).Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass,
	}); err != nil {
		t.Errorf("allowed retriever failed: %v", err)
	}
}

func TestOwnerMaxDelegationClampsLifetime(t *testing.T) {
	// Experiment E8: the §4.1 retrieval restriction.
	_, addr := startServer(t, nil)
	alice := testpki.User(t, "core-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{MaxDelegation: 30 * time.Minute})
	cred, err := newClient(t, testpki.Host(t, "portal.test"), addr).Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass, Lifetime: 8 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if left := cred.TimeLeft(); left > 31*time.Minute {
		t.Errorf("owner restriction ignored: lifetime %v", left)
	}
}

func TestServerLifetimePolicyClampsDelegation(t *testing.T) {
	_, addr := startServer(t, func(cfg *ServerConfig) {
		cfg.Lifetimes = policy.LifetimePolicy{MaxDelegated: time.Hour}
	})
	alice := testpki.User(t, "core-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{})
	cred, err := newClient(t, testpki.Host(t, "portal.test"), addr).Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass, Lifetime: 6 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if left := cred.TimeLeft(); left > time.Hour+time.Minute {
		t.Errorf("server policy ignored: lifetime %v", left)
	}
}

func TestPutLifetimeExceedingPolicyRejected(t *testing.T) {
	_, addr := startServer(t, func(cfg *ServerConfig) {
		cfg.Lifetimes = policy.LifetimePolicy{MaxStored: time.Hour}
	})
	alice := testpki.User(t, "core-alice")
	err := newClient(t, alice, addr).Put(context.Background(), PutOptions{
		Username: testUser, Passphrase: testPass, Lifetime: 24 * time.Hour,
	})
	if err == nil || !strings.Contains(err.Error(), "exceeds server maximum") {
		t.Fatalf("over-long PUT: %v", err)
	}
}

func TestInfoListsCredentials(t *testing.T) {
	_, addr := startServer(t, nil)
	alice := testpki.User(t, "core-alice")
	cli := newClient(t, alice, addr)
	mustPut(t, cli, PutOptions{Description: "default cred", MaxDelegation: time.Hour})
	mustPut(t, cli, PutOptions{CredName: "cluster-a", Description: "for cluster A", TaskTags: []string{"hpc"}})

	infos, err := cli.Info(context.Background(), testUser, testPass)
	if err != nil {
		t.Fatalf("Info: %v", err)
	}
	if len(infos) != 2 {
		t.Fatalf("Info returned %d entries", len(infos))
	}
	if infos[0].Name != "" || infos[0].Description != "default cred" || infos[0].MaxDelegation != time.Hour {
		t.Errorf("default info = %+v", infos[0])
	}
	if infos[1].Name != "cluster-a" || len(infos[1].TaskTags) != 1 {
		t.Errorf("named info = %+v", infos[1])
	}
	if infos[0].Owner != alice.Subject() {
		t.Errorf("owner = %q", infos[0].Owner)
	}
	if infos[0].EndTime.Before(time.Now()) {
		t.Error("EndTime in the past")
	}
	// Wrong pass phrase: nothing listed.
	if _, err := cli.Info(context.Background(), testUser, "wrong wrong"); err == nil {
		t.Error("Info with wrong pass phrase succeeded")
	}
}

func TestDestroy(t *testing.T) {
	_, addr := startServer(t, nil)
	alice := testpki.User(t, "core-alice")
	cli := newClient(t, alice, addr)
	mustPut(t, cli, PutOptions{})

	// Non-owner cannot destroy even with the pass phrase.
	mallory := testpki.User(t, "core-mallory")
	err := newClient(t, mallory, addr).Destroy(context.Background(), testUser, testPass, "")
	if err == nil {
		t.Error("non-owner destroyed a credential")
	}
	// Owner with wrong pass phrase cannot destroy.
	if err := cli.Destroy(context.Background(), testUser, "wrong wrong", ""); err == nil {
		t.Error("destroy with wrong pass phrase")
	}
	// Owner destroys (paper §4.1: "the user can also, at any point, use
	// the myproxy-destroy client program").
	if err := cli.Destroy(context.Background(), testUser, testPass, ""); err != nil {
		t.Fatalf("Destroy: %v", err)
	}
	_, err = newClient(t, testpki.Host(t, "portal.test"), addr).Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass,
	})
	if err == nil {
		t.Fatal("credential retrievable after destroy")
	}
}

func TestChangePassphrase(t *testing.T) {
	_, addr := startServer(t, nil)
	alice := testpki.User(t, "core-alice")
	cli := newClient(t, alice, addr)
	mustPut(t, cli, PutOptions{})
	newPass := "a brand new pass phrase"
	if err := cli.ChangePassphrase(context.Background(), testUser, testPass, newPass, ""); err != nil {
		t.Fatalf("ChangePassphrase: %v", err)
	}
	portalCli := newClient(t, testpki.Host(t, "portal.test"), addr)
	if _, err := portalCli.Get(context.Background(), GetOptions{Username: testUser, Passphrase: testPass}); err == nil {
		t.Error("old pass phrase still valid")
	}
	if _, err := portalCli.Get(context.Background(), GetOptions{Username: testUser, Passphrase: newPass}); err != nil {
		t.Errorf("new pass phrase rejected: %v", err)
	}
	// Weak new pass phrase rejected.
	if err := cli.ChangePassphrase(context.Background(), testUser, newPass, "123", ""); err == nil {
		t.Error("weak new pass phrase accepted")
	}
}

func TestStoreRetrieve(t *testing.T) {
	// Paper §6.1: long-term credential management.
	srv, addr := startServer(t, nil)
	alice := testpki.User(t, "core-alice")
	cli := newClient(t, alice, addr)
	if err := cli.Store(context.Background(), StoreOptions{
		Username: testUser, Passphrase: testPass, CredName: "longterm",
		Credential: alice, Description: "long-term identity",
	}); err != nil {
		t.Fatalf("Store: %v", err)
	}
	// The repository's copy is sealed: no plaintext key material at rest.
	entry, err := srv.Store().Get(testUser, "longterm")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(entry.SealedKey), "RSA PRIVATE KEY") {
		t.Fatal("repository stored a plaintext key")
	}
	if entry.Kind != credstore.KindStored {
		t.Errorf("kind = %v", entry.Kind)
	}
	// The blob's verifier is the server's own stretch, at the configured
	// cost: a dump must not test guesses more cheaply than the blob itself.
	if entry.VerifierIter != 64 {
		t.Errorf("STORE'd verifier stretched %d times, want the configured 64", entry.VerifierIter)
	}
	back, err := cli.Retrieve(context.Background(), RetrieveOptions{
		Username: testUser, Passphrase: testPass, CredName: "longterm",
	})
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	if !pki.PublicKeysEqual(back.PrivateKey.Public(), alice.PrivateKey.Public()) {
		t.Error("retrieved key mismatch")
	}
	// Wrong pass phrase: server refuses before returning the blob.
	if _, err := cli.Retrieve(context.Background(), RetrieveOptions{
		Username: testUser, Passphrase: "wrong wrong", CredName: "longterm",
	}); err == nil {
		t.Error("retrieve with wrong pass phrase")
	}
	// A delegated credential is not retrievable as a blob.
	mustPut(t, cli, PutOptions{})
	if _, err := cli.Retrieve(context.Background(), RetrieveOptions{
		Username: testUser, Passphrase: testPass,
	}); err == nil || !strings.Contains(err.Error(), "not retrievable") {
		t.Errorf("delegated credential retrieved as blob: %v", err)
	}
}

func TestOTPFlow(t *testing.T) {
	// Experiment E9 (paper §5.1/§6.3): replay of captured authentication
	// data fails when OTP is enabled.
	registry := otp.NewRegistry()
	_, addr := startServer(t, func(cfg *ServerConfig) { cfg.OTP = registry })
	alice := testpki.User(t, "core-alice")
	cli := newClient(t, alice, addr)
	mustPut(t, cli, PutOptions{})

	otpSecret := "otp secret pass phrase"
	if err := registry.Register(testUser, otp.MD5, otpSecret, "seed42", 100); err != nil {
		t.Fatal(err)
	}
	portalCli := newClient(t, testpki.Host(t, "portal.test"), addr)

	// Without an OTP: challenge.
	_, err := portalCli.Get(context.Background(), GetOptions{Username: testUser, Passphrase: testPass})
	var otpErr *ErrOTPRequired
	if !errors.As(err, &otpErr) {
		t.Fatalf("expected OTP challenge, got %v", err)
	}
	// Answer manually.
	resp, err := otp.Respond(otpErr.Challenge, otpSecret)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := portalCli.Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass, OTP: resp,
	}); err != nil {
		t.Fatalf("Get with OTP: %v", err)
	}
	// REPLAY the captured (pass phrase, OTP) pair: must fail.
	if _, err := portalCli.Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass, OTP: resp,
	}); err == nil {
		t.Fatal("replayed OTP accepted — replay protection broken")
	}
	// Automatic answering via OTPSecret.
	if _, err := portalCli.Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass, OTPSecret: otpSecret,
	}); err != nil {
		t.Fatalf("Get with OTPSecret: %v", err)
	}
}

func TestWalletSelection(t *testing.T) {
	// Experiment E10 (paper §6.2): task-based credential selection.
	_, addr := startServer(t, nil)
	alice := testpki.User(t, "core-alice")
	cli := newClient(t, alice, addr)
	mustPut(t, cli, PutOptions{CredName: "compute", TaskTags: []string{"job-submit"}})
	mustPut(t, cli, PutOptions{CredName: "data", TaskTags: []string{"file-read", "file-write"}})

	portalCli := newClient(t, testpki.Host(t, "portal.test"), addr)
	// Task hint selects the tagged credential.
	cred, err := portalCli.Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass, TaskHint: "file-write",
	})
	if err != nil {
		t.Fatalf("Get by task: %v", err)
	}
	if cred == nil {
		t.Fatal("no credential")
	}
	// Unknown task: refused.
	if _, err := portalCli.Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass, TaskHint: "launch-rockets",
	}); err == nil {
		t.Error("unknown task hint satisfied")
	}
	// No name, no hint, two credentials, none default: ambiguous.
	if _, err := portalCli.Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass,
	}); err == nil {
		t.Error("ambiguous selection succeeded")
	}
	// Explicit name works.
	if _, err := portalCli.Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass, CredName: "compute",
	}); err != nil {
		t.Errorf("Get by name: %v", err)
	}
}

func TestExpiredStoredCredentialRefused(t *testing.T) {
	fakeNow := time.Now()
	srv, addr := startServer(t, func(cfg *ServerConfig) {
		cfg.Now = func() time.Time { return fakeNow }
	})
	_ = srv
	alice := testpki.User(t, "core-alice")
	mustPut(t, newClient(t, alice, addr), PutOptions{Lifetime: time.Hour})
	// Advance the server's clock past expiry.
	fakeNow = fakeNow.Add(2 * time.Hour)
	_, err := newClient(t, testpki.Host(t, "portal.test"), addr).Get(context.Background(), GetOptions{
		Username: testUser, Passphrase: testPass,
	})
	if err == nil || !strings.Contains(err.Error(), "expired") {
		t.Fatalf("expired credential: %v", err)
	}
}

func TestPutOverwriteByNonOwnerRejected(t *testing.T) {
	_, addr := startServer(t, nil)
	alice := testpki.User(t, "core-alice")
	bob := testpki.User(t, "core-bob")
	mustPut(t, newClient(t, alice, addr), PutOptions{})
	err := newClient(t, bob, addr).Put(context.Background(), PutOptions{
		Username: testUser, Passphrase: "another pass phrase",
	})
	if err == nil || !strings.Contains(err.Error(), "owned by another identity") {
		t.Fatalf("overwrite by non-owner: %v", err)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Error("config without credential accepted")
	}
	if _, err := NewServer(ServerConfig{Credential: testpki.Host(t, "myproxy.test")}); err == nil {
		t.Error("config without roots accepted")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := startServer(t, nil)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

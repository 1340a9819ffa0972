package mss

import (
	"bytes"
	"crypto/x509"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/gsi"
	"repro/internal/pki"
	"repro/internal/proxy"
	"repro/internal/testpki"
)

func testRoots(t *testing.T) *x509.CertPool {
	t.Helper()
	pool := x509.NewCertPool()
	pool.AddCert(testpki.CA(t).Certificate())
	return pool
}

func startMSS(t *testing.T, gridmap *gsi.Gridmap) (*Server, string) {
	t.Helper()
	srv, err := NewServer(Config{
		Credential: testpki.Host(t, "mss.test"),
		Roots:      testRoots(t),
		Gridmap:    gridmap,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func defaultGridmap(t *testing.T) *gsi.Gridmap {
	t.Helper()
	g := gsi.NewGridmap()
	g.Add(testpki.User(t, "mss-alice").Subject(), "alice")
	return g
}

func newMSSClient(t *testing.T, cred *pki.Credential, addr string) *Client {
	t.Helper()
	c := &Client{
		Credential:     cred,
		Roots:          testRoots(t),
		Addr:           addr,
		ExpectedServer: "*/CN=mss.test",
		Timeout:        10 * time.Second,
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPutGetListDelete(t *testing.T) {
	_, addr := startMSS(t, defaultGridmap(t))
	alice := testpki.User(t, "mss-alice")
	c := newMSSClient(t, alice, addr)

	if err := c.Put("results.dat", []byte("simulation output")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := c.Put("notes.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, err := c.Get("results.dat")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(data, []byte("simulation output")) {
		t.Errorf("Get = %q", data)
	}
	names, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "notes.txt" {
		t.Errorf("List = %v", names)
	}
	if err := c.Delete("notes.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("notes.txt"); err == nil {
		t.Error("deleted object retrievable")
	}
	if err := c.Delete("notes.txt"); err == nil {
		t.Error("double delete succeeded")
	}
}

func TestUnmappedIdentityRefused(t *testing.T) {
	_, addr := startMSS(t, defaultGridmap(t))
	bob := testpki.User(t, "mss-bob") // not in gridmap
	c := newMSSClient(t, bob, addr)
	if err := c.Put("x", []byte("y")); err == nil || !strings.Contains(err.Error(), "gridmap") {
		t.Fatalf("unmapped identity: %v", err)
	}
}

func TestProxyAuthenticatesAsUser(t *testing.T) {
	srv, addr := startMSS(t, defaultGridmap(t))
	alice := testpki.User(t, "mss-alice")
	p, err := proxy.New(alice, proxy.Options{Type: proxy.RFC3820, Lifetime: time.Hour, KeyBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	c := newMSSClient(t, p, addr)
	if err := c.Put("via-proxy", []byte("data")); err != nil {
		t.Fatalf("Put via proxy: %v", err)
	}
	if got := srv.Objects("alice"); len(got) != 1 || got[0] != "via-proxy" {
		t.Errorf("Objects = %v", got)
	}
}

func TestRestrictedProxyOps(t *testing.T) {
	// Experiment E12: restricted delegation (paper §6.5).
	_, addr := startMSS(t, defaultGridmap(t))
	alice := testpki.User(t, "mss-alice")

	readOnly, err := proxy.New(alice, proxy.Options{
		Type: proxy.RFC3820Restricted, Lifetime: time.Hour, KeyBits: 1024,
		RestrictedOps: []string{proxy.OpFileRead},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seed an object with a full proxy first.
	full := newMSSClient(t, alice, addr)
	if err := full.Put("seeded", []byte("content")); err != nil {
		t.Fatal(err)
	}

	ro := newMSSClient(t, readOnly, addr)
	if _, err := ro.Get("seeded"); err != nil {
		t.Errorf("read with read-only proxy failed: %v", err)
	}
	if err := ro.Put("new", []byte("nope")); err == nil || !strings.Contains(err.Error(), "forbids file-write") {
		t.Errorf("write with read-only proxy: %v", err)
	}
	if err := ro.Delete("seeded"); err == nil {
		t.Error("delete with read-only proxy succeeded")
	}
}

func TestLimitedProxyCanStillWriteData(t *testing.T) {
	// Limited proxies are barred from starting jobs, not from data access
	// (Globus semantics).
	_, addr := startMSS(t, defaultGridmap(t))
	alice := testpki.User(t, "mss-alice")
	lim, err := proxy.New(alice, proxy.Options{Type: proxy.RFC3820Limited, Lifetime: time.Hour, KeyBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	c := newMSSClient(t, lim, addr)
	if err := c.Put("from-limited", []byte("ok")); err != nil {
		t.Errorf("limited proxy write refused: %v", err)
	}
}

func TestObjectSizeLimit(t *testing.T) {
	srv, err := NewServer(Config{
		Credential:     testpki.Host(t, "mss.test"),
		Roots:          testRoots(t),
		Gridmap:        defaultGridmap(t),
		MaxObjectBytes: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	c := newMSSClient(t, testpki.User(t, "mss-alice"), ln.Addr().String())
	if err := c.Put("big", bytes.Repeat([]byte{1}, 11)); err == nil {
		t.Error("oversized object accepted")
	}
	if err := c.Put("ok", bytes.Repeat([]byte{1}, 10)); err != nil {
		t.Errorf("at-limit object refused: %v", err)
	}
}

func TestAccountIsolation(t *testing.T) {
	g := defaultGridmap(t)
	g.Add(testpki.User(t, "mss-bob").Subject(), "bob")
	_, addr := startMSS(t, g)
	alice := newMSSClient(t, testpki.User(t, "mss-alice"), addr)
	bob := newMSSClient(t, testpki.User(t, "mss-bob"), addr)
	if err := alice.Put("secret", []byte("alice's data")); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Get("secret"); err == nil {
		t.Fatal("cross-account read succeeded")
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

// TestReusedConnectionOutlivesFirstDeadline is the twin of gram's: a deadline
// is absolute, so the one armed when the session was dialed must be re-armed
// for every later call on it.
func TestReusedConnectionOutlivesFirstDeadline(t *testing.T) {
	_, addr := startMSS(t, defaultGridmap(t))
	c := newMSSClient(t, testpki.User(t, "mss-alice"), addr)
	c.Timeout = 250 * time.Millisecond
	if _, err := c.List(); err != nil {
		t.Fatalf("first call: %v", err)
	}
	time.Sleep(300 * time.Millisecond)
	if _, err := c.List(); err != nil {
		t.Fatalf("call on reused connection after the dial-time deadline passed: %v", err)
	}
}

package gram

import (
	"bytes"
	"crypto/x509"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/gsi"
	"repro/internal/mss"
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

func defaultGridmap(t *testing.T) *gsi.Gridmap {
	t.Helper()
	g := gsi.NewGridmap()
	g.Add(testpki.User(t, "gram-alice").Subject(), "alice")
	return g
}

func startGRAM(t *testing.T, mutate func(*Config)) (*Server, string) {
	t.Helper()
	cfg := Config{
		Credential: testpki.Host(t, "gram.test"),
		Roots:      testRoots(t),
		Gridmap:    defaultGridmap(t),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
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

func newGRAMClient(t *testing.T, cred *pki.Credential, addr string) *Client {
	t.Helper()
	c := &Client{
		Credential:     cred,
		Roots:          testRoots(t),
		Addr:           addr,
		ExpectedServer: "*/CN=gram.test",
		Timeout:        10 * time.Second,
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func userProxy(t *testing.T, opts proxy.Options) *pki.Credential {
	t.Helper()
	if opts.Lifetime == 0 {
		opts.Lifetime = time.Hour
	}
	opts.KeyBits = 1024
	p, err := proxy.New(testpki.User(t, "gram-alice"), opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSubmitEcho(t *testing.T) {
	_, addr := startGRAM(t, nil)
	c := newGRAMClient(t, userProxy(t, proxy.Options{Type: proxy.RFC3820}), addr)
	st, err := c.Submit("echo", []string{"hello", "grid"}, false)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.LocalUser != "alice" {
		t.Errorf("LocalUser = %q", st.LocalUser)
	}
	final, err := c.Wait(st.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Output != "hello grid" {
		t.Errorf("final = %+v", final)
	}
}

func TestSubmitComputeAndList(t *testing.T) {
	_, addr := startGRAM(t, nil)
	c := newGRAMClient(t, userProxy(t, proxy.Options{Type: proxy.RFC3820}), addr)
	st1, err := c.Submit("compute", []string{"10000"}, false)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Submit("echo", []string{"x"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(st1.ID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(st2.ID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	jobs, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Errorf("List = %d jobs", len(jobs))
	}
}

func TestSubmitUnknownExecutable(t *testing.T) {
	_, addr := startGRAM(t, nil)
	c := newGRAMClient(t, userProxy(t, proxy.Options{Type: proxy.RFC3820}), addr)
	if _, err := c.Submit("rm-rf", nil, false); err == nil || !strings.Contains(err.Error(), "unknown executable") {
		t.Fatalf("unknown executable: %v", err)
	}
}

func TestLimitedProxyRefused(t *testing.T) {
	// The gatekeeper behavior the paper's limited proxies exist for.
	_, addr := startGRAM(t, nil)
	lim := userProxy(t, proxy.Options{Type: proxy.RFC3820Limited})
	c := newGRAMClient(t, lim, addr)
	if _, err := c.Submit("echo", []string{"x"}, false); err == nil || !strings.Contains(err.Error(), "forbids job submission") {
		t.Fatalf("limited proxy submit: %v", err)
	}
	legacyLim := userProxy(t, proxy.Options{Type: proxy.LegacyLimited})
	c2 := newGRAMClient(t, legacyLim, addr)
	if _, err := c2.Submit("echo", []string{"x"}, false); err == nil {
		t.Fatal("legacy limited proxy submitted a job")
	}
	// A read-only restricted proxy is not limited, yet its policy still
	// leaves out job submission (paper §6.5).
	readOnly := userProxy(t, proxy.Options{Type: proxy.RFC3820Restricted, RestrictedOps: []string{proxy.OpFileRead}})
	c3 := newGRAMClient(t, readOnly, addr)
	if _, err := c3.Submit("echo", []string{"x"}, false); err == nil || !strings.Contains(err.Error(), "forbids job submission") {
		t.Fatalf("read-only restricted proxy submit: %v", err)
	}
}

func TestUnmappedIdentityRefused(t *testing.T) {
	_, addr := startGRAM(t, nil)
	bob := testpki.User(t, "gram-bob")
	c := newGRAMClient(t, bob, addr)
	if _, err := c.Submit("echo", nil, false); err == nil || !strings.Contains(err.Error(), "gridmap") {
		t.Fatalf("unmapped identity: %v", err)
	}
}

func TestCancelSleepingJob(t *testing.T) {
	_, addr := startGRAM(t, nil)
	c := newGRAMClient(t, userProxy(t, proxy.Options{Type: proxy.RFC3820}), addr)
	st, err := c.Submit("sleep", []string{"30s"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(st.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || !strings.Contains(final.Error, "cancelled") {
		t.Errorf("cancelled job = %+v", final)
	}
}

func TestJobIsolationBetweenOwners(t *testing.T) {
	_, addr := startGRAM(t, func(cfg *Config) {
		cfg.Gridmap.Add(testpki.User(t, "gram-bob").Subject(), "bob")
	})
	alice := newGRAMClient(t, userProxy(t, proxy.Options{Type: proxy.RFC3820}), addr)
	st, err := alice.Submit("echo", []string{"private"}, false)
	if err != nil {
		t.Fatal(err)
	}
	bob := newGRAMClient(t, testpki.User(t, "gram-bob"), addr)
	if _, err := bob.Status(st.ID); err == nil {
		t.Error("cross-owner status read")
	}
	if _, err := bob.Cancel(st.ID); err == nil {
		t.Error("cross-owner cancel")
	}
	jobs, err := bob.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Errorf("bob sees %d of alice's jobs", len(jobs))
	}
}

func TestDelegatedJobStoresToMSS(t *testing.T) {
	// Experiment E7 / paper §2.4: user -> GRAM job -> mass storage, with
	// the job authenticating to MSS via its delegated proxy.
	gridmap := defaultGridmap(t)
	mssSrv, err := mss.NewServer(mss.Config{
		Credential: testpki.Host(t, "mss.test"),
		Roots:      testRoots(t),
		Gridmap:    gridmap,
	})
	if err != nil {
		t.Fatal(err)
	}
	mssLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go mssSrv.Serve(mssLn)
	t.Cleanup(func() { mssSrv.Close() })

	_, gramAddr := startGRAM(t, func(cfg *Config) { cfg.Gridmap = gridmap })
	p := userProxy(t, proxy.Options{Type: proxy.RFC3820})
	c := newGRAMClient(t, p, gramAddr)

	st, err := c.Submit("store-result", []string{mssLn.Addr().String(), "job-output.dat", "result bytes"}, true)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final, err := c.Wait(st.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job failed: %+v", final)
	}
	if !final.Delegated {
		t.Error("job not marked delegated")
	}
	// The object landed in alice's MSS account, written by the chained
	// delegation (user -> GRAM submission proxy -> job proxy).
	mssCli := &mss.Client{
		Credential: testpki.User(t, "gram-alice"),
		Roots:      testRoots(t),
		Addr:       mssLn.Addr().String(),
	}
	t.Cleanup(func() { mssCli.Close() })
	data, err := mssCli.Get("job-output.dat")
	if err != nil {
		t.Fatalf("fetch stored result: %v", err)
	}
	if !bytes.Equal(data, []byte("result bytes")) {
		t.Errorf("stored = %q", data)
	}
}

func TestDelegationRequiredForStoreResult(t *testing.T) {
	_, addr := startGRAM(t, nil)
	c := newGRAMClient(t, userProxy(t, proxy.Options{Type: proxy.RFC3820}), addr)
	st, err := c.Submit("store-result", []string{"127.0.0.1:1", "x", "y"}, false)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(st.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || !strings.Contains(final.Error, "delegated credential") {
		t.Errorf("final = %+v", final)
	}
}

func TestWaitIdle(t *testing.T) {
	srv, addr := startGRAM(t, nil)
	c := newGRAMClient(t, userProxy(t, proxy.Options{Type: proxy.RFC3820}), addr)
	if _, err := c.Submit("compute", []string{"5000"}, false); err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestReusedConnectionOutlivesFirstDeadline is the regression test for the
// stale-deadline bug: connection() armed an absolute deadline at dial time,
// so on a long-lived client any call after Timeout elapsed ran against an
// already-expired bound and failed spuriously. call() must re-arm the
// deadline per exchange.
func TestReusedConnectionOutlivesFirstDeadline(t *testing.T) {
	_, addr := startGRAM(t, nil)
	c := newGRAMClient(t, userProxy(t, proxy.Options{Type: proxy.RFC3820}), addr)
	c.Timeout = 750 * time.Millisecond
	if _, err := c.List(); err != nil {
		t.Fatalf("first call: %v", err)
	}
	// Outlive the deadline armed when the session was established.
	time.Sleep(time.Second)
	if _, err := c.List(); err != nil {
		t.Fatalf("call on reused connection after the dial-time deadline passed: %v", err)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

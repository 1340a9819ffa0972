package portal

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/cookiejar"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gram"
	"repro/internal/gsi"
	"repro/internal/mss"
	"repro/internal/policy"
	"repro/internal/testpki"
)

func testRoots(t *testing.T) *x509.CertPool {
	t.Helper()
	pool := x509.NewCertPool()
	pool.AddCert(testpki.CA(t).Certificate())
	return pool
}

// grid is the full paper Figure 3 deployment: repository, job manager,
// mass storage, and portal, all on loopback.
type grid struct {
	repo      *core.Server
	repoAddr  string
	portalURL string
	browser   *http.Client
}

func startGrid(t *testing.T) *grid {
	t.Helper()
	roots := testRoots(t)
	gridmap := gsi.NewGridmap()
	gridmap.Add(testpki.User(t, "portal-alice").Subject(), "alice")

	// Repository.
	repo, err := core.NewServer(core.ServerConfig{
		Credential:           testpki.Host(t, "myproxy.test"),
		Roots:                roots,
		AcceptedCredentials:  policy.NewACL("/C=US/O=Test Grid/*"),
		AuthorizedRetrievers: policy.NewACL("*/CN=portal.test"),
		KDFIterations:        64,
		DelegationKeyBits:    1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	repoLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go repo.Serve(repoLn)
	t.Cleanup(func() { repo.Close() })

	// GRAM.
	gramSrv, err := gram.NewServer(gram.Config{
		Credential: testpki.Host(t, "gram.test"),
		Roots:      roots,
		Gridmap:    gridmap,
	})
	if err != nil {
		t.Fatal(err)
	}
	gramLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go gramSrv.Serve(gramLn)
	t.Cleanup(func() { gramSrv.Close() })

	// MSS.
	mssSrv, err := mss.NewServer(mss.Config{
		Credential: testpki.Host(t, "mss.test"),
		Roots:      roots,
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

	// Portal over HTTPS.
	p, err := New(Config{
		Credential:      testpki.Host(t, "portal.test"),
		Roots:           roots,
		MyProxyAddr:     repoLn.Addr().String(),
		ExpectedMyProxy: "*/CN=myproxy.test",
		GRAMAddr:        gramLn.Addr().String(),
		MSSAddr:         mssLn.Addr().String(),
		KeyBits:         1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	portalLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve(portalLn)
	t.Cleanup(func() { portalLn.Close() })

	// The "standard web browser" of paper §3.1: plain HTTPS with the CA
	// trusted, a cookie jar, and no Grid software at all.
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	browser := &http.Client{
		Jar: jar,
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{RootCAs: roots, ServerName: "portal.test"},
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, network, portalLn.Addr().String())
			},
		},
	}
	return &grid{
		repo:      repo,
		repoAddr:  repoLn.Addr().String(),
		portalURL: "https://portal.test",
		browser:   browser,
	}
}

func depositAlice(t *testing.T, g *grid, repoAddr string) {
	t.Helper()
	cli := &core.Client{
		Credential:     testpki.User(t, "portal-alice"),
		Roots:          testRoots(t),
		Addr:           repoAddr,
		ExpectedServer: "*/CN=myproxy.test",
		KeyBits:        1024,
	}
	if err := cli.Put(context.Background(), core.PutOptions{
		Username: "alice", Passphrase: "alice portal pass", Lifetime: 24 * time.Hour,
	}); err != nil {
		t.Fatalf("myproxy-init: %v", err)
	}
}

func (g *grid) postForm(t *testing.T, path string, form url.Values) (*http.Response, map[string]interface{}) {
	t.Helper()
	resp, err := g.browser.PostForm(g.portalURL+path, form)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var body map[string]interface{}
	data, _ := io.ReadAll(resp.Body)
	if len(data) > 0 && strings.Contains(resp.Header.Get("Content-Type"), "json") {
		if err := json.Unmarshal(data, &body); err != nil {
			t.Fatalf("POST %s: bad JSON %q", path, data)
		}
	}
	return resp, body
}

func (g *grid) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := g.browser.Get(g.portalURL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

func login(t *testing.T, g *grid) map[string]interface{} {
	t.Helper()
	resp, body := g.postForm(t, "/api/login", url.Values{
		"username":   {"alice"},
		"passphrase": {"alice portal pass"},
		"lifetime":   {"1h"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("login status %d: %v", resp.StatusCode, body)
	}
	return body
}

// repoAddr digs the repository address back out of the portal config via
// the deployment; simpler to pass around explicitly.
func TestPortalFullFlow(t *testing.T) {
	// Experiment E3: paper Figure 3 end to end, from a plain web browser.
	g := startGrid(t)
	repoAddr := repoAddrOf(t, g)
	depositAlice(t, g, repoAddr)

	// Step 1-3: login retrieves a delegation bound to the session.
	body := login(t, g)
	wantIdentity := testpki.User(t, "portal-alice").Subject()
	if body["identity"] != wantIdentity {
		t.Errorf("identity = %v, want %s", body["identity"], wantIdentity)
	}

	// The browser now drives the Grid through the portal: whoami.
	resp, data := g.get(t, "/api/whoami")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("whoami status %d: %s", resp.StatusCode, data)
	}

	// Submit a job as the user.
	resp, jobBody := g.postForm(t, "/api/submit", url.Values{
		"executable": {"echo"},
		"args":       {"hello from the portal"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d: %v", resp.StatusCode, jobBody)
	}
	jobID, _ := jobBody["id"].(string)
	if jobID == "" {
		t.Fatalf("no job id in %v", jobBody)
	}
	// Poll for completion through the portal.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, data := g.get(t, "/api/jobs?id="+jobID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("jobs status %d: %s", resp.StatusCode, data)
		}
		var st gram.JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == gram.StateDone {
			if st.Output != "hello from the portal" {
				t.Errorf("output = %q", st.Output)
			}
			if st.LocalUser != "alice" {
				t.Errorf("job ran as %q", st.LocalUser)
			}
			break
		}
		if st.State == gram.StateFailed {
			t.Fatalf("job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Store a file as the user.
	resp, storeBody := g.postForm(t, "/api/store", url.Values{
		"name": {"portal-upload.txt"},
		"data": {"stored via portal"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("store status %d: %v", resp.StatusCode, storeBody)
	}
	resp, fileData := g.get(t, "/api/file?name=portal-upload.txt")
	if resp.StatusCode != http.StatusOK || string(fileData) != "stored via portal" {
		t.Errorf("file get = %d %q", resp.StatusCode, fileData)
	}

	// Logout destroys the session and its credential (paper §4.3).
	portalURL, err := url.Parse(g.portalURL)
	if err != nil {
		t.Fatal(err)
	}
	sessionCookies := g.browser.Jar.Cookies(portalURL)
	resp, _ = g.postForm(t, "/api/logout", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("logout status %d", resp.StatusCode)
	}
	resp, _ = g.get(t, "/api/whoami")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("whoami after logout = %d", resp.StatusCode)
	}
	// The portal forgot the session, not only the browser: replaying the
	// old cookie is refused too.
	g.browser.Jar.SetCookies(portalURL, sessionCookies)
	resp, _ = g.get(t, "/api/whoami")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("whoami with the logged-out session's cookie = %d", resp.StatusCode)
	}
}

func TestPortalLoginFailures(t *testing.T) {
	g := startGrid(t)
	repoAddr := repoAddrOf(t, g)
	depositAlice(t, g, repoAddr)

	// Wrong pass phrase.
	resp, body := g.postForm(t, "/api/login", url.Values{
		"username": {"alice"}, "passphrase": {"wrong"},
	})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("wrong pass login = %d %v", resp.StatusCode, body)
	}
	// Missing fields.
	resp, _ = g.postForm(t, "/api/login", url.Values{"username": {"alice"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing pass login = %d", resp.StatusCode)
	}
	// Bad lifetime.
	resp, _ = g.postForm(t, "/api/login", url.Values{
		"username": {"alice"}, "passphrase": {"alice portal pass"}, "lifetime": {"soon"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad lifetime login = %d", resp.StatusCode)
	}
}

func TestPortalRequiresSession(t *testing.T) {
	g := startGrid(t)
	for _, path := range []string{"/api/whoami", "/api/jobs", "/api/files"} {
		resp, _ := g.get(t, path)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("GET %s without session = %d", path, resp.StatusCode)
		}
	}
	resp, _ := g.postForm(t, "/api/submit", url.Values{"executable": {"echo"}})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("submit without session = %d", resp.StatusCode)
	}
}

func TestPortalServesLoginPage(t *testing.T) {
	g := startGrid(t)
	resp, data := g.get(t, "/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "Grid Portal") {
		t.Errorf("index = %d %q", resp.StatusCode, data[:min(64, len(data))])
	}
}

func TestSessionExpiry(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	sessions := NewSessions(time.Hour, clock)
	sess, err := sessions.Create("alice", "/CN=alice", testpki.User(t, "portal-alice"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sessions.Lookup(sess.Token); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Hour)
	if _, err := sessions.Lookup(sess.Token); err == nil {
		t.Error("expired session still valid")
	}
	if sessions.Len() != 0 {
		t.Error("expired session not dropped")
	}
}

func TestSessionBoundByCredentialExpiry(t *testing.T) {
	// The session may not outlive the delegated credential (paper §4.3).
	sessions := NewSessions(100*time.Hour, nil)
	cred := testpki.User(t, "portal-alice")
	sess, err := sessions.Create("alice", "/CN=alice", cred)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Expires.After(cred.Certificate.NotAfter) {
		t.Error("session outlives credential")
	}
}

func TestSessionSweep(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	sessions := NewSessions(time.Hour, clock)
	for i := 0; i < 3; i++ {
		if _, err := sessions.Create(fmt.Sprintf("u%d", i), "/CN=x", testpki.User(t, "portal-alice")); err != nil {
			t.Fatal(err)
		}
	}
	now = now.Add(2 * time.Hour)
	if dropped := sessions.Sweep(); dropped != 3 {
		t.Errorf("Sweep dropped %d", dropped)
	}
}

func TestSessionDestroyUnknownTokenSafe(t *testing.T) {
	sessions := NewSessions(time.Hour, nil)
	sessions.Destroy("nonexistent") // must not panic
}

// repoAddrOf extracts the repository address the grid was built with.
func repoAddrOf(t *testing.T, g *grid) string {
	t.Helper()
	return g.repoAddr
}

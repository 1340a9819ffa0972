package portal

import (
	"encoding/json"
	"mime"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/testpki"
)

func TestPortalDelegatedJobViaHTTP(t *testing.T) {
	// The §2.4 chain driven entirely from the browser: submit with
	// delegate=1 so the job gets its own proxy and can hit mass storage.
	g := startGrid(t)
	depositAlice(t, g, g.repoAddr)
	login(t, g)

	resp, body := g.postForm(t, "/api/submit", url.Values{
		"executable": {"compute"},
		"args":       {"1000"},
		"delegate":   {"1"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d: %v", resp.StatusCode, body)
	}
	if body["delegated"] != true {
		t.Errorf("job not delegated: %v", body)
	}
}

func TestPortalFilesLifecycle(t *testing.T) {
	g := startGrid(t)
	depositAlice(t, g, g.repoAddr)
	login(t, g)

	// Empty listing first.
	resp, data := g.get(t, "/api/files")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(data)) != "[]" {
		t.Fatalf("files = %d %q", resp.StatusCode, data)
	}
	// Store two files, list, fetch.
	for _, name := range []string{"a.txt", "b.txt"} {
		resp, body := g.postForm(t, "/api/store", url.Values{"name": {name}, "data": {"data-" + name}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("store %s: %d %v", name, resp.StatusCode, body)
		}
	}
	resp, data = g.get(t, "/api/files")
	var names []string
	if err := json.Unmarshal(data, &names); err != nil || len(names) != 2 {
		t.Fatalf("files = %q (%v)", data, err)
	}
	// Missing name on store / file get.
	resp, _ = g.postForm(t, "/api/store", url.Values{"data": {"x"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("store without name = %d", resp.StatusCode)
	}
	resp, _ = g.get(t, "/api/file")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("file get without name = %d", resp.StatusCode)
	}
	resp, _ = g.get(t, "/api/file?name=missing.bin")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("file get missing = %d", resp.StatusCode)
	}
}

// TestFileDownloadNamesRoundTrip: a stored object's name is whatever its
// owner chose; the download's Content-Disposition must stay one header with
// one parameter that a browser decodes back to exactly that name.
func TestFileDownloadNamesRoundTrip(t *testing.T) {
	g := startGrid(t)
	depositAlice(t, g, g.repoAddr)
	login(t, g)
	for _, name := range []string{
		"plain.txt",
		`quo"ted.txt`,
		"semi;colon=x.txt",
		"line\r\nSet-Cookie: portal_session=stolen.txt",
		"résumé \u200b.txt",
	} {
		resp, body := g.postForm(t, "/api/store", url.Values{"name": {name}, "data": {"x"}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("store %q: %d %v", name, resp.StatusCode, body)
		}
		resp, _ = g.get(t, "/api/file?name="+url.QueryEscape(name))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get %q: %d", name, resp.StatusCode)
		}
		if resp.Header.Get("Set-Cookie") != "" {
			t.Errorf("%q: the name set a cookie", name)
		}
		disposition, params, err := mime.ParseMediaType(resp.Header.Get("Content-Disposition"))
		if err != nil || disposition != "attachment" || len(params) != 1 || params["filename"] != name {
			t.Errorf("%q: Content-Disposition %q parses to %q %q (%v)",
				name, resp.Header.Get("Content-Disposition"), disposition, params, err)
		}
	}
}

func TestPortalSubmitValidation(t *testing.T) {
	g := startGrid(t)
	depositAlice(t, g, g.repoAddr)
	login(t, g)
	resp, _ := g.postForm(t, "/api/submit", url.Values{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("submit without executable = %d", resp.StatusCode)
	}
	resp, body := g.postForm(t, "/api/submit", url.Values{"executable": {"no-such-tool"}})
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("unknown executable = %d %v", resp.StatusCode, body)
	}
}

func TestPortalJobsUnknownID(t *testing.T) {
	g := startGrid(t)
	depositAlice(t, g, g.repoAddr)
	login(t, g)
	resp, _ := g.get(t, "/api/jobs?id=job-999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d", resp.StatusCode)
	}
}

func TestPortalIndexOnlyRoot(t *testing.T) {
	g := startGrid(t)
	resp, _ := g.get(t, "/somewhere-else")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("non-root path = %d", resp.StatusCode)
	}
}

func TestPortalUnconfiguredServices(t *testing.T) {
	// A portal without GRAM/MSS configured reports 501 rather than
	// panicking or dialing nowhere.
	g := startGrid(t)
	depositAlice(t, g, g.repoAddr)

	p, err := New(Config{
		Credential:      testpki.Host(t, "portal.test"),
		Roots:           testRoots(t),
		MyProxyAddr:     g.repoAddr,
		ExpectedMyProxy: "*/CN=myproxy.test",
		KeyBits:         1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the handler directly with a synthetic session.
	sess, err := p.Sessions().Create("alice", "/CN=alice", testpki.User(t, "portal-alice"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method, path string
	}{
		{"POST", "/api/submit"},
		{"GET", "/api/jobs"},
		{"POST", "/api/store"},
		{"GET", "/api/files"},
		{"GET", "/api/file?name=x"},
	} {
		req := newRequest(t, tc.method, tc.path)
		req.AddCookie(&http.Cookie{Name: sessionCookie, Value: sess.Token})
		rec := newRecorder()
		p.Handler().ServeHTTP(rec, req)
		if rec.status != http.StatusNotImplemented {
			t.Errorf("%s %s = %d, want 501", tc.method, tc.path, rec.status)
		}
	}
}

func TestPortalLoginPicksServerDefaultLifetime(t *testing.T) {
	g := startGrid(t)
	depositAlice(t, g, g.repoAddr)
	resp, body := g.postForm(t, "/api/login", url.Values{
		"username": {"alice"}, "passphrase": {"alice portal pass"},
		// no lifetime field: the portal default applies
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("login = %d %v", resp.StatusCode, body)
	}
	expires, err := time.Parse(time.RFC3339, body["expires"].(string))
	if err != nil {
		t.Fatal(err)
	}
	if time.Until(expires) > 3*time.Hour {
		t.Errorf("default-session expiry too far out: %v", expires)
	}
}

// Minimal request/recorder helpers (httptest is fine too, but this keeps
// the dependency surface identical to production code paths).
func newRequest(t *testing.T, method, target string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, "https://portal.test"+target, nil)
	if err != nil {
		t.Fatal(err)
	}
	if method == "POST" {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	return req
}

type recorder struct {
	status int
	header http.Header
	body   []byte
}

func newRecorder() *recorder { return &recorder{status: 200, header: http.Header{}} }

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(code int) {
	r.status = code
}
func (r *recorder) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}

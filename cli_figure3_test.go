package repro

import (
	"crypto/tls"
	"encoding/json"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/gram"
)

// TestCLIFigure3 stands up the paper's motivating scenario (Fig. 3, §4.3)
// from the shipped binaries: grid-ca mints the hosts, myproxy-server,
// gram-server, mss-server and portal-server run as daemons, and alice
// deposits a credential with myproxy-init. A browser — a plain HTTPS client
// with a cookie jar (§3.1) — then logs in to the portal with only her user
// name and pass phrase, submits a job that writes to mass storage through a
// chained delegation (§2.4), reads the result back, and logs out.
func TestCLIFigure3(t *testing.T) {
	c := newTools(t)

	c.run(t, "", "grid-ca", "init", "-dir", "ca", "-name", "/C=US/O=Fig3 Grid/CN=Fig3 CA", "-bits", "1024")
	c.run(t, "", "grid-ca", "user", "-dir", "ca", "-cn", "Alice Fig3", "-out", "alice.pem", "-bits", "1024")
	for _, host := range []string{"myproxy", "portal", "gram", "mss"} {
		c.run(t, "", "grid-ca", "host", "-dir", "ca", "-hostname", host+".fig3", "-out", host+".pem", "-bits", "1024")
	}
	mustWrite(t, filepath.Join(c.work, "accepted"), "/C=US/O=Fig3 Grid/*\n")
	mustWrite(t, filepath.Join(c.work, "retrievers"), "*/CN=portal.fig3\n") // only the portal retrieves (§5.1)
	mustWrite(t, filepath.Join(c.work, "grid-mapfile"), "\"/C=US/O=Fig3 Grid/CN=Alice Fig3\" alice\n")

	caFile := filepath.Join("ca", "ca-cert.pem")
	repo, gramAddr, mssAddr, portalAddr := freeAddr(t), freeAddr(t), freeAddr(t), freeAddr(t)
	c.serve(t, "myproxy-server", repo, "-cred", "myproxy.pem", "-ca", caFile, "-store", "store",
		"-accepted", "accepted", "-retrievers", "retrievers", "-kdf-iter", "1024", "-keypool", "0")
	c.serve(t, "gram-server", gramAddr, "-cred", "gram.pem", "-ca", caFile, "-gridmap", "grid-mapfile")
	c.serve(t, "mss-server", mssAddr, "-cred", "mss.pem", "-ca", caFile, "-gridmap", "grid-mapfile")
	c.serve(t, "portal-server", portalAddr, "-cred", "portal.pem", "-ca", caFile,
		"-myproxy", repo, "-myproxydn", "*/CN=myproxy.fig3", "-gram", gramAddr, "-mss", mssAddr, "-keypool", "0")

	// myproxy-init, once, from alice's workstation (Fig. 1).
	common := []string{"-l", "alice", "-s", repo, "-ca", caFile, "-serverdn", "*/CN=myproxy.fig3"}
	c.run(t, "fig3 pass phrase\nfig3 pass phrase\n", "myproxy-init", append([]string{"-cred", "alice.pem", "-c", "24"}, common...)...)

	// Later, from any browser (Fig. 3).
	roots, err := cliutil.LoadRoots(filepath.Join(c.work, caFile))
	if err != nil {
		t.Fatal(err)
	}
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	browser := &http.Client{
		Jar:       jar,
		Timeout:   30 * time.Second,
		Transport: &http.Transport{TLSClientConfig: &tls.Config{RootCAs: roots, ServerName: "portal.fig3"}},
	}
	site := "https://" + portalAddr
	call := func(method, path string, form url.Values, want int) []byte {
		t.Helper()
		var resp *http.Response
		var err error
		if method == http.MethodPost {
			resp, err = browser.PostForm(site+path, form)
		} else {
			resp, err = browser.Get(site + path)
		}
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("%s %s: HTTP %d, want %d: %s", method, path, resp.StatusCode, want, body)
		}
		return body
	}

	// Steps 1–3: the portal retrieves a delegation with alice's user name
	// and pass phrase and binds it to her session.
	body := call(http.MethodPost, "/api/login", url.Values{
		"username": {"alice"}, "passphrase": {"fig3 pass phrase"}, "lifetime": {"2h"},
	}, http.StatusOK)
	if !strings.Contains(string(body), "/C=US/O=Fig3 Grid/CN=Alice Fig3") {
		t.Fatalf("login: %s", body)
	}

	// A job that stores its result to mass storage with a proxy the portal
	// delegates onward to it.
	var job gram.JobStatus
	body = call(http.MethodPost, "/api/submit", url.Values{
		"executable": {"store-result"},
		"args":       {mssAddr + " simulation.out final-answer=42"},
		"delegate":   {"1"},
	}, http.StatusOK)
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatalf("submit: %v: %s", err, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for job.State == gram.StatePending || job.State == gram.StateActive {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", job.ID, job.State)
		}
		time.Sleep(20 * time.Millisecond)
		if err := json.Unmarshal(call(http.MethodGet, "/api/jobs?id="+url.QueryEscape(job.ID), nil, http.StatusOK), &job); err != nil {
			t.Fatal(err)
		}
	}
	if job.State != gram.StateDone || !job.Delegated || job.LocalUser != "alice" {
		t.Fatalf("job: %+v", job)
	}
	if got := string(call(http.MethodGet, "/api/file?name=simulation.out", nil, http.StatusOK)); got != "final-answer=42" {
		t.Fatalf("stored result = %q", got)
	}

	// Logout forgets the session and the portal's copy of the delegation:
	// the portal can no longer act for alice.
	call(http.MethodPost, "/api/logout", nil, http.StatusOK)
	call(http.MethodGet, "/api/whoami", nil, http.StatusUnauthorized)
	call(http.MethodPost, "/api/submit", url.Values{"executable": {"echo"}}, http.StatusUnauthorized)
	// The repository's credential outlives the portal session (§4.3): the
	// portal delegates again at alice's next login.
	c.run(t, "fig3 pass phrase\n", "myproxy-get-delegation", append([]string{"-cred", "portal.pem", "-o", "again.pem", "-t", "1"}, common...)...)
}

package httpgate

import (
	"bytes"
	"context"
	"crypto/tls"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/credstore"
	"repro/internal/proxy"
	"repro/internal/testpki"
)

// rawPost sends an arbitrary body with the given client credential and
// returns status and body text.
func rawPost(t *testing.T, cli *Client, path, body string) (int, string) {
	t.Helper()
	hc, err := cli.client()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Post(cli.BaseURL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

func TestMalformedJSONRejected(t *testing.T) {
	_, base := startGateway(t, nil)
	cli := newGateClient(t, testpki.User(t, "gate-alice"), base)
	for _, path := range []string{"/v1/get", "/v1/info", "/v1/store", "/v1/retrieve", "/v1/destroy"} {
		code, body := rawPost(t, cli, path, "{not json")
		if code != http.StatusBadRequest {
			t.Errorf("%s: code %d body %s", path, code, body)
		}
	}
}

// INFO is a POST like the other four operations: a pass phrase in a query
// string would sit in access logs, proxies and histories.
func TestInfoTakesNoQueryString(t *testing.T) {
	g, base := startGateway(t, nil)
	alice := testpki.User(t, "gate-alice")
	seedViaStore(t, g, "alice", alice)
	cli := newGateClient(t, alice, base)
	hc, err := cli.client()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Get(base + "/v1/info?username=alice&passphrase=" + url.QueryEscape(gatePass))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/info answered %d, want 405", resp.StatusCode)
	}
}

func TestBadCSRRejected(t *testing.T) {
	g, base := startGateway(t, nil)
	alice := testpki.User(t, "gate-alice")
	seedViaStore(t, g, "alice", alice)
	cli := newGateClient(t, alice, base)
	cases := []string{
		`{"username":"alice","passphrase":"` + gatePass + `","csr_pem":"not a pem"}`,
		`{"username":"alice","passphrase":"` + gatePass + `","csr_pem":"-----BEGIN CERTIFICATE REQUEST-----\nAAAA\n-----END CERTIFICATE REQUEST-----"}`,
		`{"username":"alice","passphrase":"` + gatePass + `"}`,
	}
	for i, body := range cases {
		code, respBody := rawPost(t, cli, "/v1/get", body)
		if code != http.StatusBadRequest {
			t.Errorf("case %d: code %d body %s", i, code, respBody)
		}
	}
}

func TestExpiredCredentialGone(t *testing.T) {
	fakeNow := time.Now()
	g, base := startGateway(t, func(cfg *core.ServerConfig) {
		cfg.Now = func() time.Time { return fakeNow }
	})
	alice := testpki.User(t, "gate-alice")
	// Seed with a short validity, then jump the gateway clock.
	p, err := proxy.New(alice, proxy.Options{Lifetime: time.Hour, KeyBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	entry := &credstore.Entry{Username: "alice", Owner: alice.Subject()}
	if err := credstore.SealDelegated(entry, p, []byte(gatePass), 64); err != nil {
		t.Fatal(err)
	}
	if err := g.Store().Put(entry); err != nil {
		t.Fatal(err)
	}
	fakeNow = fakeNow.Add(2 * time.Hour)
	cli := newGateClient(t, alice, base)
	_, err = cli.Get(context.Background(), GetRequest{Username: "alice", Passphrase: gatePass})
	if err == nil || !strings.Contains(err.Error(), "expired") {
		t.Fatalf("expired credential: %v", err)
	}
}

func TestStoreValidation(t *testing.T) {
	_, base := startGateway(t, nil)
	alice := testpki.User(t, "gate-alice")
	cli := newGateClient(t, alice, base)
	// Weak pass phrase.
	code, body := rawPost(t, cli, "/v1/store",
		`{"username":"alice","passphrase":"123","blob":"QUJD"}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "pass phrase rejected") {
		t.Errorf("weak pass: %d %s", code, body)
	}
	// Missing blob.
	code, body = rawPost(t, cli, "/v1/store",
		`{"username":"alice","passphrase":"`+gatePass+`"}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "blob required") {
		t.Errorf("missing blob: %d %s", code, body)
	}
}

func TestStoreOverwriteByNonOwner(t *testing.T) {
	_, base := startGateway(t, nil)
	alice := testpki.User(t, "gate-alice")
	mallory := testpki.User(t, "gate-mallory")
	ctx := context.Background()
	if err := newGateClient(t, alice, base).Store(ctx, StoreRequest{
		Username: "shared", Passphrase: gatePass,
	}, alice); err != nil {
		t.Fatal(err)
	}
	err := newGateClient(t, mallory, base).Store(ctx, StoreRequest{
		Username: "shared", Passphrase: gatePass,
	}, mallory)
	if err == nil || !strings.Contains(err.Error(), "owned by another identity") {
		t.Fatalf("overwrite: %v", err)
	}
}

func TestRetrieveOfDelegatedKindRefused(t *testing.T) {
	g, base := startGateway(t, nil)
	alice := testpki.User(t, "gate-alice")
	seedViaStore(t, g, "alice", alice) // KindDelegated
	_, err := newGateClient(t, alice, base).Retrieve(context.Background(), RetrieveRequest{
		Username: "alice", Passphrase: gatePass,
	})
	if err == nil || !strings.Contains(err.Error(), "not retrievable") {
		t.Fatalf("retrieve delegated: %v", err)
	}
}

func TestNoClientCertRejected(t *testing.T) {
	_, base := startGateway(t, nil)
	// Build an HTTP client with no client certificate at all. The
	// gateway's TLS config requires one, so the handshake itself fails.
	hc := &http.Client{
		Timeout: 5 * time.Second,
		Transport: &http.Transport{
			TLSClientConfig: &tls.Config{
				RootCAs:    testpki.PoolOf(testpki.CA(t).Certificate()),
				ServerName: "httpgate.test",
			},
		},
	}
	_, err := hc.Post(base+"/v1/get", "application/json", bytes.NewReader(nil))
	if err == nil {
		t.Fatal("certificate-less client completed a request")
	}
}

func TestUnknownEndpointAndMethod(t *testing.T) {
	_, base := startGateway(t, nil)
	cli := newGateClient(t, testpki.User(t, "gate-alice"), base)
	hc, err := cli.client()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Get(base + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path = %d", resp.StatusCode)
	}
	// GET on a POST-only endpoint.
	resp, err = hc.Get(base + "/v1/get")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("wrong method = %d", resp.StatusCode)
	}
}

func TestTaskSelectionOverHTTP(t *testing.T) {
	g, base := startGateway(t, nil)
	alice := testpki.User(t, "gate-alice")
	for name, tags := range map[string][]string{
		"compute": {"job-submit"},
		"data":    {"file-read", "file-write"},
	} {
		p, err := proxy.New(alice, proxy.Options{Lifetime: 24 * time.Hour, KeyBits: 1024})
		if err != nil {
			t.Fatal(err)
		}
		entry := &credstore.Entry{Username: "alice", Name: name, Owner: alice.Subject(), TaskTags: tags}
		if err := credstore.SealDelegated(entry, p, []byte(gatePass), 64); err != nil {
			t.Fatal(err)
		}
		if err := g.Store().Put(entry); err != nil {
			t.Fatal(err)
		}
	}
	cli := newGateClient(t, alice, base)
	if _, err := cli.Get(context.Background(), GetRequest{
		Username: "alice", Passphrase: gatePass, TaskHint: "file-read",
	}); err != nil {
		t.Fatalf("task selection: %v", err)
	}
	// Ambiguous default (two creds, no default, no hint).
	if _, err := cli.Get(context.Background(), GetRequest{
		Username: "alice", Passphrase: gatePass,
	}); err == nil {
		t.Error("ambiguous selection succeeded")
	}
	// Explicit name.
	if _, err := cli.Get(context.Background(), GetRequest{
		Username: "alice", Passphrase: gatePass, CredName: "data",
	}); err != nil {
		t.Fatalf("named selection: %v", err)
	}
}

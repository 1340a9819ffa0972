package httpgate

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/credstore"
	"repro/internal/otp"
	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/protocol"
	"repro/internal/proxy"
	"repro/internal/testpki"
)

// class is what a client can tell about an outcome: "ok", or the name of
// the core.VerdictKind the front-end encoded.
type class string

// classOf maps a refusal's public text to its class; wantStatus is the HTTP
// status the gateway must pick for the class (DESIGN.md §17). A name the
// boundary validators refuse is "invalid" on every transport, whichever
// byte they name.
var (
	classOf = map[string]class{
		"authorization failed":                               "denied",
		"no credentials found for user":                      "not-found",
		"bad pass phrase or username":                        "bad-passphrase",
		"stored credential has expired":                      "expired",
		"one-time password required":                         "otp-required",
		"one-time password chain exhausted":                  "otp-exhausted",
		"credential exists and is owned by another identity": "conflict",
		"credential is not retrievable; use get-delegation":  "conflict",
	}
	wantStatus = map[class]int{
		"denied": 403, "not-found": 404, "bad-passphrase": 403, "expired": 410,
		"otp-required": 401, "otp-exhausted": 403, "conflict": 409, "invalid": 400,
	}
)

func classify(msg string) class {
	if strings.HasPrefix(strings.TrimPrefix(msg, "malformed request: "), "protocol: username contains forbidden byte") {
		return "invalid"
	}
	return classOf[msg]
}

// auditLog collects what the shared Logger writes, one entry per event.
type auditLog struct {
	mu     sync.Mutex
	events []string
}

func (a *auditLog) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events = append(a.events, string(p))
	return len(p), nil
}

// frontend drives the repository through one transport.
type frontend struct {
	name     string
	stats    *core.Stats
	get      func(peer *pki.Credential, o core.GetOptions) (*pki.Credential, error)
	retrieve func(peer *pki.Credential, o core.RetrieveOptions) (*pki.Credential, error)
	store    func(peer *pki.Credential, o core.StoreOptions) error
	destroy  func(peer *pki.Credential, username, passphrase string) error
	info     func(peer *pki.Credential, username, passphrase string) error
	// outcome classes err and extracts an OTP challenge if it carries one.
	outcome func(t *testing.T, err error) (class, string)
}

func wireOutcome(t *testing.T, err error) (class, string) {
	var otpErr *core.ErrOTPRequired
	var se *protocol.ServerError
	switch {
	case err == nil:
		return "ok", ""
	case errors.As(err, &otpErr):
		return "otp-required", otpErr.Challenge
	case errors.As(err, &se) && len(se.Msgs) == 1 && classify(se.Msgs[0]) != "":
		return classify(se.Msgs[0]), ""
	}
	t.Fatalf("unclassifiable wire error: %v", err)
	return "", ""
}

// statusRecorder remembers the status of the gateway's last answer, which
// httpgate.Client folds into an error string.
type statusRecorder struct {
	http.RoundTripper
	last int
}

func (s *statusRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := s.RoundTripper.RoundTrip(r)
	if resp != nil {
		s.last = resp.StatusCode
	}
	return resp, err
}

const (
	parityPass = "parity pass phrase"
	wrongPass  = "wrong wrong wrong"
	otpSecret  = "parity otp secret"
)

// TestSharedStoreBetweenFrontends is §6.4's point — the protocol is a
// front-end detail — as a table: one store, one OTP registry and one
// configuration behind the MYPROXYv2 server (per-exchange connections,
// session streams, and a cluster client over held node sessions) and the
// HTTP gateway; every row must end in the same
// verdict class, the same delegated identity and lifetime, and the same
// counter, whichever front-end carried it. The audit log of the whole table
// is the canary: every event is one line free of control bytes, and none
// holds a pass phrase or a one-time password the table spoke.
func TestSharedStoreBetweenFrontends(t *testing.T) {
	roots := testpki.PoolOf(testpki.CA(t).Certificate())
	registry := otp.NewRegistry()
	var audit auditLog
	spoken := []string{parityPass, wrongPass, otpSecret}
	cfg := core.ServerConfig{
		Logger:              log.New(&audit, "", 0),
		Credential:          testpki.Host(t, "httpgate.test"),
		Roots:               roots,
		Store:               credstore.NewMemStore(),
		AcceptedCredentials: policy.NewACL("/C=US/O=Test Grid/*"),
		AuthorizedRetrievers: policy.NewACL(
			"*/CN=parity-portal.test", "*/CN=parity-other.test", "*/CN=parity-alice"),
		Lifetimes:         policy.LifetimePolicy{MaxDelegated: 2 * time.Hour},
		OTP:               registry,
		KDFIterations:     64,
		DelegationKeyBits: 1024,
	}
	srv, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gate, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var addrs [2]string
	for i, serve := range []func(net.Listener) error{srv.Serve, gate.Serve} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go serve(ln)
		t.Cleanup(func() { ln.Close() })
		addrs[i] = ln.Addr().String()
	}
	t.Cleanup(func() { srv.Close() })

	alice := testpki.User(t, "parity-alice")
	bob := testpki.User(t, "parity-bob")
	mallory := testpki.User(t, "parity-mallory")
	// A CA signs the names it is asked to: eve's DN carries a line break
	// and an escape sequence into every event that names the peer.
	eve := testpki.User(t, "parity-eve\nDELEGATED \"alice\"/\"\" to /CN=forged\x1b[2K")
	portal := testpki.Host(t, "parity-portal.test")
	other := testpki.Host(t, "parity-other.test")
	ctx := context.Background()

	var keyAlg pki.KeyAlgorithm // of the keys the clients ask to have certified
	wire := func(peer *pki.Credential) *core.Client {
		return &core.Client{
			Credential: peer, Roots: roots, Addr: addrs[0], ExpectedServer: "*/CN=httpgate.test",
			KeyAlgorithm: keyAlg, KeyBits: 1024, Timeout: 10 * time.Second,
		}
	}
	var answered *statusRecorder // on the gateway client used last
	gateway := func(peer *pki.Credential) *Client {
		cli := newGateClient(t, peer, "https://"+addrs[1])
		cli.KeyAlgorithm = keyAlg
		hc, err := cli.client()
		if err != nil {
			t.Fatal(err)
		}
		answered = &statusRecorder{RoundTripper: hc.Transport}
		hc.Transport = answered
		return cli
	}
	// over is the column of a transport that is a core.Repository: each
	// operation runs on a repository opened for peer and closed after it.
	over := func(name string, open func(peer *pki.Credential) (core.Repository, func() error, error)) frontend {
		with := func(peer *pki.Credential, do func(core.Repository) error) error {
			repo, done, err := open(peer)
			if err != nil {
				return err
			}
			defer done()
			return do(repo)
		}
		return frontend{
			name: name, stats: srv.Stats(), outcome: wireOutcome,
			get: func(peer *pki.Credential, o core.GetOptions) (cred *pki.Credential, err error) {
				err = with(peer, func(r core.Repository) error {
					cred, err = r.Get(ctx, o)
					return err
				})
				return cred, err
			},
			retrieve: func(peer *pki.Credential, o core.RetrieveOptions) (cred *pki.Credential, err error) {
				err = with(peer, func(r core.Repository) error {
					cred, err = r.Retrieve(ctx, o)
					return err
				})
				return cred, err
			},
			store: func(peer *pki.Credential, o core.StoreOptions) error {
				return with(peer, func(r core.Repository) error { return r.Store(ctx, o) })
			},
			destroy: func(peer *pki.Credential, username, passphrase string) error {
				return with(peer, func(r core.Repository) error { return r.Destroy(ctx, username, passphrase, "") })
			},
			info: func(peer *pki.Credential, username, passphrase string) error {
				return with(peer, func(r core.Repository) error {
					_, err := r.Info(ctx, username, passphrase)
					return err
				})
			},
		}
	}
	noClose := func() error { return nil }
	frontends := []frontend{over("wire", func(peer *pki.Credential) (core.Repository, func() error, error) {
		return wire(peer), noClose, nil
	}), over("session", func(peer *pki.Credential) (core.Repository, func() error, error) {
		sess, err := wire(peer).NewSession(ctx)
		if err != nil {
			return nil, nil, err
		}
		if !sess.Multiplexed() {
			return nil, nil, errors.New("session degraded to per-exchange connections")
		}
		return sess, sess.Close, nil
	}), over("cluster", func(peer *pki.Credential) (core.Repository, func() error, error) {
		// One node, RF 1: the routing is trivial, the node client is the
		// held session every cluster client gets.
		c, err := cluster.New(cluster.Config{
			Nodes: []cluster.NodeConfig{{Addr: addrs[0]}}, ReplicationFactor: 1,
			Credential: peer, Roots: roots, ExpectedServer: "*/CN=httpgate.test",
			KeyAlgorithm: keyAlg, KeyBits: 1024, Timeout: 10 * time.Second,
		})
		if err != nil {
			return nil, nil, err
		}
		return c, c.Close, nil
	}), {
		name: "gateway", stats: gate.svc.Stats(),
		get: func(peer *pki.Credential, o core.GetOptions) (*pki.Credential, error) {
			return gateway(peer).Get(ctx, GetRequest{
				Username: o.Username, Passphrase: o.Passphrase, LifetimeSeconds: int64(o.Lifetime / time.Second),
				CredName: o.CredName, TaskHint: o.TaskHint, OTP: o.OTP,
			})
		},
		retrieve: func(peer *pki.Credential, o core.RetrieveOptions) (*pki.Credential, error) {
			return gateway(peer).Retrieve(ctx, RetrieveRequest{
				Username: o.Username, Passphrase: o.Passphrase, CredName: o.CredName, TaskHint: o.TaskHint, OTP: o.OTP,
			})
		},
		store: func(peer *pki.Credential, o core.StoreOptions) error {
			return gateway(peer).Store(ctx, StoreRequest{Username: o.Username, Passphrase: o.Passphrase}, o.Credential)
		},
		destroy: func(peer *pki.Credential, username, passphrase string) error {
			return gateway(peer).Destroy(ctx, DestroyRequest{Username: username, Passphrase: passphrase})
		},
		info: func(peer *pki.Credential, username, passphrase string) error {
			_, err := gateway(peer).Info(ctx, username, passphrase)
			return err
		},
		outcome: func(t *testing.T, err error) (class, string) {
			if err == nil {
				return "ok", ""
			}
			msg, challenge := strings.TrimPrefix(err.Error(), "httpgate: "), ""
			if i := strings.Index(msg, ` (challenge "`); i >= 0 {
				msg, challenge = msg[:i], strings.TrimSuffix(msg[i+len(` (challenge "`):], `")`)
			}
			c := classify(msg)
			if c == "" {
				t.Fatalf("unclassifiable gateway error: %v", err)
			}
			if got := answered.last; got != wantStatus[c] {
				t.Errorf("gateway answered %q with status %d, want %d", msg, got, wantStatus[c])
			}
			return c, challenge
		},
	}}

	// seed deposits a delegated proxy of owner straight into the shared
	// store, shaped by mutate.
	seed := func(t *testing.T, username string, owner *pki.Credential, mutate func(*credstore.Entry)) {
		t.Helper()
		p, err := proxy.New(owner, proxy.Options{Lifetime: 24 * time.Hour, KeyBits: 1024})
		if err != nil {
			t.Fatal(err)
		}
		entry := &credstore.Entry{Username: username, Owner: owner.Subject()}
		if err := credstore.SealDelegated(entry, p, []byte(parityPass), 64); err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(entry)
		}
		if err := cfg.Store.Put(entry); err != nil {
			t.Fatal(err)
		}
	}
	// delegated asserts a successful GET's identity and clamped lifetime.
	delegated := func(t *testing.T, cred *pki.Credential, identity *pki.Credential, max time.Duration) {
		t.Helper()
		res, err := proxy.Verify(cred.CertChain(), proxy.VerifyOptions{Roots: roots})
		if err != nil {
			t.Fatal(err)
		}
		if res.IdentityString() != identity.Subject() {
			t.Errorf("delegated identity %q, want %q", res.IdentityString(), identity.Subject())
		}
		if left := cred.TimeLeft(); left > max || left < max-time.Minute {
			t.Errorf("delegated lifetime %v, want it clamped to %v", left, max)
		}
	}

	// Each row runs once per front-end under a user of its own, so rows and
	// front-ends cannot see each other's entries or OTP chains. run returns
	// the classes it observed, to be compared with want; counter, when
	// named, must have moved by exactly one.
	otpRound := []class{"otp-required", "ok", "bad-passphrase", "otp-exhausted"}
	rows := []struct {
		name    string
		want    []class
		counter string
		run     func(t *testing.T, f frontend, user string) []class
	}{
		{"server ACL deny", []class{"denied"}, "auth_failures", func(t *testing.T, f frontend, user string) []class {
			seed(t, user, alice, nil)
			_, err := f.get(mallory, core.GetOptions{Username: user, Passphrase: parityPass})
			c, _ := f.outcome(t, err)
			return []class{c}
		}},
		{"server ACL deny of a DN with control bytes", []class{"denied"}, "auth_failures", func(t *testing.T, f frontend, user string) []class {
			seed(t, user, alice, nil)
			_, err := f.get(eve, core.GetOptions{Username: user, Passphrase: parityPass})
			c, _ := f.outcome(t, err)
			return []class{c}
		}},
		{"username with a space or a control byte", []class{"invalid", "invalid", "invalid", "invalid"}, "", func(t *testing.T, f frontend, _ string) []class {
			var got []class
			for _, name := range []string{"parity user", "parity\x07user"} {
				_, err := f.get(portal, core.GetOptions{Username: name, Passphrase: parityPass})
				c, _ := f.outcome(t, err)
				got = append(got, c)
				c, _ = f.outcome(t, f.info(portal, name, parityPass))
				got = append(got, c)
			}
			return got
		}},
		{"INFO by pass phrase", []class{"ok", "not-found"}, "infos", func(t *testing.T, f frontend, user string) []class {
			seed(t, user, alice, nil)
			listed, _ := f.outcome(t, f.info(portal, user, parityPass))
			refused, _ := f.outcome(t, f.info(portal, user, wrongPass))
			return []class{listed, refused}
		}},
		{"unknown user", []class{"not-found"}, "auth_failures", func(t *testing.T, f frontend, user string) []class {
			_, err := f.get(portal, core.GetOptions{Username: user, Passphrase: parityPass})
			c, _ := f.outcome(t, err)
			return []class{c}
		}},
		{"bad pass phrase", []class{"bad-passphrase"}, "auth_failures", func(t *testing.T, f frontend, user string) []class {
			seed(t, user, alice, nil)
			_, err := f.get(portal, core.GetOptions{Username: user, Passphrase: wrongPass})
			c, _ := f.outcome(t, err)
			return []class{c}
		}},
		{"retriever list deny", []class{"denied"}, "auth_failures", func(t *testing.T, f frontend, user string) []class {
			seed(t, user, alice, func(e *credstore.Entry) { e.Retrievers = "*/CN=parity-portal.test" })
			_, err := f.get(other, core.GetOptions{Username: user, Passphrase: parityPass})
			c, _ := f.outcome(t, err)
			return []class{c}
		}},
		{"expired entry", []class{"expired"}, "auth_failures", func(t *testing.T, f frontend, user string) []class {
			seed(t, user, alice, func(e *credstore.Entry) { e.NotAfter = time.Now().Add(-time.Hour) })
			_, err := f.get(portal, core.GetOptions{Username: user, Passphrase: parityPass})
			c, _ := f.outcome(t, err)
			return []class{c}
		}},
		{"clamped GET", []class{"ok"}, "gets", func(t *testing.T, f frontend, user string) []class {
			seed(t, user, alice, nil)
			cred, err := f.get(portal, core.GetOptions{Username: user, Passphrase: parityPass, Lifetime: 10 * time.Hour})
			c, _ := f.outcome(t, err)
			if err == nil {
				delegated(t, cred, alice, 2*time.Hour)
			}
			return []class{c}
		}},
		{"owner-restricted GET", []class{"ok"}, "gets", func(t *testing.T, f frontend, user string) []class {
			seed(t, user, alice, func(e *credstore.Entry) { e.MaxDelegation = 30 * time.Minute })
			cred, err := f.get(portal, core.GetOptions{Username: user, Passphrase: parityPass})
			c, _ := f.outcome(t, err)
			if err == nil {
				delegated(t, cred, alice, 30*time.Minute)
			}
			return []class{c}
		}},
		{"GET for an ECDSA key", []class{"ok"}, "gets", func(t *testing.T, f frontend, user string) []class {
			seed(t, user, alice, nil)
			keyAlg = pki.AlgECDSAP256
			defer func() { keyAlg = pki.AlgRSA }()
			cred, err := f.get(portal, core.GetOptions{Username: user, Passphrase: parityPass})
			c, _ := f.outcome(t, err)
			if err == nil {
				if alg, _ := pki.AlgorithmOf(cred.PrivateKey.Public()); alg != pki.AlgECDSAP256 {
					t.Errorf("delegated key algorithm = %v", alg)
				}
			}
			return []class{c}
		}},
		{"wallet selection by task hint", []class{"ok"}, "gets", func(t *testing.T, f frontend, user string) []class {
			seed(t, user, alice, func(e *credstore.Entry) { e.Name, e.TaskTags = "compute", []string{"job-submit"} })
			seed(t, user, bob, func(e *credstore.Entry) { e.Name, e.TaskTags = "data", []string{"file-read", "file-write"} })
			cred, err := f.get(portal, core.GetOptions{Username: user, Passphrase: parityPass, TaskHint: "file-read"})
			c, _ := f.outcome(t, err)
			if err == nil {
				delegated(t, cred, bob, 2*time.Hour)
			}
			return []class{c}
		}},
		{"OTP on GET: required, accepted, replayed, exhausted", otpRound, "", func(t *testing.T, f frontend, user string) []class {
			seed(t, user, alice, nil)
			return otpRounds(t, registry, user, &spoken, f.outcome, func(answer string) error {
				_, err := f.get(portal, core.GetOptions{Username: user, Passphrase: parityPass, OTP: answer})
				return err
			})
		}},
		{"OTP on RETRIEVE: required, accepted, replayed, exhausted", otpRound, "", func(t *testing.T, f frontend, user string) []class {
			if err := f.store(alice, core.StoreOptions{Username: user, Passphrase: parityPass, Credential: alice}); err != nil {
				t.Fatal(err)
			}
			return otpRounds(t, registry, user, &spoken, f.outcome, func(answer string) error {
				_, err := f.retrieve(alice, core.RetrieveOptions{Username: user, Passphrase: parityPass, OTP: answer})
				return err
			})
		}},
		{"RETRIEVE round trip", []class{"ok"}, "retrieves", func(t *testing.T, f frontend, user string) []class {
			if err := f.store(alice, core.StoreOptions{Username: user, Passphrase: parityPass, Credential: alice}); err != nil {
				t.Fatal(err)
			}
			back, err := f.retrieve(alice, core.RetrieveOptions{Username: user, Passphrase: parityPass})
			c, _ := f.outcome(t, err)
			if err == nil && !pki.PublicKeysEqual(back.PrivateKey.Public(), alice.PrivateKey.Public()) {
				t.Error("retrieved key differs from the deposit")
			}
			return []class{c}
		}},
		{"RETRIEVE of a delegated entry", []class{"conflict"}, "auth_failures", func(t *testing.T, f frontend, user string) []class {
			seed(t, user, alice, nil)
			_, err := f.retrieve(alice, core.RetrieveOptions{Username: user, Passphrase: parityPass})
			c, _ := f.outcome(t, err)
			return []class{c}
		}},
		{"STORE overwrite by a non-owner", []class{"conflict"}, "auth_failures", func(t *testing.T, f frontend, user string) []class {
			seed(t, user, alice, nil)
			c, _ := f.outcome(t, f.store(mallory, core.StoreOptions{Username: user, Passphrase: parityPass, Credential: mallory}))
			return []class{c}
		}},
		{"DESTROY by a non-owner", []class{"denied"}, "auth_failures", func(t *testing.T, f frontend, user string) []class {
			seed(t, user, alice, nil)
			c, _ := f.outcome(t, f.destroy(mallory, user, parityPass))
			return []class{c}
		}},
		{"DESTROY by the owner", []class{"ok"}, "destroys", func(t *testing.T, f frontend, user string) []class {
			seed(t, user, alice, nil)
			c, _ := f.outcome(t, f.destroy(alice, user, parityPass))
			return []class{c}
		}},
	}
	for _, row := range rows {
		for _, f := range frontends {
			t.Run(row.name+"/"+f.name, func(t *testing.T) {
				before := f.stats.Snapshot()
				got := row.run(t, f, testpki.FreshName("parity"))
				if !slices.Equal(got, row.want) {
					t.Errorf("outcomes %v, want %v", got, row.want)
				}
				if row.counter == "" {
					return
				}
				if delta := f.stats.Snapshot()[row.counter] - before[row.counter]; delta != 1 {
					t.Errorf("%s moved by %d, want 1", row.counter, delta)
				}
			})
		}
	}

	audit.mu.Lock()
	defer audit.mu.Unlock()
	forged := false
	for _, e := range audit.events {
		body, ok := strings.CutSuffix(e, "\n")
		if !ok || strings.IndexFunc(body, unicode.IsControl) >= 0 {
			t.Errorf("audit event is not one line free of control bytes: %q", e)
		}
		for _, secret := range spoken {
			if strings.Contains(e, secret) {
				t.Errorf("audit event holds %q: %q", secret, e)
			}
		}
		forged = forged || strings.Contains(e, `parity-eve\nDELEGATED`)
	}
	if !forged {
		t.Error("no audit event names eve's DN: the canary saw no hostile bytes")
	}
}

// otpRounds enrolls user with a chain holding exactly one usable response
// and plays the four OTP outcomes through attempt: no answer, the right
// answer, the same answer again, and no answer once the chain is used up.
// Every answer spoken joins spoken.
func otpRounds(t *testing.T, registry *otp.Registry, user string, spoken *[]string,
	outcome func(*testing.T, error) (class, string), attempt func(answer string) error) []class {
	t.Helper()
	if err := registry.Register(user, otp.SHA1, otpSecret, "parityseed", 2); err != nil {
		t.Fatal(err)
	}
	required, challenge := outcome(t, attempt(""))
	answer, err := otp.Respond(challenge, otpSecret)
	if err != nil {
		t.Fatalf("challenge %q: %v", challenge, err)
	}
	*spoken = append(*spoken, answer)
	accepted, _ := outcome(t, attempt(answer))
	replayed, _ := outcome(t, attempt(answer))
	exhausted, _ := outcome(t, attempt(""))
	return []class{required, accepted, replayed, exhausted}
}

// A user enrolled for one-time passwords (§6.3) must answer the challenge
// on /v1/retrieve exactly as on /v1/get; the gateway used to serve the blob
// for the replayable pass phrase alone.
func TestOTPGatesRetrieveOverHTTP(t *testing.T) {
	registry := otp.NewRegistry()
	_, base := startGateway(t, func(cfg *core.ServerConfig) { cfg.OTP = registry })
	alice := testpki.User(t, "gate-alice")
	cli := newGateClient(t, alice, base)
	ctx := context.Background()
	if err := cli.Store(ctx, StoreRequest{Username: "alice", Passphrase: gatePass}, alice); err != nil {
		t.Fatal(err)
	}
	secret := "gateway otp secret"
	if err := registry.Register("alice", otp.SHA1, secret, "gateseed", 10); err != nil {
		t.Fatal(err)
	}
	code, body := rawPost(t, cli, "/v1/retrieve", `{"username":"alice","passphrase":"`+gatePass+`"}`)
	if code != http.StatusUnauthorized || !strings.Contains(body, `"challenge"`) {
		t.Fatalf("retrieve without OTP: status %d, want 401 and a challenge", code)
	}
	code, body = rawPost(t, cli, "/v1/retrieve", `{"username":"alice","passphrase":"`+gatePass+`","otp":"AAAA BBBB CCCC DDDD EEEE FFFF"}`)
	if code != http.StatusForbidden {
		t.Fatalf("retrieve with a wrong OTP: %d %s, want 403", code, body)
	}
}

// The gateway signs any CSR key the wire path signs, including the ones its
// own client produces for KeyAlgorithm; it used to insist on RSA.
func TestGetECDSAOverHTTP(t *testing.T) {
	g, base := startGateway(t, nil)
	alice := testpki.User(t, "gate-alice")
	seedViaStore(t, g, "alice", alice)
	cli := newGateClient(t, testpki.Host(t, "gate-portal.test"), base)
	cli.KeyAlgorithm = pki.AlgECDSAP256
	cred, err := cli.Get(context.Background(), GetRequest{Username: "alice", Passphrase: gatePass})
	if err != nil {
		t.Fatalf("Get with an ECDSA key: %v", err)
	}
	if alg, _ := pki.AlgorithmOf(cred.PrivateKey.Public()); alg != pki.AlgECDSAP256 {
		t.Errorf("delegated key algorithm = %v", alg)
	}
}

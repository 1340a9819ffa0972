package portal

import (
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"log"
	"mime"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gram"
	"repro/internal/mss"
	"repro/internal/pki"
	"repro/internal/proxy"
)

// Config configures a Grid portal.
type Config struct {
	// Credential is the portal's host credential; it authenticates the
	// portal to the MyProxy repository and to Grid services (paper §5.2
	// notes it is kept unencrypted so the portal runs unattended).
	Credential *pki.Credential
	// Roots anchor all Grid-side trust.
	Roots *x509.CertPool
	// MyProxyAddr is the repository the portal retrieves delegations from;
	// users may override it per login when AllowUserRepos is set
	// (paper §4.3: "the user might also specify a MyProxy repository for
	// the portal to use"). A comma-separated list of addresses selects a
	// replicated repository cluster (DESIGN.md §12): logins shard across
	// the nodes and fail over between replicas.
	MyProxyAddr    string
	AllowUserRepos bool
	// ReplicationFactor is the cluster replication factor when MyProxyAddr
	// names multiple nodes (0 selects cluster.DefaultReplicationFactor).
	ReplicationFactor int
	// ExpectedMyProxy pins the repository identity (DN pattern).
	ExpectedMyProxy string
	// GRAMAddr/MSSAddr are the Grid resources the portal drives.
	GRAMAddr string
	MSSAddr  string
	// SessionLifetime bounds browser sessions (0 = 8h).
	SessionLifetime time.Duration
	// ProxyLifetime is requested from the repository at login (0 = 2h,
	// the paper's "a few hours").
	ProxyLifetime time.Duration
	// KeyAlgorithm selects the delegation key algorithm (zero value = RSA,
	// the paper-fidelity default).
	KeyAlgorithm pki.KeyAlgorithm
	// KeyBits sizes RSA delegation keys (0 = pki.DefaultKeyBits); ignored
	// for non-RSA algorithms.
	KeyBits int
	// KeySource, when non-nil, supplies pre-generated delegation key pairs
	// (typically a keypool.Pool sized by the -keypool flag), taking RSA
	// generation off the login path. nil generates synchronously.
	KeySource proxy.KeySource
	// Logger receives audit lines; nil disables logging.
	Logger *log.Logger
}

// Portal is the web application.
type Portal struct {
	cfg      Config
	sessions *Sessions
	mux      *http.ServeMux

	// clients memoizes one repository client per address spec so the TLS
	// session cache and chain-verification cache inside each client survive
	// across logins — repeat logins resume the GSI channel instead of
	// paying a full handshake (DESIGN.md §9). A spec naming several nodes
	// maps to one cluster client (which memoizes per-node clients itself).
	clientsMu sync.Mutex
	clients   map[string]core.Repository // guarded by clientsMu
}

// New builds the portal.
func New(cfg Config) (*Portal, error) {
	if cfg.Credential == nil || cfg.Roots == nil {
		return nil, errors.New("portal: credential and roots required")
	}
	if cfg.MyProxyAddr == "" {
		return nil, errors.New("portal: MyProxyAddr required")
	}
	p := &Portal{
		cfg:      cfg,
		sessions: NewSessions(cfg.SessionLifetime, nil),
		mux:      http.NewServeMux(),
		clients:  make(map[string]core.Repository),
	}
	p.routes()
	return p, nil
}

// Sessions exposes the session table (tests, admin).
func (p *Portal) Sessions() *Sessions { return p.sessions }

// Handler returns the portal's HTTP handler.
func (p *Portal) Handler() http.Handler { return p.mux }

// ListenAndServeTLS serves HTTPS on ln using the portal credential. The
// paper (§5.2) requires HTTPS: "the portal web server must currently be
// configured to only allow HTTP connections secured with SSL encryption".
func (p *Portal) Serve(ln net.Listener) error {
	cert := tls.Certificate{PrivateKey: p.cfg.Credential.PrivateKey}
	for _, c := range p.cfg.Credential.CertChain() {
		cert.Certificate = append(cert.Certificate, c.Raw)
	}
	srv := &http.Server{
		Handler:           p.mux,
		ReadHeaderTimeout: 10 * time.Second,
		TLSConfig: &tls.Config{
			Certificates: []tls.Certificate{cert},
			MinVersion:   tls.VersionTLS12,
		},
	}
	// A session whose browser never returns must not keep its delegated key
	// until exit (paper §4.3: "if a user forgets to log off, then the
	// credential will expire"): sweep for as long as the portal serves.
	ticker := time.NewTicker(sweepInterval)
	defer ticker.Stop()
	stop, swept := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(swept)
		p.sessions.sweepEvery(ticker.C, stop)
	}()
	err := srv.ServeTLS(ln, "", "")
	close(stop)
	<-swept
	return err
}

// sweepInterval is how often a serving portal drops expired sessions.
const sweepInterval = time.Minute

// repoClient returns the memoized repository client for repoAddr, creating
// it on first use. Reusing the client is what lets its TLS session cache and
// verification cache pay off on the second and later logins. A
// comma-separated repoAddr builds a cluster client sharding across the
// listed nodes with read failover and replicated writes.
func (p *Portal) repoClient(repoAddr string) (core.Repository, error) {
	p.clientsMu.Lock()
	defer p.clientsMu.Unlock()
	if c, ok := p.clients[repoAddr]; ok {
		return c, nil
	}
	c, err := cluster.Open(repoAddr, cluster.Config{
		ReplicationFactor: p.cfg.ReplicationFactor,
		Credential:        p.cfg.Credential,
		Roots:             p.cfg.Roots,
		ExpectedServer:    p.cfg.ExpectedMyProxy,
		KeyAlgorithm:      p.cfg.KeyAlgorithm,
		KeyBits:           p.cfg.KeyBits,
		KeySource:         p.cfg.KeySource,
	})
	if err != nil {
		return nil, fmt.Errorf("portal: repository cluster %q: %w", repoAddr, err)
	}
	p.clients[repoAddr] = c
	return c, nil
}

const sessionCookie = "portal_session"

func (p *Portal) routes() {
	p.mux.HandleFunc("GET /", p.handleIndex)
	p.mux.HandleFunc("POST /api/login", p.handleLogin)
	p.mux.HandleFunc("POST /api/logout", p.withSession(p.handleLogout))
	p.mux.HandleFunc("GET /api/whoami", p.withSession(p.handleWhoami))
	p.mux.HandleFunc("POST /api/submit", p.withSession(p.handleSubmit))
	p.mux.HandleFunc("GET /api/jobs", p.withSession(p.handleJobs))
	p.mux.HandleFunc("POST /api/store", p.withSession(p.handleStore))
	p.mux.HandleFunc("GET /api/files", p.withSession(p.handleFiles))
	p.mux.HandleFunc("GET /api/file", p.withSession(p.handleFileGet))
}

type sessionHandler func(w http.ResponseWriter, r *http.Request, sess *Session)

func (p *Portal) withSession(h sessionHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		cookie, err := r.Cookie(sessionCookie)
		if err != nil {
			httpError(w, http.StatusUnauthorized, "not logged in")
			return
		}
		sess, err := p.sessions.Lookup(cookie.Value)
		if err != nil {
			httpError(w, http.StatusUnauthorized, "session expired or unknown")
			return
		}
		h(w, r, sess)
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func httpJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

var indexTemplate = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>Grid Portal</title></head>
<body>
<h1>Grid Portal</h1>
<p>Log in with the user identity and pass phrase you registered with
myproxy-init. The portal will retrieve a short-lived delegated credential
from the MyProxy repository and act on the Grid on your behalf.</p>
<form method="POST" action="/api/login">
  <label>User identity <input name="username"></label><br>
  <label>Pass phrase <input name="passphrase" type="password"></label><br>
  <label>Lifetime (e.g. 2h) <input name="lifetime" value="2h"></label><br>
  <button type="submit">Log in</button>
</form>
</body></html>
`))

func (p *Portal) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = indexTemplate.Execute(w, nil)
}

// handleLogin is paper Fig. 3, steps 1–3: the browser supplies the MyProxy
// authentication data; the portal authenticates to the repository with its
// own credential, presents the user's data, and receives a delegated proxy
// it binds to a fresh session.
func (p *Portal) handleLogin(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseForm(); err != nil {
		httpError(w, http.StatusBadRequest, "malformed form")
		return
	}
	username := r.PostFormValue("username")
	passphrase := r.PostFormValue("passphrase")
	if username == "" || passphrase == "" {
		httpError(w, http.StatusBadRequest, "username and passphrase required")
		return
	}
	lifetime := p.cfg.ProxyLifetime
	if lifetime <= 0 {
		lifetime = 2 * time.Hour
	}
	if lv := r.PostFormValue("lifetime"); lv != "" {
		d, err := time.ParseDuration(lv)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, "invalid lifetime")
			return
		}
		lifetime = d
	}
	repoAddr := p.cfg.MyProxyAddr
	if p.cfg.AllowUserRepos {
		if alt := r.PostFormValue("repository"); alt != "" {
			repoAddr = alt
		}
	}
	client, err := p.repoClient(repoAddr)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	cred, err := client.Get(r.Context(), core.GetOptions{
		Username:   username,
		Passphrase: passphrase,
		Lifetime:   lifetime,
		CredName:   r.PostFormValue("credential"),
		TaskHint:   r.PostFormValue("task"),
		OTP:        r.PostFormValue("otp"),
	})
	if err != nil {
		core.Audit(p.cfg.Logger, "login failed for %q: %v", username, err)
		var otpErr *core.ErrOTPRequired
		if errors.As(err, &otpErr) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnauthorized)
			json.NewEncoder(w).Encode(map[string]string{
				"error":     "one-time password required",
				"challenge": otpErr.Challenge,
			})
			return
		}
		httpError(w, http.StatusUnauthorized, "login failed: "+err.Error())
		return
	}
	res, err := proxy.Verify(cred.CertChain(), proxy.VerifyOptions{Roots: p.cfg.Roots})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "delegated credential invalid")
		return
	}
	sess, err := p.sessions.Create(username, res.IdentityString(), cred)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "session error")
		return
	}
	core.Audit(p.cfg.Logger, "login %q as %q until %v", username, sess.Identity, sess.Expires)
	// The cookie value is the server-generated session token, never client
	// input.
	http.SetCookie(w, &http.Cookie{
		Name:     sessionCookie,
		Value:    sess.Token,
		Path:     "/",
		HttpOnly: true,
		Secure:   true,
		SameSite: http.SameSiteStrictMode,
		Expires:  sess.Expires,
	})
	httpJSON(w, map[string]string{
		"identity": sess.Identity,
		"expires":  sess.Expires.UTC().Format(time.RFC3339),
	})
}

func (p *Portal) handleLogout(w http.ResponseWriter, r *http.Request, sess *Session) {
	p.sessions.Destroy(sess.Token)
	http.SetCookie(w, &http.Cookie{Name: sessionCookie, Value: "", Path: "/", MaxAge: -1})
	core.Audit(p.cfg.Logger, "logout %q", sess.Username)
	httpJSON(w, map[string]bool{"ok": true})
}

func (p *Portal) handleWhoami(w http.ResponseWriter, r *http.Request, sess *Session) {
	httpJSON(w, map[string]interface{}{
		"username":       sess.Username,
		"identity":       sess.Identity,
		"expires":        sess.Expires.UTC().Format(time.RFC3339),
		"credential_ttl": sess.Credential.TimeLeft().Round(time.Second).String(),
	})
}

func (p *Portal) gramClient(sess *Session) *gram.Client {
	return &gram.Client{
		Credential: sess.Credential,
		Roots:      p.cfg.Roots,
		Addr:       p.cfg.GRAMAddr,
	}
}

func (p *Portal) mssClient(sess *Session) *mss.Client {
	return &mss.Client{
		Credential: sess.Credential,
		Roots:      p.cfg.Roots,
		Addr:       p.cfg.MSSAddr,
	}
}

// handleSubmit runs a job on the Grid as the logged-in user (paper §5.2:
// "when a user makes a request to perform a remote task, such as file
// transfer or job submission, the portal can use the identifying
// information to determine the credential to be used").
func (p *Portal) handleSubmit(w http.ResponseWriter, r *http.Request, sess *Session) {
	if p.cfg.GRAMAddr == "" {
		httpError(w, http.StatusNotImplemented, "no job manager configured")
		return
	}
	if err := r.ParseForm(); err != nil {
		httpError(w, http.StatusBadRequest, "malformed form")
		return
	}
	executable := r.PostFormValue("executable")
	if executable == "" {
		httpError(w, http.StatusBadRequest, "executable required")
		return
	}
	var args []string
	if raw := strings.TrimSpace(r.PostFormValue("args")); raw != "" {
		args = strings.Fields(raw)
	}
	delegate := r.PostFormValue("delegate") == "1"
	client := p.gramClient(sess)
	defer client.Close()
	st, err := client.Submit(executable, args, delegate)
	if err != nil {
		httpError(w, http.StatusBadGateway, err.Error())
		return
	}
	core.Audit(p.cfg.Logger, "submit %q for %q -> %q", executable, sess.Username, st.ID)
	httpJSON(w, st)
}

func (p *Portal) handleJobs(w http.ResponseWriter, r *http.Request, sess *Session) {
	if p.cfg.GRAMAddr == "" {
		httpError(w, http.StatusNotImplemented, "no job manager configured")
		return
	}
	client := p.gramClient(sess)
	defer client.Close()
	if id := r.URL.Query().Get("id"); id != "" {
		st, err := client.Status(id)
		if err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		httpJSON(w, st)
		return
	}
	jobs, err := client.List()
	if err != nil {
		httpError(w, http.StatusBadGateway, err.Error())
		return
	}
	httpJSON(w, jobs)
}

func (p *Portal) handleStore(w http.ResponseWriter, r *http.Request, sess *Session) {
	if p.cfg.MSSAddr == "" {
		httpError(w, http.StatusNotImplemented, "no storage configured")
		return
	}
	if err := r.ParseForm(); err != nil {
		httpError(w, http.StatusBadRequest, "malformed form")
		return
	}
	name := r.PostFormValue("name")
	if name == "" {
		httpError(w, http.StatusBadRequest, "name required")
		return
	}
	client := p.mssClient(sess)
	defer client.Close()
	if err := client.Put(name, []byte(r.PostFormValue("data"))); err != nil {
		httpError(w, http.StatusBadGateway, err.Error())
		return
	}
	httpJSON(w, map[string]bool{"ok": true})
}

func (p *Portal) handleFiles(w http.ResponseWriter, r *http.Request, sess *Session) {
	if p.cfg.MSSAddr == "" {
		httpError(w, http.StatusNotImplemented, "no storage configured")
		return
	}
	client := p.mssClient(sess)
	defer client.Close()
	names, err := client.List()
	if err != nil {
		httpError(w, http.StatusBadGateway, err.Error())
		return
	}
	if names == nil {
		names = []string{}
	}
	httpJSON(w, names)
}

func (p *Portal) handleFileGet(w http.ResponseWriter, r *http.Request, sess *Session) {
	if p.cfg.MSSAddr == "" {
		httpError(w, http.StatusNotImplemented, "no storage configured")
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		httpError(w, http.StatusBadRequest, "name required")
		return
	}
	client := p.mssClient(sess)
	defer client.Close()
	data, err := client.Get(name)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// FormatMediaType quotes or RFC 2231-encodes the stored name: whatever
	// bytes it holds, the header stays one header with one parameter.
	w.Header().Set("Content-Disposition", mime.FormatMediaType("attachment", map[string]string{"filename": name}))
	w.Write(data)
}

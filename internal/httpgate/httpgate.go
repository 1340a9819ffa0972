// Package httpgate is the paper's §6.4 future-work item: "The current
// MyProxy client-server protocol was quickly designed as a prototype. We
// plan to investigate using more standard protocols. One option would be
// HTTP for compatibility with standard web-oriented libraries."
//
// It is a second codec in front of core.Service: every handler decodes a
// JSON request, makes the one service call the wire handlers make, and
// encodes the material or the verdict that comes back (DESIGN.md §17).
// Clients authenticate with TLS client certificates (proxy chains included
// — verification is the same proxy-aware validator), and delegation is
// reshaped to fit HTTP's single round trip: the client sends a
// certification request in the GET body and receives the signed chain in
// the response, so private keys still never cross the wire.
package httpgate

import (
	"crypto/tls"
	"encoding/json"
	"encoding/pem"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/credstore"
	"repro/internal/protocol"
	"repro/internal/proxy"
)

// Gateway serves the HTTP frontend for a repository configuration. It
// shares the store (and therefore all credentials) with any protocol
// frontend built from the same ServerConfig.
type Gateway struct {
	cfg core.ServerConfig
	svc *core.Service
	mux *http.ServeMux
	// verifyCache memoizes client chain verifications across requests —
	// the same portal chain authenticates every call, and net/http opens
	// fresh TLS connections often enough that re-walking it is measurable.
	verifyCache *proxy.VerifyCache
}

// New builds a gateway from a repository configuration. The same
// validation rules as core.NewServer apply.
func New(cfg core.ServerConfig) (*Gateway, error) {
	svc, err := core.NewService(cfg)
	if err != nil {
		return nil, err
	}
	verifyCache := cfg.VerifyCache
	if verifyCache == nil {
		verifyCache = proxy.NewVerifyCache(0)
	}
	g := &Gateway{cfg: cfg, svc: svc, mux: http.NewServeMux(), verifyCache: verifyCache}
	g.mux.HandleFunc("POST /v1/get", g.requireIdentity(g.handleGet))
	g.mux.HandleFunc("POST /v1/info", g.requireIdentity(g.handleInfo))
	g.mux.HandleFunc("POST /v1/store", g.requireIdentity(g.handleStore))
	g.mux.HandleFunc("POST /v1/retrieve", g.requireIdentity(g.handleRetrieve))
	g.mux.HandleFunc("POST /v1/destroy", g.requireIdentity(g.handleDestroy))
	return g, nil
}

// Store exposes the backing store so a gateway can be co-hosted with a
// core.Server over the same credentials.
func (g *Gateway) Store() credstore.Store { return g.svc.Backend() }

// Serve runs HTTPS with client-certificate authentication on ln.
func (g *Gateway) Serve(ln net.Listener) error {
	cert := tls.Certificate{PrivateKey: g.cfg.Credential.PrivateKey}
	for _, c := range g.cfg.Credential.CertChain() {
		cert.Certificate = append(cert.Certificate, c.Raw)
	}
	srv := &http.Server{
		Handler:           g.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          log.New(io.Discard, "", 0),
		TLSConfig: &tls.Config{
			Certificates: []tls.Certificate{cert},
			MinVersion:   tls.VersionTLS12,
			// Client chains may contain proxy certificates, which the
			// stdlib verifier rejects; require a chain here and verify it
			// with the proxy-aware validator per request.
			ClientAuth: tls.RequireAnyClientCert,
		},
	}
	return srv.ServeTLS(ln, "", "")
}

func (g *Gateway) now() time.Time {
	if g.cfg.Now != nil {
		return g.cfg.Now()
	}
	return time.Now()
}

// identityHandler receives the authenticated Grid identity.
type identityHandler func(w http.ResponseWriter, r *http.Request, peer string)

// requireIdentity verifies the TLS client chain with the proxy-aware
// validator before admitting the request.
func (g *Gateway) requireIdentity(h identityHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.TLS == nil || len(r.TLS.PeerCertificates) == 0 {
			writeErr(w, http.StatusUnauthorized, "client certificate required")
			return
		}
		res, err := g.verifyCache.Verify(r.TLS.PeerCertificates, proxy.VerifyOptions{
			Roots:       g.cfg.Roots,
			MaxDepth:    g.cfg.MaxChainDepth,
			IsRevoked:   g.cfg.IsRevoked,
			CurrentTime: g.now(),
		})
		if err != nil {
			g.svc.Stats().AuthFailures.Add(1)
			core.Audit(g.cfg.Logger, "httpgate: reject %q: %v", r.RemoteAddr, err)
			writeErr(w, http.StatusUnauthorized, "client chain rejected")
			return
		}
		h(w, r, res.IdentityString())
	}
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// refuse encodes a service verdict: the class picks the status, the body
// carries the verdict's public text (and the OTP challenge, when there is
// one). A verdict that is a fault joins the error count, as a failed
// exchange does on the wire.
func (g *Gateway) refuse(w http.ResponseWriter, v *core.Verdict) {
	if v.Err != nil {
		g.svc.Stats().Errors.Add(1)
		core.Audit(g.cfg.Logger, "httpgate: %v", v.Err)
	}
	status := http.StatusInternalServerError
	switch v.Kind {
	case core.VerdictDenied, core.VerdictBadPassphrase, core.VerdictOTPExhausted:
		status = http.StatusForbidden
	case core.VerdictNotFound:
		status = http.StatusNotFound
	case core.VerdictExpired:
		status = http.StatusGone
	case core.VerdictOTPRequired:
		status = http.StatusUnauthorized
	case core.VerdictConflict:
		status = http.StatusConflict
	case core.VerdictInvalid:
		status = http.StatusBadRequest
	case core.VerdictInternal:
	}
	body := map[string]string{"error": v.Public}
	if v.Challenge != "" {
		body["challenge"] = v.Challenge
	}
	writeJSON(w, status, body)
}

// decode reads a JSON request body, writing a 400 and reporting false when
// it is malformed.
func decode(w http.ResponseWriter, r *http.Request, req interface{}) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(req); err != nil {
		writeErr(w, http.StatusBadRequest, "malformed request body")
		return false
	}
	return true
}

// checkNames validates the wire-supplied username and (optional)
// credential name before any backend call runs on them, writing a 400 and
// reporting false on a charset or length violation. This mirrors
// protocol.ParseRequest's boundary check for the JSON transport.
func checkNames(w http.ResponseWriter, username, credName string) bool {
	if err := protocol.ValidateUsername(username); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return false
	}
	if credName != "" {
		if err := protocol.ValidateCredName(credName); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return false
		}
	}
	return true
}

// GetRequest is the body of POST /v1/get: HTTP-shaped Figure 2. The CSR
// carries the public key the client wants certified; the response carries
// the signed proxy chain, so the whole delegation is one round trip.
type GetRequest struct {
	Username        string `json:"username"`
	Passphrase      string `json:"passphrase"`
	LifetimeSeconds int64  `json:"lifetime_seconds,omitempty"`
	CredName        string `json:"cred_name,omitempty"`
	TaskHint        string `json:"task_hint,omitempty"`
	OTP             string `json:"otp,omitempty"`
	// CSRPEM is a PEM CERTIFICATE REQUEST for the key the client
	// generated locally.
	CSRPEM string `json:"csr_pem"`
}

// GetResponse carries the delegated chain, leaf first.
type GetResponse struct {
	ChainPEM string `json:"chain_pem"`
}

func (g *Gateway) handleGet(w http.ResponseWriter, r *http.Request, peer string) {
	var req GetRequest
	if !decode(w, r, &req) || !checkNames(w, req.Username, req.CredName) {
		return
	}
	block, _ := pem.Decode([]byte(req.CSRPEM))
	if block == nil || block.Type != "CERTIFICATE REQUEST" {
		writeErr(w, http.StatusBadRequest, "csr_pem must be a CERTIFICATE REQUEST block")
		return
	}
	chain, v := g.svc.Get(peer, &protocol.Request{
		Username:   req.Username,
		Passphrase: req.Passphrase,
		Lifetime:   time.Duration(req.LifetimeSeconds) * time.Second,
		CredName:   req.CredName,
		TaskHint:   req.TaskHint,
		OTP:        req.OTP,
	}, nil, func() ([]byte, error) { return block.Bytes, nil })
	if v != nil {
		g.refuse(w, v)
		return
	}
	writeJSON(w, http.StatusOK, GetResponse{ChainPEM: string(chain)})
}

// InfoRequest is the body of POST /v1/info. The pass phrase travels in the
// body like every other operation's, never in the URL, which access logs,
// proxies and browser histories keep.
type InfoRequest struct {
	Username   string `json:"username"`
	Passphrase string `json:"passphrase"`
}

// InfoResponse mirrors the INFO command.
type InfoResponse struct {
	Credentials []InfoEntry `json:"credentials"`
}

// InfoEntry is one stored credential description.
type InfoEntry struct {
	Name          string    `json:"name"`
	Owner         string    `json:"owner"`
	Description   string    `json:"description,omitempty"`
	NotBefore     time.Time `json:"not_before"`
	NotAfter      time.Time `json:"not_after"`
	MaxDelegation string    `json:"max_delegation,omitempty"`
	Retrievers    string    `json:"retrievers,omitempty"`
	TaskTags      []string  `json:"task_tags,omitempty"`
	Kind          string    `json:"kind"`
}

func (g *Gateway) handleInfo(w http.ResponseWriter, r *http.Request, peer string) {
	var req InfoRequest
	if !decode(w, r, &req) || !checkNames(w, req.Username, "") {
		return
	}
	entries, v := g.svc.Info(peer, &protocol.Request{Username: req.Username, Passphrase: req.Passphrase})
	if v != nil {
		g.refuse(w, v)
		return
	}
	resp := InfoResponse{Credentials: make([]InfoEntry, len(entries))}
	for i, e := range entries {
		resp.Credentials[i] = InfoEntry{
			Name: e.Name, Owner: e.Owner, Description: e.Description,
			NotBefore: e.NotBefore.UTC(), NotAfter: e.NotAfter.UTC(),
			MaxDelegation: durString(e.MaxDelegation), Retrievers: e.Retrievers,
			TaskTags: e.TaskTags, Kind: e.Kind.String(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func durString(d time.Duration) string {
	if d == 0 {
		return ""
	}
	return d.String()
}

// StoreRequest deposits a client-sealed blob (§6.1 over HTTP).
type StoreRequest struct {
	Username    string   `json:"username"`
	Passphrase  string   `json:"passphrase"`
	CredName    string   `json:"cred_name,omitempty"`
	Description string   `json:"description,omitempty"`
	Retrievers  string   `json:"retrievers,omitempty"`
	TaskTags    []string `json:"task_tags,omitempty"`
	// Blob is the pki.SealBytes container, base64 via encoding/json.
	Blob []byte `json:"blob"`
}

func (g *Gateway) handleStore(w http.ResponseWriter, r *http.Request, peer string) {
	var req StoreRequest
	if !decode(w, r, &req) || !checkNames(w, req.Username, req.CredName) {
		return
	}
	if len(req.Blob) == 0 {
		writeErr(w, http.StatusBadRequest, "blob required")
		return
	}
	if v := g.svc.Store(peer, &protocol.Request{
		Username:    req.Username,
		Passphrase:  req.Passphrase,
		CredName:    req.CredName,
		Description: req.Description,
		Retrievers:  req.Retrievers,
		TaskTags:    req.TaskTags,
	}, func() ([]byte, error) { return req.Blob, nil }); v != nil {
		g.refuse(w, v)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// RetrieveRequest fetches a stored blob.
type RetrieveRequest struct {
	Username   string `json:"username"`
	Passphrase string `json:"passphrase"`
	CredName   string `json:"cred_name,omitempty"`
	TaskHint   string `json:"task_hint,omitempty"`
	OTP        string `json:"otp,omitempty"`
}

func (g *Gateway) handleRetrieve(w http.ResponseWriter, r *http.Request, peer string) {
	var req RetrieveRequest
	if !decode(w, r, &req) || !checkNames(w, req.Username, req.CredName) {
		return
	}
	blob, v := g.svc.Retrieve(peer, &protocol.Request{
		Username:   req.Username,
		Passphrase: req.Passphrase,
		CredName:   req.CredName,
		TaskHint:   req.TaskHint,
		OTP:        req.OTP,
	})
	if v != nil {
		g.refuse(w, v)
		return
	}
	writeJSON(w, http.StatusOK, map[string][]byte{"blob": blob})
}

// DestroyRequest removes a credential.
type DestroyRequest struct {
	Username   string `json:"username"`
	Passphrase string `json:"passphrase"`
	CredName   string `json:"cred_name,omitempty"`
}

func (g *Gateway) handleDestroy(w http.ResponseWriter, r *http.Request, peer string) {
	var req DestroyRequest
	if !decode(w, r, &req) || !checkNames(w, req.Username, req.CredName) {
		return
	}
	if v := g.svc.Destroy(peer, &protocol.Request{
		Username: req.Username, Passphrase: req.Passphrase, CredName: req.CredName,
	}); v != nil {
		g.refuse(w, v)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

package core

import (
	"crypto/sha256"
	"crypto/x509"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/credstore"
	"repro/internal/gsi"
	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/protocol"
	"repro/internal/proxy"
)

// Service is the repository itself, independent of the transport that
// carried a request (paper §6.4: the protocol is a front-end detail). It
// makes every decision of every operation — server ACL, OTP gate, wallet
// selection, owner and per-credential retriever checks, expiry, pass
// phrase, lifetime clamp, the store mutation, the counter and the audit
// line — in one call. A front-end (the MYPROXYv2 handlers in this package,
// internal/httpgate) authenticates the peer, decodes a request into a
// protocol.Request, makes that call, and encodes what comes back: the
// material to ship, or a Verdict.
type Service struct {
	cfg   ServerConfig
	stats Stats
	// isRevoked holds the swappable revocation hook (Server.SetRevoked),
	// applied to deposited chains as well as to connecting peers.
	isRevoked atomic.Value // of func(*x509.Certificate) bool
}

// NewService validates the configuration and builds the repository service.
func NewService(cfg ServerConfig) (*Service, error) {
	if cfg.Credential == nil || cfg.Credential.Certificate == nil || cfg.Credential.PrivateKey == nil {
		return nil, errors.New("core: server requires a host credential")
	}
	if cfg.Roots == nil {
		return nil, errors.New("core: server requires trust roots")
	}
	if cfg.Store == nil {
		cfg.Store = credstore.NewMemStore()
	}
	s := &Service{cfg: cfg}
	s.isRevoked.Store(cfg.IsRevoked)
	return s, nil
}

// Backend exposes the backing store (admin tooling, co-hosted front-ends).
func (s *Service) Backend() credstore.Backend { return s.cfg.Store }

// Stats exposes the operation counters, filled the same way whichever
// front-end carried the request.
func (s *Service) Stats() *Stats { return &s.stats }

// revoked consults the revocation hook current at the time of the call.
func (s *Service) revoked(c *x509.Certificate) bool {
	fn, _ := s.isRevoked.Load().(func(*x509.Certificate) bool)
	return fn != nil && fn(c)
}

// VerdictKind classes a refusal. Front-ends map the class onto their own
// encoding (DESIGN.md §17: wire response code, HTTP status);
// httpgate.TestRefuseMapsEveryVerdictKind reads this declaration and fails
// until the gateway and §17 both map a new kind.
type VerdictKind int

const (
	VerdictDenied        VerdictKind = iota + 1 // an ACL, retriever list or owner check said no
	VerdictNotFound                             // no credential matches the request
	VerdictBadPassphrase                        // wrong pass phrase or one-time password
	VerdictExpired                              // the stored credential has expired
	VerdictOTPRequired                          // answer Challenge and ask again
	VerdictOTPExhausted                         // the user's OTP chain is used up
	VerdictConflict                             // the credential exists but not in a state the operation accepts
	VerdictInvalid                              // the request itself is unacceptable
	VerdictInternal                             // the repository or the transport failed
)

// Verdict is a refused operation.
type Verdict struct {
	Kind VerdictKind
	// Public is the text the client may see — deliberately generic for
	// authentication failures to avoid oracle behavior; detail goes to the
	// audit log. Empty when the transport failed and nothing can be said.
	Public string
	// Challenge is the OTP challenge to answer (VerdictOTPRequired).
	Challenge string
	// Err is set when the refusal is a fault rather than a decision; the
	// front-end hands it to its connection accounting (Stats.Errors).
	Err error
}

const (
	deniedMsg    = "authorization failed"
	notFoundMsg  = "no credentials found for user"
	badPhraseMsg = "bad pass phrase or username"
)

// refuse records a decision against peer: audit line, auth_failures.
func (s *Service) refuse(kind VerdictKind, peer, public, format string, args ...interface{}) *Verdict {
	s.cfg.logf("DENIED %s: %s", peer, fmt.Sprintf(format, args...))
	s.stats.AuthFailures.Add(1)
	return &Verdict{Kind: kind, Public: public}
}

// dropKey ends a plaintext private key's life: its secret components are
// zeroed in place before the reference goes, as unsealCache.wipe does for
// session-cached keys — a dropped reference alone leaves them on the heap.
func dropKey(cred *pki.Credential) {
	pki.WipeSigner(cred.PrivateKey)
	cred.PrivateKey = nil
}

func fault(public string, err error) *Verdict {
	return &Verdict{Kind: VerdictInternal, Public: public, Err: err}
}

// admit is the server-wide ACL gate (paper §5.1): peer must match one of
// the lists the operation accepts. An unconfigured list admits nobody.
func (s *Service) admit(op, peer, lists string, acls ...*policy.ACL) *Verdict {
	for _, acl := range acls {
		if acl != nil && acl.Allows(peer) {
			return nil
		}
	}
	return s.refuse(VerdictDenied, peer, deniedMsg, "%s by %s not in %s", op, peer, lists)
}

// otpGate is the one-time-password gate (paper §6.3): if the user is
// enrolled, a valid, fresh OTP response is required in addition to the pass
// phrase (the pass phrase still unseals the stored key; the OTP defeats
// replay of a captured exchange, §5.1).
func (s *Service) otpGate(peer string, req *protocol.Request) *Verdict {
	if s.cfg.OTP == nil || !s.cfg.OTP.Enabled(req.Username) {
		return nil
	}
	if req.OTP == "" {
		challenge, ok := s.cfg.OTP.Challenge(req.Username)
		if !ok {
			return s.refuse(VerdictOTPExhausted, peer, "one-time password chain exhausted", "OTP exhausted for %q", req.Username)
		}
		s.stats.AuthFailures.Add(1)
		return &Verdict{Kind: VerdictOTPRequired, Public: "one-time password required", Challenge: challenge}
	}
	if err := s.cfg.OTP.Verify(req.Username, req.OTP); err != nil {
		return s.refuse(VerdictBadPassphrase, peer, badPhraseMsg, "OTP verify for %q: %v", req.Username, err)
	}
	return nil
}

func (s *Service) selected(op, peer string, req *protocol.Request) (*credstore.Entry, *Verdict) {
	entry, err := s.selectEntry(req.Username, req.CredName, req.TaskHint)
	if err != nil {
		return nil, s.refuse(VerdictNotFound, peer, notFoundMsg, "%s %q/%q: %v", op, req.Username, req.CredName, err)
	}
	return entry, nil
}

// retrievable runs what GET and RETRIEVE share: the retriever ACL, the OTP
// gate, wallet selection, the refusal of a renewable entry, and the
// per-credential retriever list, which composes with the server ACL. blob
// asks for a client-sealed deposit (RETRIEVE); without it the entry must be
// one the repository can delegate from (GET).
//
// A renewable entry is sealed under the empty pass phrase (myproxy-init
// -n), so a GET could open it without knowing anything: only RENEWAL, with
// its renewer ACL and owner match, may delegate from it.
func (s *Service) retrievable(op, peer string, req *protocol.Request, blob bool) (*credstore.Entry, *Verdict) {
	if v := s.admit(op, peer, "authorized_retrievers", s.cfg.AuthorizedRetrievers); v != nil {
		return nil, v
	}
	if v := s.otpGate(peer, req); v != nil {
		return nil, v
	}
	entry, v := s.selected(op, peer, req)
	if v != nil {
		return nil, v
	}
	if blob != (entry.Kind == credstore.KindStored) {
		public := "credential is not retrievable; use get-delegation"
		if !blob {
			public = "credential is stored, not delegated; use retrieve"
		}
		return nil, s.refuse(VerdictConflict, peer, public, "%s %q/%q is %s", op, req.Username, entry.Name, entry.Kind)
	}
	if entry.Renewable {
		return nil, s.refuse(VerdictDenied, peer, deniedMsg, "%s %q/%q is renewable: only RENEWAL delegates it", op, req.Username, entry.Name)
	}
	if entry.Retrievers != "" && !policy.MatchDN(entry.Retrievers, peer) {
		return nil, s.refuse(VerdictDenied, peer, deniedMsg, "%s %q/%q: %s not in credential retriever list", op, req.Username, entry.Name, peer)
	}
	return entry, nil
}

func (s *Service) unexpired(op, peer string, req *protocol.Request, entry *credstore.Entry) *Verdict {
	if entry.Expired(s.cfg.now()) {
		return s.refuse(VerdictExpired, peer, "stored credential has expired", "%s %q/%q expired at %v", op, req.Username, entry.Name, entry.NotAfter)
	}
	return nil
}

// owned looks up the exact credential a DESTROY or CHANGE_PASSPHRASE names;
// only its owner may touch it.
func (s *Service) owned(op, peer string, req *protocol.Request) (*credstore.Entry, *Verdict) {
	entry, err := s.cfg.Store.Get(req.Username, req.CredName)
	if err != nil {
		return nil, s.refuse(VerdictNotFound, peer, notFoundMsg, "%s %q/%q: %v", op, req.Username, req.CredName, err)
	}
	if entry.Owner != peer {
		return nil, s.refuse(VerdictDenied, peer, deniedMsg, "%s %q/%q by non-owner %s", op, req.Username, req.CredName, peer)
	}
	return entry, nil
}

// overwritable: replacing an existing credential requires owning it.
func (s *Service) overwritable(op, peer string, req *protocol.Request) *Verdict {
	if prev, err := s.cfg.Store.Get(req.Username, req.CredName); err == nil && prev.Owner != peer {
		return s.refuse(VerdictConflict, peer, "credential exists and is owned by another identity",
			"%s overwrite of %q/%q by non-owner %s", op, req.Username, req.CredName, peer)
	}
	return nil
}

// strong applies the pass-phrase quality policy. Violations are safe (and
// useful) to surface.
func (s *Service) strong(peer, what, phrase string) *Verdict {
	if err := s.cfg.Passphrase.Check(phrase); err != nil {
		s.cfg.logf("DENIED %s: weak %s: %v", peer, what, err)
		return &Verdict{Kind: VerdictInvalid, Public: what + " rejected: " + err.Error()}
	}
	return nil
}

// Put is myproxy-init (paper Fig. 1). receive runs the incoming delegation
// on the caller's channel once the request has been accepted — the client
// is the exporter, so the key pair is generated on this side, to spec, and
// the private key never crosses the wire.
func (s *Service) Put(peer string, req *protocol.Request, receive func(pki.KeySpec) (*pki.Credential, error)) *Verdict {
	if v := s.admit("PUT", peer, "accepted_credentials", s.cfg.AcceptedCredentials); v != nil {
		return v
	}
	// Renewable credentials (paper §6.6) are deposited without a pass
	// phrase so authorized renewers can refresh long-running jobs; they
	// are sealed under the empty pass phrase (the myproxy-init -n
	// trade-off). Everything else must pass the quality policy.
	if req.Renewable {
		if req.Passphrase != "" {
			return &Verdict{Kind: VerdictInvalid, Public: "renewable credentials take no pass phrase"}
		}
	} else if v := s.strong(peer, "pass phrase", req.Passphrase); v != nil {
		return v
	}
	// The key pair is generated with the configured algorithm unless the
	// client requests another via KEY_ALG (keyspec negotiation,
	// PROTOCOL.md). An unparseable value is refused before any state
	// changes.
	spec := pki.KeySpec{Algorithm: s.cfg.DelegationKeyAlgorithm, Bits: s.cfg.DelegationKeyBits}
	if req.KeyAlg != "" {
		alg, err := pki.ParseKeyAlgorithm(req.KeyAlg)
		if err != nil {
			s.cfg.logf("DENIED %s: %v", peer, err)
			return &Verdict{Kind: VerdictInvalid, Public: "unsupported key algorithm " + strconv.Quote(req.KeyAlg)}
		}
		spec.Algorithm = alg
	}
	lifetime := s.cfg.Lifetimes.ClampStored(req.Lifetime)
	cred, err := receive(spec)
	if err != nil {
		return fault("delegation failed: "+err.Error(), fmt.Errorf("PUT delegation from %s: %w", peer, err))
	}
	// The delegated chain must carry the authenticated peer's identity:
	// clients may only deposit their own credentials. The chain's leaf is
	// freshly minted, so this verification is never cache-served.
	res, err := proxy.Verify(cred.CertChain(), proxy.VerifyOptions{
		Roots: s.cfg.Roots, IsRevoked: s.revoked,
	})
	if err != nil {
		return &Verdict{Kind: VerdictInvalid, Public: "delegated chain invalid: " + err.Error(), Err: err}
	}
	if res.IdentityString() != peer {
		return &Verdict{Kind: VerdictInvalid, Public: "delegated identity does not match authenticated identity",
			Err: fmt.Errorf("PUT identity mismatch: chain %s, peer %s", res.IdentityString(), peer)}
	}
	// Enforce the stored-lifetime policy: the client signs the proxy, so
	// the server verifies rather than dictates (slack for clock skew).
	if remaining := cred.TimeLeftAt(s.cfg.now()); remaining > lifetime+10*time.Minute {
		return &Verdict{Kind: VerdictInvalid,
			Public: "delegated lifetime " + remaining.Round(time.Minute).String() + " exceeds server maximum " + lifetime.String(),
			Err:    fmt.Errorf("PUT lifetime %v exceeds policy %v", remaining, lifetime)}
	}
	if v := s.overwritable("PUT", peer, req); v != nil {
		return v
	}
	entry := &credstore.Entry{
		Username:      req.Username,
		Name:          req.CredName,
		Owner:         peer,
		Description:   req.Description,
		Retrievers:    req.Retrievers,
		MaxDelegation: req.MaxDelegation,
		TaskTags:      req.TaskTags,
		Renewable:     req.Renewable,
		CreatedAt:     s.cfg.now(),
	}
	passphrase := pki.Transient([]byte(req.Passphrase))
	defer pki.WipeBytes(passphrase)
	if err := credstore.SealDelegated(entry, cred, passphrase, s.cfg.KDFIterations); err != nil {
		return fault("could not seal credential", err)
	}
	// Wipe and drop the plaintext key immediately (paper §5.1): the entry
	// now holds only the sealed form.
	dropKey(cred)
	if err := s.cfg.Store.Put(entry); err != nil {
		return fault("could not store credential", err)
	}
	s.stats.Puts.Add(1)
	s.cfg.logf("STORED %q/%q for %s until %v", req.Username, req.CredName, peer, entry.NotAfter)
	return nil
}

// Get is myproxy-get-delegation (paper Fig. 2), or — when req.Renewal is
// set — the §6.6 renewal. csr yields the client's certification request
// once the request has been authorized (the client generates the key); the
// result is the PEM chain to ship. sc, when non-nil, is the calling
// session's unseal cache.
func (s *Service) Get(peer string, req *protocol.Request, sc *unsealCache, csr func() ([]byte, error)) ([]byte, *Verdict) {
	if req.Renewal {
		return s.renew(peer, req, csr)
	}
	entry, v := s.retrievable("GET", peer, req, false)
	if v == nil {
		v = s.unexpired("GET", peer, req, entry)
	}
	if v != nil {
		return nil, v
	}
	// Within a session, repeated gets of the same sealed credential under
	// the same pass phrase skip the KDF via the session's unseal cache.
	// One mutable copy of the pass phrase serves the cache probe, the
	// unseal and the cache fill, and is wiped when the call returns.
	passphrase := pki.Transient([]byte(req.Passphrase))
	defer pki.WipeBytes(passphrase)
	var key [sha256.Size]byte
	if sc != nil {
		key = unsealKey(entry, passphrase)
	}
	issuer := sc.lookup(key)
	cached := issuer != nil
	if !cached {
		var err error
		issuer, err = credstore.UnsealIssuer(entry, passphrase)
		if err != nil {
			if errors.Is(err, credstore.ErrBadPassphrase) {
				return nil, s.refuse(VerdictBadPassphrase, peer, badPhraseMsg, "GET %q/%q: bad pass phrase", req.Username, entry.Name)
			}
			return nil, fault("could not open stored credential", err)
		}
		cached = sc.add(key, issuer)
	}
	chain, v := s.delegate(peer, req, entry, issuer, csr)
	// Wipe and drop the unsealed key (paper §5.1: plaintext exists only
	// while in active use); a session-cached key goes when the session ends.
	if !cached {
		dropKey(issuer.Credential)
	}
	return chain, v
}

// renew is the §6.6 path: a long-running job, authenticating with its
// current (soon-to-expire) proxy of the user's identity, obtains a fresh
// delegation without a pass phrase. Authorization is the renewer ACL plus
// an exact identity match with the stored credential's owner.
func (s *Service) renew(peer string, req *protocol.Request, csr func() ([]byte, error)) ([]byte, *Verdict) {
	if v := s.admit("RENEWAL", peer, "authorized_renewers", s.cfg.AuthorizedRenewers); v != nil {
		return nil, v
	}
	entry, v := s.selected("RENEWAL", peer, req)
	if v != nil {
		return nil, v
	}
	if !entry.Renewable {
		return nil, s.refuse(VerdictDenied, peer, deniedMsg, "RENEWAL %q/%q: credential not renewable", req.Username, entry.Name)
	}
	if entry.Owner != peer {
		return nil, s.refuse(VerdictDenied, peer, deniedMsg, "RENEWAL %q/%q: requester %s is not the credential identity %s",
			req.Username, entry.Name, peer, entry.Owner)
	}
	if v := s.unexpired("RENEWAL", peer, req, entry); v != nil {
		return nil, v
	}
	issuer, err := credstore.UnsealIssuer(entry, nil)
	if err != nil {
		return nil, fault("could not open stored credential", err)
	}
	chain, v := s.delegate(peer, req, entry, issuer, csr)
	dropKey(issuer.Credential)
	return chain, v
}

// delegate is the tail GET and renewal share: clamp the lifetime, obtain
// the CSR, sign, count, audit. The repository is the exporter here.
func (s *Service) delegate(peer string, req *protocol.Request, entry *credstore.Entry, issuer *credstore.Issuer, csr func() ([]byte, error)) ([]byte, *Verdict) {
	op, done := "GET", "DELEGATED"
	if req.Renewal {
		op, done = "RENEWAL", "RENEWED"
	}
	lifetime := s.cfg.Lifetimes.ClampDelegatedWithRestriction(req.Lifetime, entry.MaxDelegation)
	var chain []byte
	csrDER, err := csr()
	if err != nil {
		err = fmt.Errorf("gsi: receive CSR: %w", err)
	} else {
		_, chain, err = gsi.SignCSR(csrDER, issuer.Credential, issuer.ChainPEM, proxy.Options{Type: s.cfg.DelegationProxyType, Lifetime: lifetime})
	}
	if err != nil {
		v := fault("delegation failed: "+err.Error(), fmt.Errorf("%s delegation to %s: %w", op, peer, err))
		if errors.Is(err, gsi.ErrBadCSR) {
			v.Kind = VerdictInvalid
		}
		return nil, v
	}
	s.stats.Gets.Add(1)
	s.cfg.logf("%s %q/%q to %s for %v", done, req.Username, entry.Name, peer, lifetime)
	return chain, nil
}

// Info is myproxy-info: the user's credentials that the pass phrase
// authenticates. Both depositors and retrievers may inspect.
func (s *Service) Info(peer string, req *protocol.Request) ([]*credstore.Entry, *Verdict) {
	if v := s.admit("INFO", peer, "accepted_credentials or authorized_retrievers",
		s.cfg.AcceptedCredentials, s.cfg.AuthorizedRetrievers); v != nil {
		return nil, v
	}
	entries, err := s.cfg.Store.List(req.Username)
	if err != nil {
		return nil, fault("store error", err)
	}
	passphrase := pki.Transient([]byte(req.Passphrase))
	defer pki.WipeBytes(passphrase)
	matched := entries[:0]
	for _, e := range entries {
		if e.CheckPassphrase(passphrase) == nil { // authenticate per entry; skip the rest silently
			matched = append(matched, e)
		}
	}
	if len(matched) == 0 {
		return nil, s.refuse(VerdictNotFound, peer, notFoundMsg, "INFO %q: no entries matched pass phrase", req.Username)
	}
	s.stats.Infos.Add(1)
	return matched, nil
}

// Destroy is myproxy-destroy (paper §4.1): only the owner, with the pass
// phrase, may destroy.
func (s *Service) Destroy(peer string, req *protocol.Request) *Verdict {
	entry, v := s.owned("DESTROY", peer, req)
	if v != nil {
		return v
	}
	passphrase := pki.Transient([]byte(req.Passphrase))
	defer pki.WipeBytes(passphrase)
	if err := entry.CheckPassphrase(passphrase); err != nil {
		return s.refuse(VerdictBadPassphrase, peer, badPhraseMsg, "DESTROY %q/%q: bad pass phrase", req.Username, req.CredName)
	}
	if err := s.cfg.Store.Delete(req.Username, req.CredName); err != nil {
		return fault("store error", err)
	}
	s.stats.Destroys.Add(1)
	s.cfg.logf("DESTROYED %q/%q by %s", req.Username, req.CredName, peer)
	return nil
}

// ChangePassphrase is myproxy-change-passphrase: the owner re-seals a
// delegated credential under req.NewPassphrase.
func (s *Service) ChangePassphrase(peer string, req *protocol.Request) *Verdict {
	entry, v := s.owned("CHANGE_PASSPHRASE", peer, req)
	if v == nil {
		v = s.strong(peer, "new pass phrase", req.NewPassphrase)
	}
	if v != nil {
		return v
	}
	if entry.Kind == credstore.KindStored {
		// The blob is sealed client-side; the server cannot re-encrypt it
		// (by design — it never sees the plaintext).
		return &Verdict{Kind: VerdictConflict,
			Public: "stored credentials are sealed client-side; re-upload with myproxy-store to change the pass phrase"}
	}
	oldPass, newPass := pki.Transient([]byte(req.Passphrase)), pki.Transient([]byte(req.NewPassphrase))
	defer pki.WipeBytes(oldPass)
	defer pki.WipeBytes(newPass)
	if err := credstore.Reseal(entry, oldPass, newPass, s.cfg.KDFIterations); err != nil {
		if errors.Is(err, credstore.ErrBadPassphrase) {
			return s.refuse(VerdictBadPassphrase, peer, badPhraseMsg, "CHANGE_PASSPHRASE %q/%q: bad pass phrase", req.Username, req.CredName)
		}
		return fault("reseal failed", err)
	}
	if err := s.cfg.Store.Put(entry); err != nil {
		return fault("store error", err)
	}
	s.stats.PassphraseChange.Add(1)
	s.cfg.logf("RESEALED %q/%q by %s", req.Username, req.CredName, peer)
	return nil
}

// Store is myproxy-store (paper §6.1): deposit a client-sealed long-term
// credential. blob yields the opaque container once the request has been
// accepted.
func (s *Service) Store(peer string, req *protocol.Request, blob func() ([]byte, error)) *Verdict {
	v := s.admit("STORE", peer, "accepted_credentials", s.cfg.AcceptedCredentials)
	if v == nil {
		v = s.strong(peer, "pass phrase", req.Passphrase)
	}
	if v == nil {
		v = s.overwritable("STORE", peer, req)
	}
	if v != nil {
		return v
	}
	sealed, err := blob()
	if err != nil {
		return fault("", fmt.Errorf("STORE blob from %s: %w", peer, err))
	}
	if len(sealed) == 0 {
		return &Verdict{Kind: VerdictInvalid, Public: "empty credential blob", Err: errors.New("empty STORE blob")}
	}
	entry := &credstore.Entry{
		Username:      req.Username,
		Name:          req.CredName,
		Owner:         peer,
		Kind:          credstore.KindStored,
		SealedKey:     sealed,
		Description:   req.Description,
		Retrievers:    req.Retrievers,
		MaxDelegation: req.MaxDelegation,
		TaskTags:      req.TaskTags,
		CreatedAt:     s.cfg.now(),
	}
	passphrase := pki.Transient([]byte(req.Passphrase))
	defer pki.WipeBytes(passphrase)
	if err := entry.SetPassphrase(passphrase, s.cfg.KDFIterations); err != nil {
		return fault("could not record pass phrase verifier", err)
	}
	if err := s.cfg.Store.Put(entry); err != nil {
		return fault("could not store credential", err)
	}
	s.stats.Stores.Add(1)
	s.cfg.logf("STORED(blob) %q/%q for %s (%d bytes)", req.Username, req.CredName, peer, len(sealed))
	return nil
}

// Retrieve is myproxy-retrieve (paper §6.1): hand back the opaque container
// of a Store deposit; unsealing happens client-side.
func (s *Service) Retrieve(peer string, req *protocol.Request) ([]byte, *Verdict) {
	entry, v := s.retrievable("RETRIEVE", peer, req, true)
	if v != nil {
		return nil, v
	}
	passphrase := pki.Transient([]byte(req.Passphrase))
	defer pki.WipeBytes(passphrase)
	if err := entry.CheckPassphrase(passphrase); err != nil {
		return nil, s.refuse(VerdictBadPassphrase, peer, badPhraseMsg, "RETRIEVE %q/%q: bad pass phrase", req.Username, entry.Name)
	}
	s.stats.Retrieves.Add(1)
	s.cfg.logf("RETRIEVED %q/%q by %s", req.Username, entry.Name, peer)
	return entry.SealedKey, nil
}

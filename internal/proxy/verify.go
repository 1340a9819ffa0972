package proxy

import (
	"bytes"
	"crypto/x509"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/pki"
)

// VerifyOptions configures proxy-aware chain validation.
type VerifyOptions struct {
	// Roots are the trusted CA certificates. Required.
	Roots *x509.CertPool
	// CurrentTime for validity checks; zero means time.Now().
	CurrentTime time.Time
	// MaxDepth bounds the number of proxy certificates in the chain;
	// 0 means the default of 10.
	MaxDepth int
	// IsRevoked, when non-nil, is consulted for every certificate in the
	// chain (CRL hook).
	IsRevoked func(*x509.Certificate) bool
}

// DefaultMaxDepth bounds delegation chains when VerifyOptions.MaxDepth is 0.
const DefaultMaxDepth = 10

// Result describes a successfully verified chain.
type Result struct {
	// EEC is the end-entity certificate: the first non-proxy certificate
	// in the chain, carrying the user's long-term identity.
	EEC *x509.Certificate
	// Identity is the Grid identity: the EEC subject DN. All proxies in
	// the chain authenticate as this identity (paper §2.3).
	Identity pki.DN
	// Depth is the number of proxy certificates between the leaf and the
	// EEC; 0 means the leaf is the EEC itself.
	Depth int
	// Limited reports whether any proxy in the chain is a limited proxy;
	// limitation is sticky across delegation.
	Limited bool
	// Independent reports whether any proxy carries the independent
	// policy: the chain must not inherit the EEC's rights.
	Independent bool
	// RestrictedOps is the intersection of all restricted-operation
	// policies in the chain; nil means "no restriction" (inherit all).
	RestrictedOps []string
	// LeafInfo is the leaf's ProxyCertInfo if it is an RFC-3820 proxy.
	LeafInfo *CertInfo
}

// IdentityString returns the Grid identity in Globus string form.
func (r *Result) IdentityString() string { return r.Identity.String() }

// IsProxy reports whether cert looks like a proxy certificate of either
// style: it carries a ProxyCertInfo extension, or its subject is its
// issuer's subject plus a final CN of "proxy" or "limited proxy".
func IsProxy(cert *x509.Certificate) bool {
	if certInfoExtension(cert) != nil {
		return true
	}
	// Most certificates are decided by the last attribute's bytes: unless
	// it reads "proxy" or "limited proxy" the subject is no legacy proxy's,
	// however the rest of it parses.
	if v, ok := pki.LastValue(cert.RawSubject); ok && string(v) != "proxy" && string(v) != "limited proxy" {
		return false
	}
	dn, err := pki.ParseRawDN(cert.RawSubject)
	if err != nil || len(dn) == 0 {
		return false
	}
	last := dn[len(dn)-1]
	if last.Type != "CN" || (last.Value != "proxy" && last.Value != "limited proxy") {
		return false
	}
	issuer, err := pki.ParseRawDN(cert.RawIssuer)
	if err != nil {
		return false
	}
	return dn[:len(dn)-1].Equal(issuer)
}

// Verify validates a certificate chain that may begin with proxy
// certificates. chain is leaf-first and must reach a certificate issued by
// one of opts.Roots (intermediate CA certificates may be included after the
// EEC). It returns the verified identity and proxy attributes.
//
// The algorithm splits the chain at the EEC: the EEC-and-above portion is
// validated with the standard library (CA rules), and each proxy step below
// the EEC is validated with the RFC-3820 discipline — raw signature check,
// subject = issuer-subject + one CN, no CA bit, validity window, sticky
// limitation, path-length accounting, and no style mixing.
//
// A chain whose leaf is a proxy is verified in two halves: verifyAnchor
// checks the issuer chain chain[1:] as the signer of exactly one more proxy,
// and extend checks the leaf against it. VerifyCache.VerifyDelegated runs
// the same two halves and memoizes the first.
func Verify(chain []*x509.Certificate, opts VerifyOptions) (*Result, error) {
	res, _, err := verify(chain, opts)
	return res, err
}

// verify is Verify, also returning the window within which every
// certificate the verdict rests on is valid.
func verify(chain []*x509.Certificate, opts VerifyOptions) (*Result, window, error) {
	if len(chain) == 0 {
		return nil, window{}, errors.New("proxy: empty certificate chain")
	}
	if opts.Roots == nil {
		return nil, window{}, errors.New("proxy: VerifyOptions.Roots is required")
	}
	opts = opts.resolved()
	if !IsProxy(chain[0]) {
		// The leaf is the EEC: there is no proxy step to walk.
		a, err := root(chain, 0, opts)
		if err != nil {
			return nil, window{}, err
		}
		return &a.res, a.window, nil
	}
	a, err := verifyAnchor(chain[1:], opts)
	if err != nil {
		return nil, window{}, err
	}
	return a.extend(chain[0], opts)
}

// resolved fills in the defaults: the current time and the depth bound.
func (o VerifyOptions) resolved() VerifyOptions {
	if o.CurrentTime.IsZero() {
		o.CurrentTime = time.Now()
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = DefaultMaxDepth
	}
	return o
}

// anchor is the state of the walk down a verified chain at the point where
// the next proxy is checked: what that proxy inherits from the certificates
// above it. Path lengths were checked with that proxy counted below.
type anchor struct {
	// res is the verdict so far. Depth counts the proxies walked, and
	// LeafInfo is the last one's ProxyCertInfo.
	res Result
	// style is the chain's proxy style: 0 none yet, 1 legacy, 2 RFC 3820.
	style int
	// signer is the certificate the next proxy must be signed by.
	signer *x509.Certificate
	// window is the validity every certificate walked shares, with every
	// certificate of the path the standard library built, trust root
	// included.
	window window
}

// verifyAnchor checks issuers, a chain leaf first, as the signer of exactly
// one more proxy: every check Verify makes on the certificates above a proxy
// leaf, that proxy counted among those below. It returns the state that
// proxy is then checked against by extend.
func verifyAnchor(issuers []*x509.Certificate, opts VerifyOptions) (*anchor, error) {
	// Locate the EEC: first certificate from the leaf that is not a proxy.
	eec := 0
	for eec < len(issuers) && IsProxy(issuers[eec]) {
		eec++
	}
	if eec == len(issuers) {
		return nil, errors.New("proxy: chain contains no end-entity certificate")
	}
	if depth := eec + 1; depth > opts.MaxDepth {
		return nil, fmt.Errorf("proxy: delegation depth %d exceeds maximum %d", depth, opts.MaxDepth)
	}
	a, err := root(issuers, eec, opts)
	if err != nil {
		return nil, err
	}
	// Walk proxy steps from the EEC down. Below issuers[i] are i+1 proxies:
	// issuers[i-1] … issuers[0], and the one still to come.
	for i := eec - 1; i >= 0; i-- {
		if err := a.step(issuers[i], i+1, opts.CurrentTime); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// extend checks leaf as the proxy a's chain signs, and returns the verdict
// on the whole chain and the window it holds in. a is not changed.
func (a anchor) extend(leaf *x509.Certificate, opts VerifyOptions) (*Result, window, error) {
	if err := checkRevoked(opts.IsRevoked, leaf); err != nil {
		return nil, window{}, err
	}
	if err := a.step(leaf, 0, opts.CurrentTime); err != nil {
		return nil, window{}, err
	}
	a.window.narrow(leaf)
	return &a.res, a.window, nil
}

// root validates chain[eec] (and any CA intermediates above it) with stdlib
// rules, runs the revocation hook over every certificate of chain, and
// returns the walk's state at the EEC.
func root(chain []*x509.Certificate, eec int, opts VerifyOptions) (*anchor, error) {
	cert := chain[eec]
	intermediates := x509.NewCertPool()
	for _, c := range chain[eec+1:] {
		intermediates.AddCert(c)
	}
	built, err := cert.Verify(x509.VerifyOptions{
		Roots:         opts.Roots,
		Intermediates: intermediates,
		CurrentTime:   opts.CurrentTime,
		KeyUsages:     []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	})
	if err != nil {
		return nil, fmt.Errorf("proxy: end-entity verification: %w", err)
	}
	if err := checkRevoked(opts.IsRevoked, chain...); err != nil {
		return nil, err
	}
	identity, err := pki.ParseRawDN(cert.RawSubject)
	if err != nil {
		return nil, fmt.Errorf("proxy: EEC subject: %w", err)
	}
	a := &anchor{res: Result{EEC: cert, Identity: identity}, signer: cert}
	a.window.narrow(chain...)
	a.window.narrow(built[0]...)
	return a, nil
}

// step checks child as the next proxy down the chain, signed by a.signer
// with below proxies under it, and takes it into the verdict.
func (a *anchor) step(child *x509.Certificate, below int, now time.Time) error {
	// Sticky limitation: once a limited proxy appears, everything below
	// must also be limited.
	if a.res.Limited {
		limited, err := isLimited(child)
		if err != nil {
			return err
		}
		if !limited {
			return errors.New("proxy: full proxy delegated beneath a limited proxy")
		}
	}
	n := a.res.Depth + 1 // steps are numbered from the EEC down
	if err := verifyProxyStep(a.signer, child, now); err != nil {
		return fmt.Errorf("proxy: step %d (%s): %w", n, childCN(child), err)
	}
	ci, isRFC, err := InfoFromCert(child)
	if err != nil {
		return fmt.Errorf("proxy: step %d: %w", n, err)
	}
	if isRFC {
		if a.style == 1 {
			return errors.New("proxy: chain mixes legacy and RFC-3820 proxies")
		}
		a.style = 2
		// Path length: a proxy at this level allows at most
		// ci.PathLenConstraint further proxies below it.
		if ci.PathLenConstraint >= 0 && below > ci.PathLenConstraint {
			return fmt.Errorf("proxy: path length constraint %d violated (%d proxies below)",
				ci.PathLenConstraint, below)
		}
		switch {
		case ci.PolicyLanguage.Equal(OIDPolicyInheritAll):
			// no change
		case ci.PolicyLanguage.Equal(OIDPolicyLimited):
			a.res.Limited = true
		case ci.PolicyLanguage.Equal(OIDPolicyIndependent):
			a.res.Independent = true
		case ci.PolicyLanguage.Equal(OIDPolicyRestrictedOps):
			ops, err := decodeOps(ci.Policy)
			if err != nil {
				return err
			}
			a.res.RestrictedOps = intersectOps(a.res.RestrictedOps, ops)
		default:
			return fmt.Errorf("proxy: unknown proxy policy language %v", ci.PolicyLanguage)
		}
	} else {
		if a.style == 2 {
			return errors.New("proxy: chain mixes legacy and RFC-3820 proxies")
		}
		a.style = 1
		dn, err := pki.ParseRawDN(child.RawSubject)
		if err != nil {
			return err
		}
		switch dn[len(dn)-1].Value {
		case "proxy":
		case "limited proxy":
			a.res.Limited = true
		default:
			return fmt.Errorf("proxy: legacy proxy CN %q invalid", dn[len(dn)-1].Value)
		}
	}
	a.res.Depth = n
	a.res.LeafInfo = ci // nil for a legacy proxy
	a.signer = child
	return nil
}

// checkRevoked runs the revocation hook, if any, over certs.
func checkRevoked(isRevoked func(*x509.Certificate) bool, certs ...*x509.Certificate) error {
	if isRevoked == nil {
		return nil
	}
	for _, c := range certs {
		if isRevoked(c) {
			return fmt.Errorf("proxy: certificate %q is revoked", c.SerialNumber)
		}
	}
	return nil
}

// window is the span of time within which every certificate it was
// narrowed by is valid.
type window struct{ notBefore, notAfter time.Time }

func (w *window) narrow(certs ...*x509.Certificate) {
	for _, c := range certs {
		if c.NotBefore.After(w.notBefore) {
			w.notBefore = c.NotBefore
		}
		if w.notAfter.IsZero() || c.NotAfter.Before(w.notAfter) {
			w.notAfter = c.NotAfter
		}
	}
}

func (w window) contains(t time.Time) bool {
	return !t.Before(w.notBefore) && !t.After(w.notAfter)
}

func childCN(cert *x509.Certificate) string {
	dn, err := pki.ParseRawDN(cert.RawSubject)
	if err != nil {
		return "?"
	}
	return dn.CommonName()
}

// verifyProxyStep checks the invariants of one proxy issuance edge.
func verifyProxyStep(parent, child *x509.Certificate, now time.Time) error {
	// Issuer linkage by exact DER comparison.
	if !bytes.Equal(child.RawIssuer, parent.RawSubject) {
		return errors.New("issuer does not match signer subject")
	}
	// Subject discipline: child subject = parent subject + one CN RDN.
	if err := subjectExtends(parent.RawSubject, child.RawSubject); err != nil {
		return err
	}
	// Raw signature check: CheckSignatureFrom would reject non-CA parents,
	// which is the whole point of proxy certificates, so check the
	// signature directly against the parent key.
	if err := parent.CheckSignature(child.SignatureAlgorithm, child.RawTBSCertificate, child.Signature); err != nil {
		return fmt.Errorf("signature: %w", err)
	}
	// A proxy must never be a CA and its signer must be allowed to sign.
	if child.BasicConstraintsValid && child.IsCA {
		return errors.New("proxy certificate asserts CA basicConstraints")
	}
	// RFC 5280 §4.2: a critical extension the verifier does not recognise
	// refuses the certificate. ProxyCertInfo is the one this package
	// handles, and RFC 3820 §3.8 requires it to be critical.
	for _, id := range child.UnhandledCriticalExtensions {
		if !id.Equal(OIDProxyCertInfo) {
			return fmt.Errorf("unhandled critical extension %v", id)
		}
	}
	if ext := certInfoExtension(child); ext != nil && !ext.Critical {
		return errors.New("ProxyCertInfo extension is not critical")
	}
	if ku := parent.KeyUsage; ku != 0 && ku&x509.KeyUsageDigitalSignature == 0 {
		return errors.New("signer lacks digitalSignature key usage")
	}
	if ku := child.KeyUsage; ku != 0 && ku&x509.KeyUsageDigitalSignature == 0 {
		return errors.New("proxy lacks digitalSignature key usage")
	}
	// Validity window of the child itself.
	if now.Before(child.NotBefore) {
		return fmt.Errorf("not valid until %v", child.NotBefore)
	}
	if now.After(child.NotAfter) {
		return fmt.Errorf("expired at %v", child.NotAfter)
	}
	return nil
}

// subjectExtends checks that the subject child is the subject parent plus
// one CN RDN. A pair in the form DN.Marshal emits is decided on its bytes;
// any other is parsed and compared.
func subjectExtends(parent, child []byte) error {
	if pki.ExtendsByCN(parent, child) {
		return nil
	}
	childDN, err := pki.ParseRawDN(child)
	if err != nil {
		return err
	}
	parentDN, err := pki.ParseRawDN(parent)
	if err != nil {
		return err
	}
	if len(childDN) != len(parentDN)+1 {
		return errors.New("subject must extend issuer subject by exactly one component")
	}
	if !childDN[:len(parentDN)].Equal(parentDN) {
		return errors.New("subject does not extend issuer subject")
	}
	if childDN[len(childDN)-1].Type != "CN" {
		return errors.New("appended subject component must be a CN")
	}
	return nil
}

// --- restricted-operations policy language ---

// encodeOps renders the restricted-operations policy body: a sorted,
// newline-separated operation list.
func encodeOps(ops []string) []byte {
	return []byte(strings.Join(ops, "\n"))
}

// decodeOps parses a restricted-operations policy body.
func decodeOps(body []byte) ([]string, error) {
	if len(body) == 0 {
		return nil, errors.New("proxy: restricted policy with empty body")
	}
	var ops []string
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		ops = append(ops, line)
	}
	if len(ops) == 0 {
		return nil, errors.New("proxy: restricted policy lists no operations")
	}
	return ops, nil
}

// intersectOps narrows an existing restriction with a new one; nil prev
// means "unrestricted so far".
func intersectOps(prev, next []string) []string {
	if prev == nil {
		if next == nil {
			return []string{}
		}
		out := make([]string, len(next))
		copy(out, next)
		return out
	}
	allowed := make(map[string]bool, len(next))
	for _, op := range next {
		allowed[op] = true
	}
	var out []string
	for _, op := range prev {
		if allowed[op] {
			out = append(out, op)
		}
	}
	if out == nil {
		out = []string{}
	}
	return out
}

// Permits reports whether the verified chain authorizes the named
// operation. Full proxies inherit all rights; limited proxies are refused
// process-starting operations (Globus semantics: OpJobSubmit); independent
// proxies inherit nothing; restricted proxies must list the operation.
func (r *Result) Permits(operation string) bool {
	if r.Independent {
		return false
	}
	if r.Limited && operation == OpJobSubmit {
		return false
	}
	if r.RestrictedOps != nil {
		for _, op := range r.RestrictedOps {
			if op == operation {
				return true
			}
		}
		return false
	}
	return true
}

// Well-known operation names used by the substrate services.
const (
	OpJobSubmit = "job-submit"
	OpFileRead  = "file-read"
	OpFileWrite = "file-write"
)

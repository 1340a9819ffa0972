package proxy

import (
	"context"
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"math/big"
	"time"

	"repro/internal/pki"
)

// KeySource supplies private keys for freshly minted proxies. It is the
// seam through which a background pre-generation pool (internal/keypool)
// feeds the hot path; implementations must fall back to synchronous
// generation rather than fail when they cannot serve a pooled key — in
// particular when asked for a spec they do not stock.
// A nil KeySource means pki.GenerateSigner.
type KeySource interface {
	Get(ctx context.Context, spec pki.KeySpec) (crypto.Signer, error)
}

// Type selects the proxy certificate style.
type Type int

const (
	// RFC3820 is an RFC-3820-style proxy carrying a critical ProxyCertInfo
	// extension with the inherit-all policy. It is the zero value, so it
	// is the default style everywhere a Type is left unset.
	RFC3820 Type = iota
	// RFC3820Limited carries the Globus limited-proxy policy OID.
	RFC3820Limited
	// RFC3820Independent carries the independent policy: no inherited
	// rights.
	RFC3820Independent
	// RFC3820Restricted carries a restricted-operations policy body
	// (paper §6.5); see Options.RestrictedOps.
	RFC3820Restricted
	// Legacy is a GSI legacy full proxy: subject = issuer + CN=proxy, no
	// extension. This is what the paper's 2001 deployment used.
	Legacy
	// LegacyLimited is a GSI legacy limited proxy (CN=limited proxy);
	// job-starting services reject it.
	LegacyLimited
)

func (t Type) String() string {
	switch t {
	case Legacy:
		return "legacy"
	case LegacyLimited:
		return "legacy-limited"
	case RFC3820:
		return "rfc3820"
	case RFC3820Limited:
		return "rfc3820-limited"
	case RFC3820Independent:
		return "rfc3820-independent"
	case RFC3820Restricted:
		return "rfc3820-restricted"
	default:
		return fmt.Sprintf("proxy.Type(%d)", int(t))
	}
}

// DefaultLifetime is the proxy lifetime used when Options.Lifetime is zero:
// 12 hours, the grid-proxy-init default the paper describes ("on the order
// of hours or days", §2.3).
const DefaultLifetime = 12 * time.Hour

// Options controls proxy certificate creation.
type Options struct {
	Type     Type
	Lifetime time.Duration // 0 selects DefaultLifetime; clamped to issuer validity

	// KeyAlgorithm selects the algorithm for the proxy key pair (New only);
	// the zero value is RSA, the paper-fidelity default.
	KeyAlgorithm pki.KeyAlgorithm
	// KeyBits is the RSA modulus size (New only); 0 selects
	// pki.DefaultKeyBits. Ignored for non-RSA algorithms.
	KeyBits int

	// KeySource, when non-nil, supplies the key pair for New (typically a
	// keypool.Pool). nil generates synchronously.
	KeySource KeySource

	// PathLenConstraint limits further delegation below the new proxy
	// (RFC 3820 pCPathLenConstraint); nil means unlimited. Use PathLen(0)
	// to forbid any further delegation. Only meaningful for RFC3820* types.
	PathLenConstraint *int

	// RestrictedOps lists operations a RFC3820Restricted proxy may perform,
	// e.g. {"job-submit", "file-read"}. Ignored for other types.
	RestrictedOps []string
}

// Unlimited is the CertInfo.PathLenConstraint value meaning "no constraint".
const Unlimited = -1

// PathLen returns a pointer to n, for Options.PathLenConstraint.
func PathLen(n int) *int { return &n }

// Create signs a proxy certificate binding pub under the issuer credential.
// The issuer may itself be a proxy (delegation chaining, paper §2.4). The
// returned certificate's subject is the issuer's subject plus one CN
// component, per the GSI/RFC-3820 naming discipline.
func Create(issuer *pki.Credential, pub crypto.PublicKey, opts Options) (*x509.Certificate, error) {
	der, err := CreateDER(issuer, pub, opts)
	if err != nil {
		return nil, err
	}
	return x509.ParseCertificate(der)
}

// CreateDER is Create returning the signed certificate's DER, for a caller
// that ships the bytes and has no use for the parsed certificate.
func CreateDER(issuer *pki.Credential, pub crypto.PublicKey, opts Options) ([]byte, error) {
	if issuer == nil || issuer.Certificate == nil || issuer.PrivateKey == nil {
		return nil, errors.New("proxy: issuer credential incomplete")
	}
	if pub == nil {
		return nil, errors.New("proxy: nil public key")
	}
	if _, ok := pki.AlgorithmOf(pub); !ok {
		return nil, errors.New("proxy: unsupported public key algorithm")
	}
	if issuer.Certificate.IsCA {
		return nil, errors.New("proxy: a CA certificate must not issue proxies")
	}
	if ku := issuer.Certificate.KeyUsage; ku != 0 && ku&x509.KeyUsageDigitalSignature == 0 {
		return nil, errors.New("proxy: issuer certificate lacks digitalSignature key usage")
	}
	// A limited proxy may only issue further limited proxies: limitation
	// is sticky (Globus semantics; services enforce the rest).
	issuerInfo, issuerRFC, err := InfoFromCert(issuer.Certificate)
	if err != nil {
		return nil, err
	}
	issuerLimited, err := limitedBy(issuer.Certificate, issuerInfo, issuerRFC)
	if err != nil {
		return nil, err
	}
	if issuerLimited && opts.Type != LegacyLimited && opts.Type != RFC3820Limited {
		return nil, errors.New("proxy: a limited proxy may only delegate limited proxies")
	}
	// Enforce the issuer's own path-length constraint at signing time too;
	// verification enforces it independently.
	if issuerRFC && issuerInfo.PathLenConstraint == 0 {
		return nil, errors.New("proxy: issuer proxy forbids further delegation (pathlen 0)")
	}

	lifetime := opts.Lifetime
	if lifetime <= 0 {
		lifetime = DefaultLifetime
	}
	now := time.Now()
	notBefore := now.Add(-5 * time.Minute)
	notAfter := now.Add(lifetime)
	if notAfter.After(issuer.Certificate.NotAfter) {
		// The proxy must not outlive its signer; clamp silently, as
		// grid-proxy-init does.
		notAfter = issuer.Certificate.NotAfter
	}
	if !notAfter.After(now) {
		return nil, errors.New("proxy: issuer certificate already expired")
	}

	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 63))
	if err != nil {
		return nil, fmt.Errorf("proxy: serial: %w", err)
	}

	// The proxy subject is the issuer's plus one CN. A subject in the form
	// DN.Marshal emits takes the CN appended to its bytes; any other is
	// parsed here, before the options are judged, and re-encoded below.
	issuerSubject := issuer.Certificate.RawSubject
	var issuerDN pki.DN
	if !pki.CanonicalRawDN(issuerSubject) {
		if issuerDN, err = pki.ParseRawDN(issuerSubject); err != nil {
			return nil, fmt.Errorf("proxy: issuer subject: %w", err)
		}
	}

	var cn string
	var extra []pkix.Extension
	switch opts.Type {
	case Legacy:
		cn = "proxy"
	case LegacyLimited:
		cn = "limited proxy"
	case RFC3820, RFC3820Limited, RFC3820Independent, RFC3820Restricted:
		// RFC 3820 §3.4: the CN must be unique among proxies issued by this
		// issuer; the serial number in decimal is the conventional choice.
		cn = serial.String()
		ci := &CertInfo{PathLenConstraint: Unlimited}
		if opts.PathLenConstraint != nil {
			if *opts.PathLenConstraint < 0 {
				return nil, fmt.Errorf("proxy: negative path length constraint %d", *opts.PathLenConstraint)
			}
			ci.PathLenConstraint = *opts.PathLenConstraint
		}
		switch opts.Type {
		case RFC3820:
			ci.PolicyLanguage = OIDPolicyInheritAll
		case RFC3820Limited:
			ci.PolicyLanguage = OIDPolicyLimited
		case RFC3820Independent:
			ci.PolicyLanguage = OIDPolicyIndependent
		case RFC3820Restricted:
			ci.PolicyLanguage = OIDPolicyRestrictedOps
			ci.Policy = encodeOps(opts.RestrictedOps)
		}
		ext, err := ci.Extension()
		if err != nil {
			return nil, err
		}
		extra = append(extra, ext)
	default:
		return nil, fmt.Errorf("proxy: unknown proxy type %d", int(opts.Type))
	}

	rawSubject, ok := pki.AppendCN(issuerSubject, cn)
	if !ok {
		if rawSubject, err = issuerDN.WithCN(cn).Marshal(); err != nil {
			return nil, err
		}
	}

	// RFC 3820 §3.6: digitalSignature is required for further delegation.
	// keyEncipherment supports RSA key exchange in the era-appropriate SSL
	// cipher suites; asserting it on a signature-only key (ECDSA, Ed25519)
	// would be wrong per RFC 5280.
	keyUsage := x509.KeyUsageDigitalSignature
	if _, isRSA := pub.(*rsa.PublicKey); isRSA {
		keyUsage |= x509.KeyUsageKeyEncipherment
	}
	tmpl := &x509.Certificate{
		SerialNumber:    serial,
		RawSubject:      rawSubject,
		NotBefore:       notBefore,
		NotAfter:        notAfter,
		KeyUsage:        keyUsage,
		ExtraExtensions: extra,
		// RFC 3820 §3.7: proxies MUST NOT carry basicConstraints CA=true.
		// We omit basicConstraints entirely, matching Globus output.
		BasicConstraintsValid: false,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, issuer.Certificate, pub, issuer.PrivateKey)
	if err != nil {
		return nil, fmt.Errorf("proxy: sign proxy certificate: %w", err)
	}
	return der, nil
}

// New generates a fresh key pair and creates a proxy credential signed by
// issuer, with the chain extended so the result is self-contained:
// chain = issuer certificate + issuer's chain. This is what
// grid-proxy-init does locally (paper §2.3).
func New(issuer *pki.Credential, opts Options) (*pki.Credential, error) {
	spec := pki.KeySpec{Algorithm: opts.KeyAlgorithm, Bits: opts.KeyBits}
	var key crypto.Signer
	var err error
	if opts.KeySource != nil {
		key, err = opts.KeySource.Get(context.Background(), spec)
	} else {
		key, err = pki.GenerateSigner(spec)
	}
	if err != nil {
		return nil, err
	}
	cert, err := Create(issuer, key.Public(), opts)
	if err != nil {
		return nil, err
	}
	chain := make([]*x509.Certificate, 0, 1+len(issuer.Chain))
	chain = append(chain, issuer.Certificate)
	chain = append(chain, issuer.Chain...)
	return &pki.Credential{Certificate: cert, PrivateKey: key, Chain: chain}, nil
}

// isLimited reports whether cert is a limited proxy in either style.
func isLimited(cert *x509.Certificate) (bool, error) {
	ci, ok, err := InfoFromCert(cert)
	if err != nil {
		return false, err
	}
	return limitedBy(cert, ci, ok)
}

// limitedBy is isLimited given cert's decoded ProxyCertInfo, if it has one.
func limitedBy(cert *x509.Certificate, ci *CertInfo, rfc bool) (bool, error) {
	if rfc {
		return ci.PolicyLanguage.Equal(OIDPolicyLimited), nil
	}
	dn, err := pki.ParseRawDN(cert.RawSubject)
	if err != nil {
		return false, err
	}
	return len(dn) > 0 && dn[len(dn)-1] == pki.RDN{Type: "CN", Value: "limited proxy"}, nil
}

package gsi

import (
	"context"
	"crypto"
	"crypto/x509"
	"errors"
	"fmt"

	"repro/internal/pki"
	"repro/internal/proxy"
)

// Wire delegation (paper §2.4): the importing side generates a fresh key
// pair and sends a certification request over the authenticated channel;
// the exporting side signs a proxy certificate for that public key with its
// own credential and returns the full chain. The private key never crosses
// the wire — this property is the heart of GSI delegation and of both
// MyProxy operations (paper Figures 1 and 2 are each one run of this
// protocol in opposite directions).
//
// The key spec travels implicitly: the CSR carries the public key, so the
// signer learns the algorithm from the request itself and no negotiation
// round is needed. Both sides speak Channel, so the same exchange runs
// over a dedicated connection or one stream of a multiplexed session.

// RequestDelegation runs the importing side: it generates a key pair, sends
// a CSR, receives the signed chain, and assembles the resulting proxy
// credential. The returned credential is verified against roots before
// being accepted. The zero spec selects RSA at pki.DefaultKeyBits.
func RequestDelegation(ch Channel, spec pki.KeySpec, roots *x509.CertPool) (*pki.Credential, error) {
	return RequestDelegationFrom(ch, nil, spec, roots)
}

// RequestDelegationFrom is RequestDelegation with the key pair drawn from
// keys (typically a keypool.Pool), taking fresh-key generation off the
// delegation hot path. A nil source generates synchronously.
func RequestDelegationFrom(ch Channel, keys proxy.KeySource, spec pki.KeySpec, roots *x509.CertPool) (*pki.Credential, error) {
	var key crypto.Signer
	var err error
	if keys != nil {
		key, err = keys.Get(context.Background(), spec)
	} else {
		key, err = pki.GenerateSigner(spec)
	}
	if err != nil {
		return nil, err
	}
	return requestDelegationWithKey(ch, key, roots)
}

func requestDelegationWithKey(ch Channel, key crypto.Signer, roots *x509.CertPool) (*pki.Credential, error) {
	// The CSR subject is ignored by the signer (RFC 3820: the issuer
	// dictates the subject), but must be present for a well-formed request.
	csrDER, err := proxy.CreateRequest(ch.LocalCredential().Certificate.RawSubject, key)
	if err != nil {
		return nil, fmt.Errorf("gsi: create CSR: %w", err)
	}
	if err := ch.WriteMessage(csrDER); err != nil {
		return nil, err
	}
	chainPEM, err := ch.ReadMessage()
	if err != nil {
		return nil, fmt.Errorf("gsi: receive delegated chain: %w", err)
	}
	// Behind the proxy just minted, the exporter sends the same issuer
	// chain on every delegation of one credential. Through the endpoint's
	// verification cache that chain is parsed and checked once, and each
	// delegation after it parses and checks the new proxy alone.
	var cache *proxy.VerifyCache
	if c, ok := ch.(verifyCacher); ok && roots != nil {
		cache = c.verifyCache()
	}
	opts := proxy.VerifyOptions{Roots: roots}
	ders, err := pki.SplitCertsPEM(chainPEM)
	var certs []*x509.Certificate
	if err == nil {
		certs, err = cache.ParseDelegated(ders, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("gsi: decode delegated chain: %w", err)
	}
	cred := &pki.Credential{Certificate: certs[0], PrivateKey: key, Chain: certs[1:]}
	// The leaf must certify exactly the key we generated.
	if !pki.PublicKeysEqual(cred.Certificate.PublicKey, key.Public()) {
		return nil, errors.New("gsi: delegated certificate does not match requested key")
	}
	if roots != nil {
		if _, err := cache.VerifyDelegated(certs, opts); err != nil {
			return nil, fmt.Errorf("gsi: delegated chain rejected: %w", err)
		}
	}
	return cred, nil
}

// verifyCacher is a channel of an endpoint that verifies through a
// proxy.VerifyCache (AuthOptions.Cache): a connection, or a stream of one.
type verifyCacher interface {
	verifyCache() *proxy.VerifyCache
}

func (c *Conn) verifyCache() *proxy.VerifyCache { return c.auth.Cache }

func (st *Stream) verifyCache() *proxy.VerifyCache { return st.s.conn.auth.Cache }

// Delegate runs the exporting side: it receives the peer's CSR and signs a
// proxy certificate under issuer with the given options, sending back the
// full chain (new proxy first, then issuer's chain). It returns the signed
// certificate.
func Delegate(ch Channel, issuer *pki.Credential, opts proxy.Options) (*x509.Certificate, error) {
	csrDER, err := ch.ReadMessage()
	if err != nil {
		return nil, fmt.Errorf("gsi: receive CSR: %w", err)
	}
	der, chainPEM, err := SignCSR(csrDER, issuer, nil, opts)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	if err := ch.WriteMessage(chainPEM); err != nil {
		return nil, err
	}
	return cert, nil
}

// ErrBadCSR marks (via errors.Is) a certification request SignCSR refused
// on its own merits — malformed, no proof of possession, unsupported key —
// as opposed to a signing failure on the issuer's side.
var ErrBadCSR = errors.New("gsi: bad certification request")

type csrError struct{ error }

func (csrError) Is(target error) bool { return target == ErrBadCSR }

// SignCSR is the signing step of a delegation, shared by every transport
// that can carry a CSR: it checks the request's proof of possession, signs
// a proxy certificate for its key under issuer, and returns the
// certificate's DER and the PEM chain to ship: the new proxy, then
// chainPEM, issuer's own chain (leaf first) as pki.AppendCertsPEM writes
// it, which is copied as it is; nil encodes issuer.CertChain(). It does
// not parse what it signed. The requested key's algorithm is taken from
// the CSR; any supported algorithm (see pki.KeyAlgorithm) is accepted
// regardless of the issuer's own key type — proxy chains may mix
// algorithms.
//
// The request proxy.CreateRequest writes is read on its bytes
// (proxy.CheckRequest); any other is parsed and checked by crypto/x509.
func SignCSR(csrDER []byte, issuer *pki.Credential, chainPEM []byte, opts proxy.Options) (der, out []byte, err error) {
	pub, ok, err := proxy.CheckRequest(csrDER)
	if err != nil {
		return nil, nil, csrError{fmt.Errorf("gsi: CSR signature: %w", err)}
	}
	if !ok {
		if pub, err = parseCSR(csrDER); err != nil {
			return nil, nil, err
		}
	}
	if der, err = proxy.CreateDER(issuer, pub, opts); err != nil {
		return nil, nil, err
	}
	if chainPEM == nil {
		chainPEM = pki.EncodeCertsPEM(issuer.CertChain())
	}
	out = make([]byte, 0, pki.CertPEMLen(len(der))+len(chainPEM))
	return der, append(pki.AppendCertPEM(out, der), chainPEM...), nil
}

// parseCSR reads a certification request of any shape with crypto/x509 and
// checks its proof of possession, returning the requested key.
func parseCSR(csrDER []byte) (crypto.PublicKey, error) {
	csr, err := x509.ParseCertificateRequest(csrDER)
	if err != nil {
		return nil, csrError{fmt.Errorf("gsi: parse CSR: %w", err)}
	}
	// Proof of possession of the requested key.
	if err := csr.CheckSignature(); err != nil {
		return nil, csrError{fmt.Errorf("gsi: CSR signature: %w", err)}
	}
	if _, ok := pki.AlgorithmOf(csr.PublicKey); !ok {
		return nil, csrError{errors.New("gsi: CSR public key algorithm not supported")}
	}
	return csr.PublicKey, nil
}

package pki

import (
	"crypto"
	"crypto/x509"
	"errors"
	"fmt"
	"os"
	"time"
)

// Credential is a set of Grid credentials (paper §2.1): a certificate, the
// matching private key, and any intermediate certificates between the leaf
// and a trust anchor (for proxy credentials: the issuing proxies and the
// end-entity certificate, leaf's issuer first). The key is any supported
// signer (see KeyAlgorithm); the paper-era deployment used RSA only.
type Credential struct {
	Certificate *x509.Certificate
	PrivateKey  crypto.Signer
	Chain       []*x509.Certificate
}

// SubjectDN returns the leaf certificate's subject as a DN.
func (c *Credential) SubjectDN() (DN, error) {
	return ParseRawDN(c.Certificate.RawSubject)
}

// Subject returns the leaf subject in Globus string form, or "" on error.
func (c *Credential) Subject() string {
	dn, err := c.SubjectDN()
	if err != nil {
		return ""
	}
	return dn.String()
}

// CertChain returns the full chain, leaf first.
func (c *Credential) CertChain() []*x509.Certificate {
	out := make([]*x509.Certificate, 0, 1+len(c.Chain))
	out = append(out, c.Certificate)
	return append(out, c.Chain...)
}

// TimeLeft reports how long the leaf certificate remains valid from now;
// zero or negative means expired.
func (c *Credential) TimeLeft() time.Duration {
	return c.TimeLeftAt(time.Now())
}

// TimeLeftAt reports validity remaining at the given instant.
func (c *Credential) TimeLeftAt(now time.Time) time.Duration {
	return c.Certificate.NotAfter.Sub(now)
}

// Validate performs the structural checks every credential must satisfy:
// a leaf, a key matching the leaf's public key, and non-expired validity.
func (c *Credential) Validate(now time.Time) error {
	if c.Certificate == nil {
		return errors.New("pki: credential has no certificate")
	}
	if c.PrivateKey == nil {
		return errors.New("pki: credential has no private key")
	}
	if _, ok := AlgorithmOf(c.Certificate.PublicKey); !ok {
		return errors.New("pki: certificate public key algorithm not supported")
	}
	if !PublicKeysEqual(c.Certificate.PublicKey, c.PrivateKey.Public()) {
		return errors.New("pki: private key does not match certificate")
	}
	if now.Before(c.Certificate.NotBefore) {
		return fmt.Errorf("pki: certificate not valid until %v", c.Certificate.NotBefore)
	}
	if now.After(c.Certificate.NotAfter) {
		return fmt.Errorf("pki: certificate expired at %v", c.Certificate.NotAfter)
	}
	return nil
}

// EncodePEM renders the credential in the Globus proxy-file layout:
// leaf certificate, private key, then the rest of the chain. The encoding
// contains the plaintext private key: callers that do not persist it must
// WipeBytes it once sealed or written.
func (c *Credential) EncodePEM() []byte {
	out := EncodeCertPEM(c.Certificate)
	out = append(out, EncodeKeyPEM(c.PrivateKey)...)
	out = append(out, EncodeCertsPEM(c.Chain)...)
	return out
}

// EncodeEncryptedPEM renders the credential with the private key sealed
// under the pass phrase, the format for long-term credentials at rest.
func (c *Credential) EncodeEncryptedPEM(passphrase []byte, iter int) ([]byte, error) {
	keyPEM, _, err := EncryptKeyPEM(c.PrivateKey, passphrase, iter)
	if err != nil {
		return nil, err
	}
	out := EncodeCertPEM(c.Certificate)
	out = append(out, keyPEM...)
	out = append(out, EncodeCertsPEM(c.Chain)...)
	return out, nil
}

// DecodeCredentialPEM parses a credential from PEM data. If the key block is
// an ENCRYPTED GRID KEY, passphrase is required; for an unencrypted private
// key block, passphrase is ignored. The first certificate is taken
// as the leaf and the remainder as the chain.
func DecodeCredentialPEM(data, passphrase []byte) (*Credential, error) {
	certs, err := DecodeCertsPEM(data)
	if err != nil {
		return nil, err
	}
	key, err := DecodeKeyPEM(data)
	if err != nil {
		key, err = DecryptKeyPEM(data, passphrase)
		if err != nil {
			return nil, err
		}
	}
	return &Credential{Certificate: certs[0], PrivateKey: key, Chain: certs[1:]}, nil
}

// LoadCredential reads a credential from a PEM file (see DecodeCredentialPEM).
func LoadCredential(path string, passphrase []byte) (*Credential, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pki: read credential: %w", err)
	}
	return DecodeCredentialPEM(data, passphrase)
}

// SaveCredential writes the credential to path with owner-only permissions
// (0600), the protection the paper relies on for proxy files (§2.3). If
// passphrase is non-empty the key is sealed.
func (c *Credential) SaveCredential(path string, passphrase []byte) error {
	var data []byte
	var err error
	if len(passphrase) > 0 {
		data, err = c.EncodeEncryptedPEM(passphrase, 0)
		if err != nil {
			return err
		}
	} else {
		data = c.EncodePEM()
	}
	return os.WriteFile(path, data, 0o600)
}

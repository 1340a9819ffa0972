package pki

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"fmt"
	"math/big"
	"sync"
	"time"
)

// CA is a certificate authority (paper §2.1: "a trusted party known as a
// Certificate Authority"). It issues long-term user, host, and service
// certificates and maintains a revocation list.
type CA struct {
	cred *Credential

	mu         sync.Mutex
	nextSerial int64
	revoked    map[string]time.Time // serial (decimal) -> revocation time
}

// CAConfig controls CA creation.
type CAConfig struct {
	// Name is the CA's own DN, e.g. /C=US/O=Example Grid/CN=Example CA.
	Name DN
	// KeyBits is the size of the CA's RSA key; 0 selects DefaultKeyBits.
	KeyBits int
	// Lifetime of the self-signed CA certificate; 0 selects ten years.
	Lifetime time.Duration
	// Key optionally supplies a pre-generated key (tests, deterministic
	// fixtures); if nil a fresh key is generated.
	Key crypto.Signer
}

// NewCA creates a self-signed certificate authority.
func NewCA(cfg CAConfig) (*CA, error) {
	if len(cfg.Name) == 0 {
		return nil, fmt.Errorf("pki: CA requires a name")
	}
	key := cfg.Key
	if key == nil {
		var err error
		key, err = GenerateSigner(KeySpec{Bits: cfg.KeyBits})
		if err != nil {
			return nil, err
		}
	}
	lifetime := cfg.Lifetime
	if lifetime == 0 {
		lifetime = 10 * 365 * 24 * time.Hour
	}
	rawName, err := cfg.Name.Marshal()
	if err != nil {
		return nil, err
	}
	now := time.Now()
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		RawSubject:            rawName,
		NotBefore:             now.Add(-5 * time.Minute),
		NotAfter:              now.Add(lifetime),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageCRLSign,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, key.Public(), key)
	if err != nil {
		return nil, fmt.Errorf("pki: self-sign CA: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &CA{
		cred:       &Credential{Certificate: cert, PrivateKey: key},
		nextSerial: 2,
		revoked:    make(map[string]time.Time),
	}, nil
}

// LoadCA reconstructs a CA from an existing credential (e.g. read from
// disk). Serial allocation resumes from a high-entropy point to avoid
// collisions with previously issued certificates.
func LoadCA(cred *Credential) (*CA, error) {
	if !cred.Certificate.IsCA {
		return nil, fmt.Errorf("pki: certificate for %s is not a CA certificate", cred.Subject())
	}
	n, err := rand.Int(rand.Reader, big.NewInt(1<<40))
	if err != nil {
		return nil, err
	}
	return &CA{
		cred:       cred,
		nextSerial: 1<<41 + n.Int64(),
		revoked:    make(map[string]time.Time),
	}, nil
}

// Certificate returns the CA's self-signed certificate; distribute this to
// relying parties as a trust anchor.
func (ca *CA) Certificate() *x509.Certificate { return ca.cred.Certificate }

// Credential returns the CA's full credential, including the signing key.
func (ca *CA) Credential() *Credential { return ca.cred }

// SubjectDN returns the CA's distinguished name.
func (ca *CA) SubjectDN() DN {
	dn, _ := ParseRawDN(ca.cred.Certificate.RawSubject)
	return dn
}

func (ca *CA) serial() *big.Int {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	s := big.NewInt(ca.nextSerial)
	ca.nextSerial++
	return s
}

// IssueRequest describes a certificate to be issued.
type IssueRequest struct {
	Subject   DN
	PublicKey crypto.PublicKey
	Lifetime  time.Duration // 0 selects one year
	// IsHost marks host/service certificates; DNSNames are added and the
	// server-auth extended key usage is asserted.
	IsHost   bool
	DNSNames []string
}

// Issue signs a new end-entity certificate.
func (ca *CA) Issue(req IssueRequest) (*x509.Certificate, error) {
	if len(req.Subject) == 0 {
		return nil, fmt.Errorf("pki: issue requires a subject DN")
	}
	if req.PublicKey == nil {
		return nil, fmt.Errorf("pki: issue requires a public key")
	}
	lifetime := req.Lifetime
	if lifetime == 0 {
		lifetime = 365 * 24 * time.Hour
	}
	rawSubject, err := req.Subject.Marshal()
	if err != nil {
		return nil, err
	}
	// keyEncipherment is an RSA key-exchange concept; asserting it on a
	// signature-only key (ECDSA, Ed25519) would be wrong per RFC 5280.
	keyUsage := x509.KeyUsageDigitalSignature
	if _, isRSA := req.PublicKey.(*rsa.PublicKey); isRSA {
		keyUsage |= x509.KeyUsageKeyEncipherment
	}
	now := time.Now()
	tmpl := &x509.Certificate{
		SerialNumber:          ca.serial(),
		RawSubject:            rawSubject,
		NotBefore:             now.Add(-5 * time.Minute),
		NotAfter:              now.Add(lifetime),
		KeyUsage:              keyUsage,
		BasicConstraintsValid: true,
		IsCA:                  false,
		ExtKeyUsage: []x509.ExtKeyUsage{
			x509.ExtKeyUsageClientAuth,
		},
	}
	if req.IsHost {
		tmpl.DNSNames = req.DNSNames
		tmpl.ExtKeyUsage = append(tmpl.ExtKeyUsage, x509.ExtKeyUsageServerAuth)
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cred.Certificate, req.PublicKey, ca.cred.PrivateKey)
	if err != nil {
		return nil, fmt.Errorf("pki: issue certificate: %w", err)
	}
	return x509.ParseCertificate(der)
}

// IssueCredential generates an RSA key pair and issues a certificate for it
// in one step, returning a complete credential. keyBits == 0 selects
// DefaultKeyBits.
func (ca *CA) IssueCredential(subject DN, lifetime time.Duration, keyBits int) (*Credential, error) {
	key, err := GenerateSigner(KeySpec{Bits: keyBits})
	if err != nil {
		return nil, err
	}
	return ca.IssueCredentialForKey(subject, lifetime, key)
}

// IssueCredentialForKey issues a certificate for an existing key.
func (ca *CA) IssueCredentialForKey(subject DN, lifetime time.Duration, key crypto.Signer) (*Credential, error) {
	cert, err := ca.Issue(IssueRequest{Subject: subject, PublicKey: key.Public(), Lifetime: lifetime})
	if err != nil {
		return nil, err
	}
	return &Credential{Certificate: cert, PrivateKey: key}, nil
}

// IssueHostCredential issues a host/service credential for hostname with
// subject CN=hostname appended to base.
func (ca *CA) IssueHostCredential(base DN, hostname string, lifetime time.Duration, keyBits int) (*Credential, error) {
	key, err := GenerateSigner(KeySpec{Bits: keyBits})
	if err != nil {
		return nil, err
	}
	cert, err := ca.Issue(IssueRequest{
		Subject:   base.WithCN(hostname),
		PublicKey: key.Public(),
		Lifetime:  lifetime,
		IsHost:    true,
		DNSNames:  []string{hostname},
	})
	if err != nil {
		return nil, err
	}
	return &Credential{Certificate: cert, PrivateKey: key}, nil
}

// Revoke adds the certificate to the CA's revocation list (paper §2.1: a
// stolen certificate is "revoked by the CA").
func (ca *CA) Revoke(cert *x509.Certificate) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	ca.revoked[cert.SerialNumber.String()] = time.Now()
}

// RevokeSerial records a revocation by serial number with an explicit
// revocation time (used when reloading persisted revocation state).
func (ca *CA) RevokeSerial(serial *big.Int, when time.Time) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	ca.revoked[serial.String()] = when
}

// IsRevoked reports whether the certificate serial appears on the CRL.
func (ca *CA) IsRevoked(cert *x509.Certificate) bool {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	_, ok := ca.revoked[cert.SerialNumber.String()]
	return ok
}

// CRL produces a signed certificate revocation list valid for the given
// duration.
func (ca *CA) CRL(validity time.Duration) (*x509.RevocationList, error) {
	ca.mu.Lock()
	entries := make([]x509.RevocationListEntry, 0, len(ca.revoked))
	for serial, when := range ca.revoked {
		n, ok := new(big.Int).SetString(serial, 10)
		if !ok {
			ca.mu.Unlock()
			return nil, fmt.Errorf("pki: corrupt serial %q on CRL", serial)
		}
		entries = append(entries, x509.RevocationListEntry{SerialNumber: n, RevocationTime: when})
	}
	ca.mu.Unlock()
	now := time.Now()
	tmpl := &x509.RevocationList{
		Number:                    big.NewInt(now.UnixNano()),
		ThisUpdate:                now,
		NextUpdate:                now.Add(validity),
		RevokedCertificateEntries: entries,
	}
	der, err := x509.CreateRevocationList(rand.Reader, tmpl, ca.cred.Certificate, ca.cred.PrivateKey)
	if err != nil {
		return nil, fmt.Errorf("pki: sign CRL: %w", err)
	}
	return x509.ParseRevocationList(der)
}

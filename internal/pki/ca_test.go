package pki

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"sync"
	"testing"
	"time"
)

var (
	testKeyOnce sync.Once
	testKeys    [3]*rsa.PrivateKey
)

// sharedKeys generates a small pool of keys once for this package's tests.
// (internal/testpki cannot be used here: import cycle.)
func sharedKeys(t *testing.T) [3]*rsa.PrivateKey {
	t.Helper()
	testKeyOnce.Do(func() {
		var wg sync.WaitGroup
		for i := range testKeys {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				k, err := rsa.GenerateKey(rand.Reader, 2048)
				if err != nil {
					panic(err)
				}
				testKeys[i] = k
			}(i)
		}
		wg.Wait()
	})
	return testKeys
}

func newTestCA(t *testing.T) *CA {
	t.Helper()
	keys := sharedKeys(t)
	ca, err := NewCA(pkiTestCAConfig(keys[0]))
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	return ca
}

func pkiTestCAConfig(key *rsa.PrivateKey) CAConfig {
	return CAConfig{Name: MustParseDN("/C=US/O=PKI Test/CN=PKI Test CA"), Key: key}
}

func TestNewCASelfSigned(t *testing.T) {
	ca := newTestCA(t)
	cert := ca.Certificate()
	if !cert.IsCA {
		t.Error("CA certificate lacks IsCA")
	}
	if err := cert.CheckSignatureFrom(cert); err != nil {
		t.Errorf("self-signature invalid: %v", err)
	}
	if got := ca.SubjectDN().String(); got != "/C=US/O=PKI Test/CN=PKI Test CA" {
		t.Errorf("subject = %q", got)
	}
	if cert.KeyUsage&x509.KeyUsageCertSign == 0 {
		t.Error("CA lacks certSign key usage")
	}
}

func TestNewCARequiresName(t *testing.T) {
	if _, err := NewCA(CAConfig{}); err == nil {
		t.Fatal("expected error for unnamed CA")
	}
}

func TestIssueUserCertificate(t *testing.T) {
	ca := newTestCA(t)
	keys := sharedKeys(t)
	subject := MustParseDN("/C=US/O=PKI Test/CN=alice")
	cert, err := ca.Issue(IssueRequest{
		Subject:   subject,
		PublicKey: &keys[1].PublicKey,
		Lifetime:  24 * time.Hour,
	})
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	if err := cert.CheckSignatureFrom(ca.Certificate()); err != nil {
		t.Errorf("signature: %v", err)
	}
	dn, err := ParseRawDN(cert.RawSubject)
	if err != nil || !dn.Equal(subject) {
		t.Errorf("subject = %v (err %v), want %v", dn, err, subject)
	}
	if cert.IsCA {
		t.Error("user certificate must not be a CA")
	}
	if got := time.Until(cert.NotAfter); got > 25*time.Hour {
		t.Errorf("lifetime too long: %v", got)
	}
	// Verifies with the standard library against the CA pool (no proxies
	// involved, so stdlib path validation must accept it).
	roots := x509.NewCertPool()
	roots.AddCert(ca.Certificate())
	if _, err := cert.Verify(x509.VerifyOptions{
		Roots:     roots,
		KeyUsages: []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	}); err != nil {
		t.Errorf("stdlib Verify: %v", err)
	}
}

func TestIssueValidation(t *testing.T) {
	ca := newTestCA(t)
	keys := sharedKeys(t)
	if _, err := ca.Issue(IssueRequest{PublicKey: &keys[1].PublicKey}); err == nil {
		t.Error("expected error without subject")
	}
	if _, err := ca.Issue(IssueRequest{Subject: MustParseDN("/CN=x")}); err == nil {
		t.Error("expected error without public key")
	}
}

func TestSerialNumbersUnique(t *testing.T) {
	ca := newTestCA(t)
	keys := sharedKeys(t)
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		cert, err := ca.Issue(IssueRequest{
			Subject:   MustParseDN("/CN=serial-test"),
			PublicKey: &keys[1].PublicKey,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := cert.SerialNumber.String()
		if seen[s] {
			t.Fatalf("duplicate serial %s", s)
		}
		seen[s] = true
	}
}

func TestIssueHostCredential(t *testing.T) {
	ca := newTestCA(t)
	cred, err := ca.IssueHostCredential(MustParseDN("/C=US/O=PKI Test"), "portal.example.org", time.Hour, 2048)
	if err != nil {
		t.Fatalf("IssueHostCredential: %v", err)
	}
	if cred.Certificate.DNSNames[0] != "portal.example.org" {
		t.Errorf("DNSNames = %v", cred.Certificate.DNSNames)
	}
	hasServerAuth := false
	for _, eku := range cred.Certificate.ExtKeyUsage {
		if eku == x509.ExtKeyUsageServerAuth {
			hasServerAuth = true
		}
	}
	if !hasServerAuth {
		t.Error("host certificate lacks serverAuth EKU")
	}
	if err := cred.Validate(time.Now()); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestRevocationAndCRL(t *testing.T) {
	ca := newTestCA(t)
	keys := sharedKeys(t)
	cert, err := ca.Issue(IssueRequest{Subject: MustParseDN("/CN=revokee"), PublicKey: &keys[1].PublicKey})
	if err != nil {
		t.Fatal(err)
	}
	if ca.IsRevoked(cert) {
		t.Fatal("fresh certificate already revoked")
	}
	ca.Revoke(cert)
	if !ca.IsRevoked(cert) {
		t.Fatal("revoked certificate not reported revoked")
	}
	crl, err := ca.CRL(time.Hour)
	if err != nil {
		t.Fatalf("CRL: %v", err)
	}
	if len(crl.RevokedCertificateEntries) != 1 || crl.RevokedCertificateEntries[0].SerialNumber.Cmp(cert.SerialNumber) != 0 {
		t.Errorf("CRL lists %v, want the one revoked serial", crl.RevokedCertificateEntries)
	}
}

func TestLoadCA(t *testing.T) {
	ca := newTestCA(t)
	keys := sharedKeys(t)
	loaded, err := LoadCA(ca.Credential())
	if err != nil {
		t.Fatalf("LoadCA: %v", err)
	}
	cert, err := loaded.Issue(IssueRequest{Subject: MustParseDN("/CN=after-load"), PublicKey: &keys[1].PublicKey})
	if err != nil {
		t.Fatalf("Issue after load: %v", err)
	}
	if err := cert.CheckSignatureFrom(ca.Certificate()); err != nil {
		t.Errorf("signature: %v", err)
	}
	// Loading a non-CA credential must fail.
	user, _ := ca.IssueCredentialForKey(MustParseDN("/CN=not-a-ca"), time.Hour, keys[1])
	if _, err := LoadCA(user); err == nil {
		t.Fatal("LoadCA accepted a non-CA credential")
	}
}

func TestGenerateKeyRejectsWeak(t *testing.T) {
	if _, err := GenerateKey(512); err == nil {
		t.Fatal("expected error for 512-bit key")
	}
}

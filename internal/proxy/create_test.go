package proxy

import (
	"bytes"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"testing"
	"time"

	"repro/internal/pki"
	"repro/internal/testpki"
)

func TestCreateLegacyProxy(t *testing.T) {
	user := testpki.User(t, "proxy-alice")
	p, err := New(user, Options{Type: Legacy, Lifetime: time.Hour})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	wantSubject := user.Subject() + "/CN=proxy"
	if got := p.Subject(); got != wantSubject {
		t.Errorf("subject = %q, want %q", got, wantSubject)
	}
	if !IsProxy(p.Certificate) {
		t.Error("IsProxy = false for legacy proxy")
	}
	if _, ok, _ := InfoFromCert(p.Certificate); ok {
		t.Error("legacy proxy must not carry ProxyCertInfo")
	}
	if len(p.Chain) != 1 || p.Chain[0] != user.Certificate {
		t.Errorf("chain should contain the issuer EEC, got %d certs", len(p.Chain))
	}
	if err := p.Validate(time.Now()); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestCreateLegacyLimitedProxy(t *testing.T) {
	user := testpki.User(t, "proxy-alice")
	p, err := New(user, Options{Type: LegacyLimited})
	if err != nil {
		t.Fatal(err)
	}
	dn, _ := p.SubjectDN()
	if dn.CommonName() != "limited proxy" {
		t.Errorf("CN = %q", dn.CommonName())
	}
	lim, err := isLimited(p.Certificate)
	if err != nil || !lim {
		t.Errorf("isLimited = %v, %v", lim, err)
	}
}

func TestCreateRFC3820Proxy(t *testing.T) {
	user := testpki.User(t, "proxy-alice")
	p, err := New(user, Options{Type: RFC3820, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ci, ok, err := InfoFromCert(p.Certificate)
	if err != nil || !ok {
		t.Fatalf("InfoFromCert: ok=%v err=%v", ok, err)
	}
	if !ci.PolicyLanguage.Equal(OIDPolicyInheritAll) {
		t.Errorf("policy language %v", ci.PolicyLanguage)
	}
	if ci.PathLenConstraint != -1 {
		t.Errorf("pathlen = %d, want -1", ci.PathLenConstraint)
	}
	// RFC 3820 CN is the decimal serial.
	dn, _ := p.SubjectDN()
	if dn.CommonName() != p.Certificate.SerialNumber.String() {
		t.Errorf("CN %q != serial %s", dn.CommonName(), p.Certificate.SerialNumber)
	}
	if !IsProxy(p.Certificate) {
		t.Error("IsProxy = false for RFC3820 proxy")
	}
}

func TestCreateRestrictedProxy(t *testing.T) {
	user := testpki.User(t, "proxy-alice")
	p, err := New(user, Options{
		Type:          RFC3820Restricted,
		RestrictedOps: []string{OpFileRead, OpFileWrite},
	})
	if err != nil {
		t.Fatal(err)
	}
	ci, ok, _ := InfoFromCert(p.Certificate)
	if !ok || !ci.PolicyLanguage.Equal(OIDPolicyRestrictedOps) {
		t.Fatalf("restricted policy missing: %+v", ci)
	}
	ops, err := decodeOps(ci.Policy)
	if err != nil || len(ops) != 2 {
		t.Errorf("ops = %v, %v", ops, err)
	}
}

func TestProxyLifetimeClampedToIssuer(t *testing.T) {
	user := testpki.User(t, "proxy-alice")
	p, err := New(user, Options{Type: Legacy, Lifetime: 100 * 365 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if p.Certificate.NotAfter.After(user.Certificate.NotAfter) {
		t.Error("proxy outlives its issuer")
	}
}

func TestProxyChainedDelegation(t *testing.T) {
	user := testpki.User(t, "proxy-alice")
	p1, err := New(user, Options{Type: RFC3820, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(p1, Options{Type: RFC3820, Lifetime: 30 * time.Minute})
	if err != nil {
		t.Fatalf("second-level delegation: %v", err)
	}
	if len(p2.Chain) != 2 {
		t.Errorf("chain length = %d, want 2 (proxy1 + EEC)", len(p2.Chain))
	}
	// p2's subject must extend p1's by one CN.
	dn2, _ := p2.SubjectDN()
	dn1, _ := p1.SubjectDN()
	if len(dn2) != len(dn1)+1 || !dn2[:len(dn1)].Equal(dn1) {
		t.Errorf("subject discipline violated: %s vs %s", dn2, dn1)
	}
}

func TestLimitedProxyOnlyDelegatesLimited(t *testing.T) {
	user := testpki.User(t, "proxy-alice")
	lim, err := New(user, Options{Type: LegacyLimited})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(lim, Options{Type: Legacy}); err == nil {
		t.Error("limited proxy delegated a full legacy proxy")
	}
	if _, err := New(lim, Options{Type: LegacyLimited}); err != nil {
		t.Errorf("limited->limited should work: %v", err)
	}
	rlim, err := New(user, Options{Type: RFC3820Limited})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(rlim, Options{Type: RFC3820}); err == nil {
		t.Error("RFC limited proxy delegated a full proxy")
	}
}

func TestPathLenZeroForbidsDelegation(t *testing.T) {
	user := testpki.User(t, "proxy-alice")
	p, err := New(user, Options{Type: RFC3820, PathLenConstraint: PathLen(0)})
	if err != nil {
		t.Fatal(err)
	}
	ci, _, _ := InfoFromCert(p.Certificate)
	if ci.PathLenConstraint != 0 {
		t.Fatalf("pathlen = %d, want 0", ci.PathLenConstraint)
	}
	if _, err := New(p, Options{Type: RFC3820}); err == nil {
		t.Error("delegation beneath pathlen-0 proxy succeeded")
	}
}

func TestCreateRejectsCAIssuer(t *testing.T) {
	ca := testpki.CA(t)
	if _, err := New(ca.Credential(), Options{Type: Legacy}); err == nil {
		t.Fatal("CA credential allowed to issue a proxy")
	}
}

func TestCreateRejectsIncompleteIssuer(t *testing.T) {
	user := testpki.User(t, "proxy-alice")
	if _, err := Create(nil, user.PrivateKey.Public(), Options{}); err == nil {
		t.Error("nil issuer accepted")
	}
	if _, err := Create(&pki.Credential{Certificate: user.Certificate}, user.PrivateKey.Public(), Options{}); err == nil {
		t.Error("issuer without key accepted")
	}
	if _, err := Create(user, nil, Options{}); err == nil {
		t.Error("nil public key accepted")
	}
	if _, err := Create(user, user.PrivateKey.Public(), Options{Type: Type(99)}); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestCreateRejectsExpiredIssuer(t *testing.T) {
	ca := testpki.CA(t)
	key := testpki.Key(t, 0)
	cert, err := ca.Issue(pki.IssueRequest{
		Subject:   testpki.BaseDN.WithCN(testpki.FreshName("shortlived")),
		PublicKey: &key.PublicKey,
		Lifetime:  time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	expired := &pki.Credential{Certificate: cert, PrivateKey: key}
	if _, err := New(expired, Options{Type: Legacy}); err == nil {
		t.Fatal("expired issuer allowed to delegate")
	}
}

func TestIsProxyOnOrdinaryCerts(t *testing.T) {
	user := testpki.User(t, "proxy-alice")
	if IsProxy(user.Certificate) {
		t.Error("EEC reported as proxy")
	}
	if IsProxy(testpki.CA(t).Certificate()) {
		t.Error("CA reported as proxy")
	}
}

// A certificate whose CN happens to be "proxy" but whose issuer is a CA
// (so subject != issuer+CN) must not be considered a proxy.
func TestIsProxyCNProxyButNotChained(t *testing.T) {
	ca := testpki.CA(t)
	key := testpki.Key(t, 1)
	cert, err := ca.Issue(pki.IssueRequest{
		Subject:   pki.MustParseDN("/C=US/O=Elsewhere/CN=proxy"),
		PublicKey: &key.PublicKey,
		Lifetime:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if IsProxy(cert) {
		t.Error("non-chained CN=proxy certificate misdetected as proxy")
	}
}

func TestProxyTypeString(t *testing.T) {
	for typ, want := range map[Type]string{
		Legacy: "legacy", LegacyLimited: "legacy-limited", RFC3820: "rfc3820",
		RFC3820Limited: "rfc3820-limited", RFC3820Independent: "rfc3820-independent",
		RFC3820Restricted: "rfc3820-restricted", Type(42): "proxy.Type(42)",
	} {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(typ), got, want)
		}
	}
}

func TestProxyKeyUsage(t *testing.T) {
	user := testpki.User(t, "proxy-alice")
	p, err := New(user, Options{Type: RFC3820})
	if err != nil {
		t.Fatal(err)
	}
	if p.Certificate.KeyUsage&x509.KeyUsageDigitalSignature == 0 {
		t.Error("proxy lacks digitalSignature")
	}
	if p.Certificate.KeyUsage&x509.KeyUsageCertSign != 0 {
		t.Error("proxy must not carry certSign")
	}
	if p.Certificate.IsCA {
		t.Error("proxy must not be a CA")
	}
}

// Create's subject is, byte for byte, the issuer's parsed subject plus one
// CN, re-encoded by DN.Marshal — for a DN.Marshal-form issuer it is built
// by appending to the issuer's bytes.
func TestCreateSubjectBytes(t *testing.T) {
	user := testpki.User(t, "proxy-alice")
	p, err := New(user, Options{Type: Legacy, KeyAlgorithm: pki.AlgEd25519})
	if err != nil {
		t.Fatal(err)
	}
	dn, err := user.SubjectDN()
	if err != nil {
		t.Fatal(err)
	}
	want, err := dn.WithCN("proxy").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Certificate.RawSubject, want) {
		t.Errorf("subject %x, want %x", p.Certificate.RawSubject, want)
	}
}

// An issuer whose subject is not in DN.Marshal's form — PrintableStrings,
// as crypto/x509 writes a pkix.Name — takes the parse-and-re-encode path,
// and the resulting chain verifies through the parsed subject comparison.
func TestCreateFromPrintableStringIssuer(t *testing.T) {
	ca := testpki.CA(t).Credential()
	key := testpki.Key(t, 4)
	serial, err := rand.Int(rand.Reader, big.NewInt(1<<62))
	if err != nil {
		t.Fatal(err)
	}
	der, err := x509.CreateCertificate(rand.Reader, &x509.Certificate{
		SerialNumber:          serial,
		Subject:               pkix.Name{Country: []string{"US"}, Organization: []string{"Printable Grid"}, CommonName: testpki.FreshName("printable")},
		NotBefore:             time.Now().Add(-time.Minute),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageClientAuth},
		BasicConstraintsValid: true,
	}, ca.Certificate, &key.PublicKey, ca.PrivateKey)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	if pki.CanonicalRawDN(cert.RawSubject) {
		t.Fatal("a pkix.Name subject reads as DN.Marshal form")
	}
	issuer := &pki.Credential{Certificate: cert, PrivateKey: key}
	p, err := New(issuer, Options{Type: RFC3820, KeyAlgorithm: pki.AlgEd25519})
	if err != nil {
		t.Fatal(err)
	}
	dn, err := issuer.SubjectDN()
	if err != nil {
		t.Fatal(err)
	}
	want, err := dn.WithCN(p.Certificate.SerialNumber.String()).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Certificate.RawSubject, want) {
		t.Errorf("subject %x, want the re-encoded %x", p.Certificate.RawSubject, want)
	}
	res, err := verifyChain(t, p)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !res.Identity.Equal(dn) {
		t.Errorf("identity %s, want %s", res.Identity, dn)
	}
}

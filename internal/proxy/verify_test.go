package proxy

import (
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"math/big"
	"strings"
	"testing"
	"time"

	"repro/internal/pki"
	"repro/internal/testpki"
)

func rootPool(t *testing.T) *x509.CertPool {
	t.Helper()
	pool := x509.NewCertPool()
	pool.AddCert(testpki.CA(t).Certificate())
	return pool
}

func verifyChain(t *testing.T, cred *pki.Credential) (*Result, error) {
	t.Helper()
	return Verify(cred.CertChain(), VerifyOptions{Roots: rootPool(t)})
}

func TestVerifyEECOnly(t *testing.T) {
	user := testpki.User(t, "verify-alice")
	res, err := verifyChain(t, user)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.Depth != 0 || res.Limited || res.Independent {
		t.Errorf("unexpected result %+v", res)
	}
	if res.IdentityString() != user.Subject() {
		t.Errorf("identity %q != subject %q", res.IdentityString(), user.Subject())
	}
}

func TestVerifyLegacyProxy(t *testing.T) {
	user := testpki.User(t, "verify-alice")
	p, err := New(user, Options{Type: Legacy, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	res, err := verifyChain(t, p)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.Depth != 1 {
		t.Errorf("depth = %d", res.Depth)
	}
	// The verified identity is the user, not the proxy subject.
	if res.IdentityString() != user.Subject() {
		t.Errorf("identity = %q", res.IdentityString())
	}
	if res.Limited {
		t.Error("full proxy reported limited")
	}
}

func TestVerifyRFC3820Proxy(t *testing.T) {
	user := testpki.User(t, "verify-alice")
	p, err := New(user, Options{Type: RFC3820, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	res, err := verifyChain(t, p)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.LeafInfo == nil || !res.LeafInfo.PolicyLanguage.Equal(OIDPolicyInheritAll) {
		t.Errorf("LeafInfo = %+v", res.LeafInfo)
	}
}

func TestVerifyChainedProxies(t *testing.T) {
	user := testpki.User(t, "verify-alice")
	p1, _ := New(user, Options{Type: RFC3820, Lifetime: time.Hour})
	p2, _ := New(p1, Options{Type: RFC3820, Lifetime: 30 * time.Minute})
	p3, err := New(p2, Options{Type: RFC3820, Lifetime: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	res, err := verifyChain(t, p3)
	if err != nil {
		t.Fatalf("Verify 3-deep chain: %v", err)
	}
	if res.Depth != 3 {
		t.Errorf("depth = %d, want 3", res.Depth)
	}
	if res.IdentityString() != user.Subject() {
		t.Errorf("identity = %q", res.IdentityString())
	}
}

func TestVerifyLimitedPropagates(t *testing.T) {
	user := testpki.User(t, "verify-alice")
	p1, _ := New(user, Options{Type: LegacyLimited, Lifetime: time.Hour})
	p2, err := New(p1, Options{Type: LegacyLimited, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	res, err := verifyChain(t, p2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Limited {
		t.Error("limited flag lost through chain")
	}
}

func TestVerifyRejectsUntrustedRoot(t *testing.T) {
	user := testpki.User(t, "verify-alice")
	p, _ := New(user, Options{Type: Legacy, Lifetime: time.Hour})
	otherCA, err := pki.NewCA(pki.CAConfig{Name: pki.MustParseDN("/CN=Rogue CA"), Key: testpki.Key(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(otherCA.Certificate())
	if _, err := Verify(p.CertChain(), VerifyOptions{Roots: pool}); err == nil {
		t.Fatal("chain accepted under wrong trust root")
	}
}

func TestVerifyRejectsExpiredProxy(t *testing.T) {
	user := testpki.User(t, "verify-alice")
	p, _ := New(user, Options{Type: Legacy, Lifetime: time.Hour})
	_, err := Verify(p.CertChain(), VerifyOptions{
		Roots:       rootPool(t),
		CurrentTime: time.Now().Add(2 * time.Hour),
	})
	if err == nil {
		t.Fatal("expired proxy accepted")
	}
}

func TestVerifyRejectsForgedProxy(t *testing.T) {
	// Mallory signs a proxy claiming to extend Alice's subject, using her
	// own key. The issuer linkage check must reject it.
	alice := testpki.User(t, "verify-alice")
	mallory := testpki.User(t, "verify-mallory")
	// Mallory self-signs an impostor certificate bearing Alice's exact
	// subject, then issues a proxy from it. The proxy's issuer name matches
	// Alice's subject, but the signature verifies only under Mallory's key.
	impostorTmpl := &x509.Certificate{
		SerialNumber: big.NewInt(666),
		RawSubject:   alice.Certificate.RawSubject,
		NotBefore:    time.Now().Add(-time.Minute),
		NotAfter:     time.Now().Add(time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
	}
	impostorDER, err := x509.CreateCertificate(rand.Reader, impostorTmpl, impostorTmpl,
		mallory.PrivateKey.Public(), mallory.PrivateKey)
	if err != nil {
		t.Fatal(err)
	}
	impostor, err := x509.ParseCertificate(impostorDER)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := Create(
		&pki.Credential{Certificate: impostor, PrivateKey: mallory.PrivateKey},
		&testpki.Key(t, 2).PublicKey,
		Options{Type: Legacy, Lifetime: time.Hour},
	)
	if err != nil {
		t.Fatal(err)
	}
	chain := []*x509.Certificate{forged, alice.Certificate}
	if _, err := Verify(chain, VerifyOptions{Roots: rootPool(t)}); err == nil {
		t.Fatal("forged proxy signature accepted")
	}
}

func TestVerifyRejectsWrongIssuerName(t *testing.T) {
	// A proxy signed by Mallory's credential cannot be attached to Alice's
	// EEC: issuer DN will not match Alice's subject.
	alice := testpki.User(t, "verify-alice")
	mallory := testpki.User(t, "verify-mallory")
	p, err := New(mallory, Options{Type: Legacy, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	chain := []*x509.Certificate{p.Certificate, alice.Certificate}
	if _, err := Verify(chain, VerifyOptions{Roots: rootPool(t)}); err == nil {
		t.Fatal("proxy grafted onto wrong EEC accepted")
	}
}

func TestVerifyRejectsDepthOverflow(t *testing.T) {
	user := testpki.User(t, "verify-alice")
	cred := user
	for i := 0; i < 3; i++ {
		var err error
		cred, err = New(cred, Options{Type: RFC3820, Lifetime: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Verify(cred.CertChain(), VerifyOptions{Roots: rootPool(t), MaxDepth: 2}); err == nil {
		t.Fatal("chain deeper than MaxDepth accepted")
	}
	if _, err := Verify(cred.CertChain(), VerifyOptions{Roots: rootPool(t), MaxDepth: 3}); err != nil {
		t.Fatalf("chain at MaxDepth rejected: %v", err)
	}
}

func TestVerifyRejectsPathLenViolation(t *testing.T) {
	user := testpki.User(t, "verify-alice")
	p1, err := New(user, Options{Type: RFC3820, Lifetime: time.Hour, PathLenConstraint: PathLen(1)})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(p1, Options{Type: RFC3820, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifyChain(t, p2); err != nil {
		t.Fatalf("one level below pathlen-1 should verify: %v", err)
	}
	// Creating below p2 is allowed by p2 itself (unlimited), but p1's
	// constraint of 1 must fail verification of the 3-deep chain.
	p3, err := New(p2, Options{Type: RFC3820, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifyChain(t, p3); err == nil {
		t.Fatal("pathlen constraint not enforced during verification")
	}
}

func TestVerifyRejectsMixedStyles(t *testing.T) {
	user := testpki.User(t, "verify-alice")
	p1, err := New(user, Options{Type: Legacy, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(p1, Options{Type: RFC3820, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifyChain(t, p2); err == nil {
		t.Fatal("mixed legacy/RFC chain accepted")
	}
}

func TestVerifyRevocationHook(t *testing.T) {
	user := testpki.User(t, "verify-alice")
	p, _ := New(user, Options{Type: Legacy, Lifetime: time.Hour})
	revokedSerial := user.Certificate.SerialNumber
	_, err := Verify(p.CertChain(), VerifyOptions{
		Roots: rootPool(t),
		IsRevoked: func(c *x509.Certificate) bool {
			return c.SerialNumber.Cmp(revokedSerial) == 0
		},
	})
	if err == nil {
		t.Fatal("revoked EEC accepted")
	}
}

func TestVerifyEmptyAndNilInputs(t *testing.T) {
	if _, err := Verify(nil, VerifyOptions{Roots: rootPool(t)}); err == nil {
		t.Error("nil chain accepted")
	}
	user := testpki.User(t, "verify-alice")
	if _, err := Verify(user.CertChain(), VerifyOptions{}); err == nil {
		t.Error("nil roots accepted")
	}
}

func TestVerifyChainOfOnlyProxies(t *testing.T) {
	user := testpki.User(t, "verify-alice")
	p, _ := New(user, Options{Type: Legacy, Lifetime: time.Hour})
	// Leaf only — no EEC in the presented chain.
	if _, err := Verify([]*x509.Certificate{p.Certificate}, VerifyOptions{Roots: rootPool(t)}); err == nil {
		t.Fatal("chain without EEC accepted")
	}
}

func TestVerifyRestrictedOpsIntersection(t *testing.T) {
	user := testpki.User(t, "verify-alice")
	p1, err := New(user, Options{
		Type: RFC3820Restricted, Lifetime: time.Hour,
		RestrictedOps: []string{OpJobSubmit, OpFileRead},
	})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(p1, Options{
		Type: RFC3820Restricted, Lifetime: time.Hour,
		RestrictedOps: []string{OpFileRead, OpFileWrite},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := verifyChain(t, p2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RestrictedOps) != 1 || res.RestrictedOps[0] != OpFileRead {
		t.Errorf("intersection = %v, want [file-read]", res.RestrictedOps)
	}
	if res.Permits(OpJobSubmit) || !res.Permits(OpFileRead) {
		t.Error("Permits does not reflect intersection")
	}
}

func TestVerifyIndependentPolicy(t *testing.T) {
	user := testpki.User(t, "verify-alice")
	p, err := New(user, Options{Type: RFC3820Independent, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	res, err := verifyChain(t, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Independent {
		t.Error("independent flag not set")
	}
	if res.Permits(OpFileRead) {
		t.Error("independent proxy must not inherit rights")
	}
}

// A handcrafted proxy whose subject appends a non-CN RDN must be rejected.
func TestVerifyRejectsNonCNExtension(t *testing.T) {
	user := testpki.User(t, "verify-alice")
	userDN, _ := user.SubjectDN()
	badDN := append(append(pki.DN{}, userDN...), pki.RDN{Type: "OU", Value: "proxy"})
	rawSubject, err := badDN.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	key := testpki.Key(t, 2)
	serial, _ := rand.Int(rand.Reader, big.NewInt(1<<62))
	ci := &CertInfo{PathLenConstraint: -1, PolicyLanguage: OIDPolicyInheritAll}
	ext, _ := ci.Extension()
	tmplOK := &x509.Certificate{
		SerialNumber: serial,
		RawSubject:   rawSubject,
		NotBefore:    time.Now().Add(-time.Minute),
		NotAfter:     time.Now().Add(time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
	}
	tmplOK.ExtraExtensions = append(tmplOK.ExtraExtensions, ext)
	der, err := x509.CreateCertificate(rand.Reader, tmplOK, user.Certificate, &key.PublicKey, user.PrivateKey)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	chain := []*x509.Certificate{cert, user.Certificate}
	if _, err := Verify(chain, VerifyOptions{Roots: rootPool(t)}); err == nil {
		t.Fatal("proxy with non-CN subject extension accepted")
	}
}

// craftProxy signs under issuer a proxy that keeps the subject discipline
// but carries exts as its only extensions.
func craftProxy(t *testing.T, issuer *pki.Credential, exts ...pkix.Extension) *pki.Credential {
	t.Helper()
	key := testpki.Key(t, 2)
	serial, err := rand.Int(rand.Reader, big.NewInt(1<<62))
	if err != nil {
		t.Fatal(err)
	}
	subject, ok := pki.AppendCN(issuer.Certificate.RawSubject, serial.String())
	if !ok {
		t.Fatal("issuer subject is not in DN.Marshal form")
	}
	der, err := x509.CreateCertificate(rand.Reader, &x509.Certificate{
		SerialNumber:    serial,
		RawSubject:      subject,
		NotBefore:       time.Now().Add(-time.Minute),
		NotAfter:        time.Now().Add(time.Hour),
		KeyUsage:        x509.KeyUsageDigitalSignature,
		ExtraExtensions: exts,
	}, issuer.Certificate, &key.PublicKey, issuer.PrivateKey)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	return &pki.Credential{Certificate: cert, PrivateKey: key, Chain: issuer.CertChain()}
}

// certInfoExt is an inherit-all ProxyCertInfo with the given criticality.
func certInfoExt(t *testing.T, critical bool) pkix.Extension {
	t.Helper()
	ext, err := (&CertInfo{PathLenConstraint: Unlimited, PolicyLanguage: OIDPolicyInheritAll}).Extension()
	if err != nil {
		t.Fatal(err)
	}
	ext.Critical = critical
	return ext
}

// RFC 5280 §4.2: a critical extension the verifier does not recognise
// refuses the certificate; an unknown non-critical one is ignored.
func TestVerifyRejectsUnknownCriticalExtension(t *testing.T) {
	user := testpki.User(t, "verify-alice")
	unknown := pkix.Extension{Id: asn1.ObjectIdentifier{1, 2, 3, 4, 5}, Value: []byte{0x05, 0x00}}
	if _, err := verifyChain(t, craftProxy(t, user, certInfoExt(t, true), unknown)); err != nil {
		t.Fatalf("unknown non-critical extension refused: %v", err)
	}
	unknown.Critical = true
	_, err := verifyChain(t, craftProxy(t, user, certInfoExt(t, true), unknown))
	if err == nil || !strings.Contains(err.Error(), "unhandled critical extension 1.2.3.4.5") {
		t.Fatalf("proxy with an unknown critical extension: %v", err)
	}
}

// RFC 3820 §3.8: ProxyCertInfo must be critical, so that a proxy-unaware
// verifier refuses the proxy rather than take it for the user.
func TestVerifyRejectsNonCriticalProxyCertInfo(t *testing.T) {
	user := testpki.User(t, "verify-alice")
	_, err := verifyChain(t, craftProxy(t, user, certInfoExt(t, false)))
	if err == nil || !strings.Contains(err.Error(), "ProxyCertInfo extension is not critical") {
		t.Fatalf("proxy with a non-critical ProxyCertInfo: %v", err)
	}
}

package proxy

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"fmt"
	"io"
	"math/big"
	"strings"
	"testing"
	"time"

	"repro/internal/pki"
	"repro/internal/testpki"
)

// The minted bytes are held to the standard library's: for the same serial,
// validity, subject, key and issuer, x509.CreateCertificate and
// x509.CreateCertificateRequest write the same TBS, and the same whole
// object wherever the signature is deterministic (RSA PKCS #1 v1.5 and
// Ed25519). The ProxyCertInfo they are given is encoded by encoding/asn1.

var allTypes = []Type{Legacy, LegacyLimited, RFC3820, RFC3820Limited, RFC3820Independent, RFC3820Restricted}

var policyOIDs = map[Type]asn1.ObjectIdentifier{
	RFC3820:            OIDPolicyInheritAll,
	RFC3820Limited:     OIDPolicyLimited,
	RFC3820Independent: OIDPolicyIndependent,
	RFC3820Restricted:  OIDPolicyRestrictedOps,
}

// refCertInfo encodes a ProxyCertInfo with encoding/asn1.
func refCertInfo(tb testing.TB, pathLen int, lang asn1.ObjectIdentifier, policy []byte) []byte {
	tb.Helper()
	pol := proxyPolicyASN{PolicyLanguage: lang, Policy: policy}
	var der []byte
	var err error
	if pathLen < 0 {
		der, err = asn1.Marshal(certInfoNoPathLen{Policy: pol})
	} else {
		der, err = asn1.Marshal(certInfoWithPathLen{PathLen: pathLen, Policy: pol})
	}
	if err != nil {
		tb.Fatal(err)
	}
	return der
}

// refTemplate is the x509 template of a proxy of type typ with the given
// serial, validity and subject for key pub.
func refTemplate(tb testing.TB, typ Type, pathLen int, policy []byte, serial *big.Int, notBefore, notAfter time.Time, subject []byte, pub crypto.PublicKey) *x509.Certificate {
	tb.Helper()
	ku := x509.KeyUsageDigitalSignature
	if _, isRSA := pub.(*rsa.PublicKey); isRSA {
		ku |= x509.KeyUsageKeyEncipherment
	}
	tmpl := &x509.Certificate{SerialNumber: serial, RawSubject: subject, NotBefore: notBefore, NotAfter: notAfter, KeyUsage: ku}
	if lang, ok := policyOIDs[typ]; ok {
		tmpl.ExtraExtensions = []pkix.Extension{{Id: OIDProxyCertInfo, Critical: true, Value: refCertInfo(tb, pathLen, lang, policy)}}
	}
	return tmpl
}

// selfSignedEEC is an end-entity credential for key, signed by itself,
// carrying ski as its subject key identifier.
func selfSignedEEC(tb testing.TB, name string, key crypto.Signer, notAfter time.Time, ski []byte) *pki.Credential {
	tb.Helper()
	raw, err := testpki.BaseDN.WithCN(name).Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(7), RawSubject: raw,
		NotBefore: time.Now().Add(-time.Hour), NotAfter: notAfter,
		KeyUsage: x509.KeyUsageDigitalSignature, SubjectKeyId: ski, BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, key.Public(), key)
	if err != nil {
		tb.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		tb.Fatal(err)
	}
	return &pki.Credential{Certificate: cert, PrivateKey: key}
}

func generate(tb testing.TB, alg pki.KeyAlgorithm) crypto.Signer {
	tb.Helper()
	key, err := pki.GenerateSigner(pki.KeySpec{Algorithm: alg, Bits: 1024})
	if err != nil {
		tb.Fatal(err)
	}
	return key
}

// checkMint creates a proxy for pub under issuer and compares it with what
// x509.CreateCertificate writes for the serial and validity it chose.
func checkMint(t *testing.T, issuer *pki.Credential, pub crypto.PublicKey, opts Options) *x509.Certificate {
	t.Helper()
	der, err := CreateDER(issuer, pub, opts)
	if err != nil {
		t.Fatalf("CreateDER: %v", err)
	}
	got, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatalf("minted certificate does not parse: %v", err)
	}
	dn, err := pki.ParseRawDN(issuer.Certificate.RawSubject)
	if err != nil {
		t.Fatal(err)
	}
	cn := got.SerialNumber.String()
	switch opts.Type {
	case Legacy:
		cn = "proxy"
	case LegacyLimited:
		cn = "limited proxy"
	}
	subject, err := dn.WithCN(cn).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	pathLen := Unlimited
	if opts.PathLenConstraint != nil {
		pathLen = *opts.PathLenConstraint
	}
	policy := []byte(strings.Join(opts.RestrictedOps, "\n"))
	tmpl := refTemplate(t, opts.Type, pathLen, policy, got.SerialNumber, got.NotBefore, got.NotAfter, subject, pub)
	ref, err := x509.CreateCertificate(rand.Reader, tmpl, issuer.Certificate, pub, issuer.PrivateKey)
	if err != nil {
		t.Fatalf("x509.CreateCertificate: %v", err)
	}
	want, err := x509.ParseCertificate(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.RawTBSCertificate, want.RawTBSCertificate) {
		t.Fatalf("minted TBS differs from x509's at byte %d:\n got %x\nwant %x",
			firstDiff(got.RawTBSCertificate, want.RawTBSCertificate), got.RawTBSCertificate, want.RawTBSCertificate)
	}
	if _, randomized := issuer.PrivateKey.Public().(*ecdsa.PublicKey); !randomized && !bytes.Equal(der, ref) {
		t.Fatalf("minted certificate differs from x509's at byte %d", firstDiff(der, ref))
	}
	if err := issuer.Certificate.CheckSignature(got.SignatureAlgorithm, got.RawTBSCertificate, got.Signature); err != nil {
		t.Fatalf("minted signature: %v", err)
	}
	return got
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// Issuers: a user EEC, an EEC that carries a subject key identifier, and
// RSA, ECDSA and Ed25519 proxies; subject keys of all three algorithms;
// every type, path lengths none, 0 and 3; one lifetime past 2049.
func TestMintMatchesX509(t *testing.T) {
	user := testpki.User(t, "mint-alice")
	ski := selfSignedEEC(t, "mint-ski", testpki.Key(t, 5), time.Date(2060, 1, 2, 3, 4, 5, 0, time.UTC),
		[]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	issuers := map[string]*pki.Credential{"user EEC": user, "EEC with SKI": ski}
	for _, alg := range pki.KeyAlgorithms() {
		p, err := New(user, Options{KeyAlgorithm: alg, KeyBits: 1024, Lifetime: 2 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		issuers[alg.String()+" proxy"] = p
	}
	keys := map[pki.KeyAlgorithm]crypto.PublicKey{pki.AlgRSA: testpki.Key(t, 6).Public()}
	for _, alg := range []pki.KeyAlgorithm{pki.AlgECDSAP256, pki.AlgEd25519} {
		keys[alg] = generate(t, alg).Public()
	}
	for name, issuer := range issuers {
		for alg, pub := range keys {
			for _, typ := range allTypes {
				pathLens := []*int{nil}
				if typ >= RFC3820 && typ <= RFC3820Restricted {
					pathLens = append(pathLens, PathLen(0), PathLen(3))
				}
				for _, pl := range pathLens {
					opts := Options{Type: typ, Lifetime: time.Hour, PathLenConstraint: pl}
					if typ == RFC3820Restricted {
						opts.RestrictedOps = []string{"job-submit", "file-read"}
					}
					label := "none"
					if pl != nil {
						label = fmt.Sprint(*pl)
					}
					t.Run(fmt.Sprintf("%s/%v/%v/pathlen=%s", name, alg, typ, label), func(t *testing.T) {
						checkMint(t, issuer, pub, opts)
					})
				}
			}
		}
	}
	// Past 2049 the validity is a GeneralizedTime.
	got := checkMint(t, ski, keys[pki.AlgEd25519], Options{Type: RFC3820, Lifetime: 40 * 365 * 24 * time.Hour})
	if got.NotAfter.Year() < 2050 {
		t.Fatalf("NotAfter %v: the lifetime did not run past 2049", got.NotAfter)
	}
}

// CreateRequest writes x509.CreateCertificateRequest's bytes for the same
// subject and key, and the request proves possession.
func TestCreateRequestMatchesX509(t *testing.T) {
	subjects := [][]byte{testpki.User(t, "mint-req-alice").Certificate.RawSubject, nil}
	for _, alg := range pki.KeyAlgorithms() {
		key := generate(t, alg)
		for _, subject := range subjects {
			der, err := CreateRequest(subject, key)
			if err != nil {
				t.Fatalf("%v: CreateRequest: %v", alg, err)
			}
			ref, err := x509.CreateCertificateRequest(rand.Reader, &x509.CertificateRequest{RawSubject: subject}, key)
			if err != nil {
				t.Fatal(err)
			}
			got, err := x509.ParseCertificateRequest(der)
			if err != nil {
				t.Fatalf("%v: request does not parse: %v", alg, err)
			}
			want, err := x509.ParseCertificateRequest(ref)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.RawTBSCertificateRequest, want.RawTBSCertificateRequest) {
				t.Errorf("%v, subject %x: request info differs from x509's:\n got %x\nwant %x", alg, subject, got.RawTBSCertificateRequest, want.RawTBSCertificateRequest)
			}
			if _, randomized := key.(*ecdsa.PrivateKey); !randomized && !bytes.Equal(der, ref) {
				t.Errorf("%v, subject %x: request differs from x509's at byte %d", alg, subject, firstDiff(der, ref))
			}
			if err := got.CheckSignature(); err != nil {
				t.Errorf("%v: request signature: %v", alg, err)
			}
		}
	}
}

// corruptSigner returns signatures with one bit flipped.
type corruptSigner struct{ crypto.Signer }

func (s corruptSigner) Sign(r io.Reader, digest []byte, opts crypto.SignerOpts) ([]byte, error) {
	sig, err := s.Signer.Sign(r, digest, opts)
	if err == nil {
		sig[len(sig)/2] ^= 1
	}
	return sig, err
}

// A signature is verified before the bytes leave: a signer that returns a
// bad one is refused, for a certificate and for a request.
func TestMintRefusesBadSignature(t *testing.T) {
	user := testpki.User(t, "mint-bad-sig")
	for _, alg := range pki.KeyAlgorithms() {
		issuer, err := New(user, Options{KeyAlgorithm: alg, KeyBits: 1024, Lifetime: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		bad := &pki.Credential{Certificate: issuer.Certificate, PrivateKey: corruptSigner{issuer.PrivateKey}}
		if _, err := CreateDER(bad, issuer.PrivateKey.Public(), Options{Lifetime: time.Hour}); err == nil || !strings.Contains(err.Error(), "signature returned by signer is invalid") {
			t.Errorf("%v issuer with a corrupting signer: err = %v", alg, err)
		}
		if _, err := CreateRequest(nil, corruptSigner{issuer.PrivateKey}); err == nil || !strings.Contains(err.Error(), "signature returned by signer is invalid") {
			t.Errorf("%v request with a corrupting signer: err = %v", alg, err)
		}
	}
}

// An issuer whose private key is not its certificate's key signs nothing.
func TestMintRefusesMismatchedIssuerKey(t *testing.T) {
	user := testpki.User(t, "mint-mismatch")
	for _, alg := range pki.KeyAlgorithms() {
		other := &pki.Credential{Certificate: user.Certificate, PrivateKey: generate(t, alg)}
		if _, err := CreateDER(other, generate(t, pki.AlgEd25519).Public(), Options{Lifetime: time.Hour}); err == nil || !strings.Contains(err.Error(), "does not match its certificate") {
			t.Errorf("%v key under an RSA certificate: err = %v", alg, err)
		}
	}
}

// A negative serial is refused, as x509.CreateCertificate refuses it.
func TestMintRefusesNegativeSerial(t *testing.T) {
	user := testpki.User(t, "mint-serial")
	now := time.Now()
	f := &certFields{serial: big.NewInt(-5), notBefore: now, notAfter: now.Add(time.Hour),
		subject: user.Certificate.RawSubject, pub: generate(t, pki.AlgEd25519).Public(), pathLen: Unlimited}
	if _, err := mintCert(user, f); err == nil {
		t.Fatal("minted a certificate with a negative serial")
	}
	f.serial = big.NewInt(5)
	if _, err := mintCert(user, f); err != nil {
		t.Fatalf("positive serial: %v", err)
	}
}

// mintSizes returns the content lengths of der's TBSCertificate, of its
// [3] extensions block, and of its ProxyCertInfo value.
func mintSizes(tb testing.TB, der []byte) (tbs, exts, info int) {
	tb.Helper()
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		tb.Fatal(err)
	}
	var seq asn1.RawValue
	if _, err := asn1.Unmarshal(cert.RawTBSCertificate, &seq); err != nil {
		tb.Fatal(err)
	}
	for rest := seq.Bytes; len(rest) > 0; {
		var v asn1.RawValue
		if rest, err = asn1.Unmarshal(rest, &v); err != nil {
			tb.Fatal(err)
		}
		if v.Class == asn1.ClassContextSpecific && v.Tag == 3 {
			exts = len(v.Bytes)
		}
	}
	for _, e := range cert.Extensions {
		if e.Id.Equal(OIDProxyCertInfo) {
			info = len(e.Value)
		}
	}
	return len(seq.Bytes), exts, info
}

// FuzzMintProxy: on arbitrary issuer subjects, restricted-operation lists,
// path lengths, serials and types, the minted certificate is the one
// x509.CreateCertificate writes, byte for byte. The issuer signs with
// Ed25519, so the whole certificate is deterministic. The seeds walk the
// TBS, the extensions block and the ProxyCertInfo value, and the issuer
// subject, across the 127/128, 255/256 and 65 535/65 536-byte lengths
// where a DER length grows a byte.
func FuzzMintProxy(f *testing.F) {
	issuerKey := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{1}, ed25519.SeedSize))
	subjectKeys := []crypto.PublicKey{
		ed25519.NewKeyFromSeed(bytes.Repeat([]byte{2}, ed25519.SeedSize)).Public(),
		testpki.Key(f, 6).Public(),
		generate(f, pki.AlgECDSAP256).Public(),
	}
	ski := bytes.Repeat([]byte{0x5a}, 20)
	notBefore := time.Date(2026, 10, 18, 1, 2, 3, 0, time.UTC)
	notAfters := []time.Time{notBefore.Add(12 * time.Hour), time.Date(2060, 1, 2, 3, 4, 5, 0, time.UTC)}

	// mint is the target's body: flags picks the subject key (bits 0-1),
	// the issuer's subject key identifier (bit 2) and the validity (bit 3).
	mint := func(tb testing.TB, name []byte, ops string, pathLen int, serial uint64, typ, flags uint8) (got, want []byte) {
		issuer := &pki.Credential{
			Certificate: &x509.Certificate{RawSubject: name, PublicKey: issuerKey.Public()},
			PrivateKey:  issuerKey,
		}
		if flags&4 != 0 {
			issuer.Certificate.SubjectKeyId = ski
		}
		t := allTypes[int(typ)%len(allTypes)]
		f := certFields{
			serial: new(big.Int).SetUint64(serial), notBefore: notBefore, notAfter: notAfters[flags>>3&1],
			pub: subjectKeys[int(flags&3)%len(subjectKeys)], pathLen: Unlimited,
		}
		cn := "proxy"
		if lang, ok := policyOIDs[t]; ok {
			cn = f.serial.String()
			f.policyLang = mustMarshalOID(lang)
			if pathLen >= 0 {
				f.pathLen = pathLen
			}
			if t == RFC3820Restricted {
				f.policy = []byte(ops)
			}
		}
		var ok bool
		if f.subject, ok = pki.AppendCN(name, cn); !ok {
			f.subject = name
		}
		got, err := mintCert(issuer, &f)
		if err != nil {
			tb.Fatalf("mintCert: %v", err)
		}
		tmpl := refTemplate(tb, t, f.pathLen, f.policy, f.serial, f.notBefore, f.notAfter, f.subject, f.pub)
		want, err = x509.CreateCertificate(rand.Reader, tmpl, issuer.Certificate, f.pub, issuerKey)
		if err != nil {
			tb.Fatalf("x509.CreateCertificate: %v", err)
		}
		return got, want
	}

	user := testpki.User(f, "fuzz-mint-alice").Certificate.RawSubject
	f.Add(user, "job-submit\nfile-read", -1, uint64(1), uint8(RFC3820Restricted), uint8(0))
	f.Add(user, "", 0, uint64(1)<<63, uint8(RFC3820), uint8(4|8))
	f.Add([]byte{0x30, 0}, "", 3, uint64(0), uint8(Legacy), uint8(1|4))
	f.Add([]byte("not DER"), "x", 2, uint64(127), uint8(RFC3820Limited), uint8(2|4))

	// Restricted-operation lists that put each element's length on either
	// side of each boundary, below an issuer with the empty name so that
	// the TBS starts short (≈ 150 bytes: it crosses all but 127/128).
	// Lengths grow one for one with the list, with a skip where a nested
	// header grows, so a window around the estimate crosses the boundary.
	empty := []byte{0x30, 0}
	base, _ := mint(f, empty, "a", -1, 1, uint8(RFC3820Restricted), 0)
	tbs0, exts0, info0 := mintSizes(f, base)
	for _, at := range []int{tbs0, exts0, info0} {
		for _, boundary := range []int{128, 256, 65536} {
			for n := 1 + boundary - at - 4; n <= 1+boundary-at+4; n++ {
				if n > 0 {
					f.Add(empty, strings.Repeat("o", n), -1, uint64(1), uint8(RFC3820Restricted), uint8(0))
				}
			}
		}
	}
	// Issuer subjects whose own length, and the proxy subject's one CN
	// later, cross the same boundaries.
	for k := 1; k < 300; k++ {
		raw, err := testpki.BaseDN.WithCN(strings.Repeat("n", k)).Marshal()
		if err != nil {
			f.Fatal(err)
		}
		if n := len(raw); n >= 126 && n <= 132 || n >= 254 && n <= 260 {
			f.Add(raw, "", -1, uint64(1)<<40, uint8(RFC3820), uint8(4))
		}
	}

	f.Fuzz(func(t *testing.T, name []byte, ops string, pathLen int, serial uint64, typ, flags uint8) {
		if len(name) == 0 {
			return // a parsed issuer always has a subject; x509 would write the empty name
		}
		got, want := mint(t, name, ops, pathLen, serial, typ, flags)
		if !bytes.Equal(got, want) {
			t.Fatalf("minted certificate differs from x509's at byte %d:\n got %x\nwant %x", firstDiff(got, want), got, want)
		}
	})
}

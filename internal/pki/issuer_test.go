package pki

import (
	"bytes"
	"crypto"
	"crypto/x509"
	"errors"
	"strings"
	"testing"
	"time"
)

// testChain is a credential of each key algorithm issued by the test CA,
// with the CA certificate as its chain.
func testChain(t *testing.T) map[KeyAlgorithm]*Credential {
	t.Helper()
	ca := newTestCA(t)
	out := make(map[KeyAlgorithm]*Credential)
	for alg, key := range testSigners(t) {
		cred, err := ca.IssueCredentialForKey(MustParseDN("/C=US/O=PKI Test/CN=issuer-"+alg.String()), time.Hour, key)
		if err != nil {
			t.Fatal(err)
		}
		cred.Chain = []*x509.Certificate{ca.Certificate()}
		out[alg] = cred
	}
	return out
}

// CanonicalCertsPEM accepts exactly what EncodeCertsPEM writes and hands
// back the leaf's DER; any other spelling of the same certificates is
// left to DecodeCertsPEM.
func TestCanonicalCertsPEM(t *testing.T) {
	cred := testChain(t)[AlgRSA]
	canonical := EncodeCertsPEM(cred.CertChain())
	leaf, ok := CanonicalCertsPEM(canonical)
	if !ok || !bytes.Equal(leaf, cred.Certificate.Raw) {
		t.Fatalf("CanonicalCertsPEM(EncodeCertsPEM(chain)) = %d bytes, %v; want the leaf", len(leaf), ok)
	}
	rewrapped := strings.Replace(string(canonical), "\n", "", 2) // the header joins the first line
	for name, data := range map[string]string{
		"empty":             "",
		"CRLF line ends":    strings.ReplaceAll(string(canonical), "\n", "\r\n"),
		"a PEM header":      strings.Replace(string(canonical), "-----\n", "-----\nProc-Type: 4,ENCRYPTED\n\n", 1),
		"trailing text":     string(canonical) + "trailer\n",
		"leading text":      "preamble\n" + string(canonical),
		"another block":     string(canonical) + "-----BEGIN X509 CRL-----\nAAAA\n-----END X509 CRL-----\n",
		"a rewrapped line":  rewrapped,
		"an empty block":    "-----BEGIN CERTIFICATE-----\n-----END CERTIFICATE-----\n",
		"a truncated block": string(canonical[:len(canonical)-10]),
		"a missing newline": strings.TrimSuffix(string(canonical), "\n"),
		"non-zero padding":  "-----BEGIN CERTIFICATE-----\nAQIDBB==\n-----END CERTIFICATE-----\n",
	} {
		if _, ok := CanonicalCertsPEM([]byte(data)); ok {
			t.Errorf("%s: accepted as canonical", name)
		}
	}
	// The same block with the unused bits of its last character clear.
	if leaf, ok := CanonicalCertsPEM(AppendCertPEM(nil, []byte{1, 2, 3, 4})); !ok || !bytes.Equal(leaf, []byte{1, 2, 3, 4}) {
		t.Errorf("a padded block: %x, %v", leaf, ok)
	}
	allocs := testing.AllocsPerRun(100, func() { CanonicalCertsPEM(canonical) })
	if allocs > 1 {
		t.Errorf("CanonicalCertsPEM allocates %.0f objects, want 1 (the leaf)", allocs)
	}
}

// DecryptIssuer opens the key before it reads the chain, reads only the
// leaf of a canonical chain and keeps its PEM, re-encodes any other, and
// gives a P-256 or Ed25519 key the leaf's public key.
func TestDecryptIssuer(t *testing.T) {
	pass := []byte("issuer pass phrase")
	for alg, cred := range testChain(t) {
		keyPEM, _, err := EncryptKeyPEM(cred.PrivateKey, pass, 64)
		if err != nil {
			t.Fatal(err)
		}
		canonical := EncodeCertsPEM(cred.CertChain())
		if _, _, err := DecryptIssuer(keyPEM, []byte("wrong"), []byte("not a chain")); !errors.Is(err, ErrBadPassphrase) {
			t.Errorf("%v: wrong pass phrase beside a broken chain: %v, want ErrBadPassphrase", alg, err)
		}
		for name, certsPEM := range map[string][]byte{
			"canonical":   canonical,
			"CRLF":        []byte(strings.ReplaceAll(string(canonical), "\n", "\r\n")),
			"with a text": append([]byte("subject=whatever\n"), canonical...),
		} {
			issuer, chainPEM, err := DecryptIssuer(keyPEM, pass, certsPEM)
			if err != nil {
				t.Fatalf("%v, %s: %v", alg, name, err)
			}
			if !bytes.Equal(chainPEM, canonical) {
				t.Errorf("%v, %s: chain PEM is not what EncodeCertsPEM writes", alg, name)
			}
			if name == "canonical" && &chainPEM[0] != &certsPEM[0] {
				t.Errorf("%v: a canonical chain was copied, not kept", alg)
			}
			if !bytes.Equal(issuer.Certificate.Raw, cred.Certificate.Raw) || issuer.Chain != nil {
				t.Errorf("%v, %s: issuer is not the leaf alone", alg, name)
			}
			if !PublicKeysEqual(issuer.PrivateKey.Public(), cred.Certificate.PublicKey) {
				t.Errorf("%v, %s: key's public half is not the certificate's", alg, name)
			}
			if err := issuer.Validate(time.Now()); err != nil {
				t.Errorf("%v, %s: %v", alg, name, err)
			}
		}
	}
}

// A curve key is read with the public key it is given, which is how a key
// that is not its certificate's gets the certificate's public half; the
// signer that checks under that key refuses it. A key of a shape the byte
// reading does not know, or given a public key of another algorithm, is
// parsed as before.
func TestParseKeyDERFor(t *testing.T) {
	keys := testSigners(t)
	otherP256, err := GenerateSigner(KeySpec{Algorithm: AlgECDSAP256})
	if err != nil {
		t.Fatal(err)
	}
	for alg, key := range keys {
		der, err := marshalKeyDER(key)
		if err != nil {
			t.Fatal(err)
		}
		same, err := parseKeyDERFor(der, key.Public())
		other := keys[(alg+1)%3].Public()
		parsed, otherErr := parseKeyDERFor(der, other)
		curve, curveErr := parseKeyDERFor(der, otherP256.Public())
		_, truncErr := parseKeyDERFor(der[:len(der)-1], key.Public())
		WipeBytes(der)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if k, ok := same.(interface{ Equal(crypto.PrivateKey) bool }); !ok || !k.Equal(key) {
			t.Errorf("%v: read key is not the marshalled key", alg)
		}
		if otherErr != nil || !PublicKeysEqual(parsed.Public(), key.Public()) {
			t.Errorf("%v, given a %T: %v; want the key parsed as before", alg, other, otherErr)
		}
		if alg == AlgECDSAP256 && (curveErr != nil || !PublicKeysEqual(curve.Public(), otherP256.Public())) {
			t.Errorf("P-256 read with another public key: %v", curveErr)
		}
		if truncErr == nil {
			t.Errorf("%v: a truncated key was read", alg)
		}
	}
}

package pki

import (
	"bytes"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/kdf"
)

func testCredential(t *testing.T) *Credential {
	t.Helper()
	ca := newTestCA(t)
	keys := sharedKeys(t)
	cred, err := ca.IssueCredentialForKey(MustParseDN("/C=US/O=PKI Test/CN=cred-test"), time.Hour, keys[1])
	if err != nil {
		t.Fatal(err)
	}
	return cred
}

func TestCredentialSubject(t *testing.T) {
	cred := testCredential(t)
	if got := cred.Subject(); got != "/C=US/O=PKI Test/CN=cred-test" {
		t.Errorf("Subject = %q", got)
	}
}

func TestCredentialValidate(t *testing.T) {
	cred := testCredential(t)
	if err := cred.Validate(time.Now()); err != nil {
		t.Errorf("valid credential rejected: %v", err)
	}
	if err := cred.Validate(time.Now().Add(2 * time.Hour)); err == nil {
		t.Error("expired credential accepted")
	}
	if err := cred.Validate(time.Now().Add(-time.Hour)); err == nil {
		t.Error("not-yet-valid credential accepted")
	}
	keys := sharedKeys(t)
	wrongKey := &Credential{Certificate: cred.Certificate, PrivateKey: keys[2]}
	if err := wrongKey.Validate(time.Now()); err == nil {
		t.Error("mismatched key accepted")
	}
	if err := (&Credential{PrivateKey: keys[1]}).Validate(time.Now()); err == nil {
		t.Error("missing certificate accepted")
	}
	if err := (&Credential{Certificate: cred.Certificate}).Validate(time.Now()); err == nil {
		t.Error("missing key accepted")
	}
}

func TestCredentialTimeLeft(t *testing.T) {
	cred := testCredential(t)
	left := cred.TimeLeftAt(cred.Certificate.NotAfter.Add(-10 * time.Minute))
	if left != 10*time.Minute {
		t.Errorf("TimeLeftAt = %v", left)
	}
	if cred.TimeLeftAt(cred.Certificate.NotAfter.Add(time.Minute)) > 0 {
		t.Error("expired credential reports time left")
	}
}

func TestCredentialPEMRoundTrip(t *testing.T) {
	cred := testCredential(t)
	ca := newTestCA(t)
	_ = ca

	data := cred.EncodePEM() //myproxy:allow zeroize throwaway test credential; the encoding is not a real secret
	back, err := DecodeCredentialPEM(data, nil)
	if err != nil {
		t.Fatalf("DecodeCredentialPEM: %v", err)
	}
	if !bytes.Equal(back.Certificate.Raw, cred.Certificate.Raw) {
		t.Error("certificate changed in round trip")
	}
	if !PublicKeysEqual(back.PrivateKey.Public(), cred.PrivateKey.Public()) {
		t.Error("key changed in round trip")
	}
}

func TestCredentialPEMWithChain(t *testing.T) {
	ca := newTestCA(t)
	cred := testCredential(t)
	cred = &Credential{
		Certificate: cred.Certificate,
		PrivateKey:  cred.PrivateKey,
		Chain:       []*x509.Certificate{ca.Certificate()},
	}
	back, err := DecodeCredentialPEM(cred.EncodePEM(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Chain) != 1 || !bytes.Equal(back.Chain[0].Raw, ca.Certificate().Raw) {
		t.Errorf("chain not preserved: %d certs", len(back.Chain))
	}
	chain := back.CertChain()
	if len(chain) != 2 || chain[0] != back.Certificate {
		t.Error("CertChain must be leaf-first with full chain")
	}
}

func TestCredentialEncryptedPEM(t *testing.T) {
	cred := testCredential(t)
	pass := []byte("swordfish passphrase")
	data, err := cred.EncodeEncryptedPEM(pass, 64) // low iterations: test speed
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("RSA PRIVATE KEY")) {
		t.Fatal("encrypted encoding leaked a plaintext key block")
	}
	back, err := DecodeCredentialPEM(data, pass)
	if err != nil {
		t.Fatalf("decode with passphrase: %v", err)
	}
	if !PublicKeysEqual(back.PrivateKey.Public(), cred.PrivateKey.Public()) {
		t.Error("key mismatch after decrypt")
	}
	if _, err := DecodeCredentialPEM(data, []byte("wrong")); !errors.Is(err, ErrBadPassphrase) {
		t.Errorf("wrong passphrase: err = %v, want ErrBadPassphrase", err)
	}
}

// TestKeyPEMVerifier: the verifier EncryptKeyPEM returns is recomputed
// from the sealed PEM alone for the right pass phrase and for no other, and
// it is not the seal key, so storing it beside the container opens nothing.
func TestKeyPEMVerifier(t *testing.T) {
	cred := testCredential(t)
	pass := []byte("swordfish passphrase")
	keyPEM, verifier, err := EncryptKeyPEM(cred.PrivateKey, pass, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := KeyPEMVerifier(keyPEM, pass); err != nil || !bytes.Equal(got, verifier) {
		t.Errorf("KeyPEMVerifier(right pass phrase) = %x, %v; want %x", got, err, verifier)
	}
	if got, err := KeyPEMVerifier(keyPEM, []byte("wrong")); err != nil || bytes.Equal(got, verifier) {
		t.Errorf("KeyPEMVerifier(wrong pass phrase) = %x, %v; want another value", got, err)
	}
	block, _ := pem.Decode(keyPEM)
	salt := block.Bytes[len(sealMagic)+4 : len(sealMagic)+4+sealSaltLen]
	if bytes.Equal(verifier, kdf.SHA256Key(pass, salt, 64, sealKeyLen)) {
		t.Error("the verifier is the seal key")
	}
	if _, err := KeyPEMVerifier([]byte("no key block"), pass); err == nil {
		t.Error("KeyPEMVerifier accepted data without an ENCRYPTED GRID KEY block")
	}
}

func TestSaveLoadCredential(t *testing.T) {
	cred := testCredential(t)
	dir := t.TempDir()

	plain := filepath.Join(dir, "proxy.pem")
	if err := cred.SaveCredential(plain, nil); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCredential(plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Subject() != cred.Subject() {
		t.Error("subject mismatch after load")
	}

	if _, err := LoadCredential(filepath.Join(dir, "missing.pem"), nil); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestSealOpenBytes(t *testing.T) {
	plaintext := []byte("the quick brown fox")
	pass := []byte("pass")
	c, err := SealBytes(plaintext, pass, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenBytes(c, pass) //myproxy:allow zeroize plaintext is a known test string, not key material
	if err != nil || !bytes.Equal(got, plaintext) {
		t.Fatalf("OpenBytes = %q, %v", got, err)
	}
	if _, err := OpenBytes(c, []byte("nope")); !errors.Is(err, ErrBadPassphrase) {
		t.Errorf("wrong passphrase: %v", err)
	}
	// Tampering with any byte must fail authentication.
	c[len(c)-1] ^= 0xff
	if _, err := OpenBytes(c, pass); err == nil {
		t.Fatal("tampered container accepted")
	}
	if _, err := OpenBytes([]byte("short"), pass); err == nil {
		t.Fatal("truncated container accepted")
	}
}

func TestSealBytesUniqueCiphertexts(t *testing.T) {
	pass := []byte("pass")
	a, err := SealBytes([]byte("data"), pass, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SealBytes([]byte("data"), pass, 64)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("two seals of the same plaintext are identical (salt/nonce reuse)")
	}
}

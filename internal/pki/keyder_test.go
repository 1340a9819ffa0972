package pki

import (
	"crypto"
	"crypto/x509"
	"fmt"
	"testing"
)

// testSigners is one key of every algorithm.
func testSigners(t *testing.T) map[KeyAlgorithm]crypto.Signer {
	t.Helper()
	keys := map[KeyAlgorithm]crypto.Signer{AlgRSA: sharedKeys(t)[0]}
	for _, alg := range []KeyAlgorithm{AlgECDSAP256, AlgEd25519} {
		key, err := GenerateSigner(KeySpec{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		keys[alg] = key
	}
	return keys
}

// Every algorithm's key survives EncryptKeyPEM / DecryptKeyPEM: PKCS#1 for
// RSA and PKCS#8 for the others, told apart by their second element.
func TestEncryptedKeyRoundTripEveryAlgorithm(t *testing.T) {
	pass := []byte("round trip")
	for alg, key := range testSigners(t) {
		data, _, err := EncryptKeyPEM(key, pass, 64)
		if err != nil {
			t.Fatalf("%v: EncryptKeyPEM: %v", alg, err)
		}
		back, err := DecryptKeyPEM(data, pass)
		if err != nil {
			t.Fatalf("%v: DecryptKeyPEM: %v", alg, err)
		}
		if got, _ := AlgorithmOf(back); got != alg || !PublicKeysEqual(back.Public(), key.Public()) {
			t.Errorf("%v: decrypted a %v key that is not the one sealed", alg, got)
		}
	}
}

// DER that is no key fails with the PKCS#8 parse's error, as it did when
// every input was tried as PKCS#1 first: a malformed PKCS#1 shape included.
func TestParseKeyDERGarbageKeepsItsError(t *testing.T) {
	for _, der := range [][]byte{
		nil,
		{0x30},
		{0x30, 0x03, 0x02, 0x01, 0x00}, // version only
		{0x30, 0x06, 0x02, 0x01, 0x00, 0x02, 0x01, 0x05},       // PKCS#1 prefix, truncated
		{0x30, 0x07, 0x02, 0x01, 0x00, 0x30, 0x02, 0x05, 0x00}, // PKCS#8 prefix, no OID
		{0x04, 0x02, 0xde, 0xad},
	} {
		_, perr := x509.ParsePKCS8PrivateKey(der)
		want := fmt.Sprintf("pki: parse private key: %v", perr)
		if _, err := parseKeyDER(der); err == nil || err.Error() != want {
			t.Errorf("parseKeyDER(% x) = %v, want %s", der, err, want)
		}
	}
}

// TestParseECDSAKeyAllocs pins opening a PKCS#8 ECDSA key: 23 objects, the
// bound that plus 10 %. Trying it as PKCS#1 first (15 more) fails here.
func TestParseECDSAKeyAllocs(t *testing.T) {
	der, err := marshalKeyDER(testSigners(t)[AlgECDSAP256])
	if err != nil {
		t.Fatal(err)
	}
	defer WipeBytes(der)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := parseKeyDER(der); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 25 {
		t.Errorf("parsing an ECDSA key allocates %.0f objects, want <= 25", allocs)
	}
}

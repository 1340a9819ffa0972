package pki

import (
	"crypto"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"encoding/pem"
	"errors"
	"fmt"
	"io"

	"repro/internal/kdf"
)

// Pass-phrase sealed key container. The paper's deployment used SSLeay
// encrypted-PEM private keys; we use an authenticated construction with the
// same operational shape: a key at rest is unusable without the pass phrase
// (paper §2.1 "storing it in an encrypted file with a decryption pass
// phrase known only to the owner", §5.1 repository-side encryption).
//
// Container layout (inside a PEM block of type ENCRYPTED GRID KEY):
//
//	magic   [8]byte  "GRIDKEY1"
//	iter    uint32   PBKDF2 iteration count (big endian)
//	salt    [16]byte
//	nonce   [12]byte
//	sealed  []byte   AES-256-GCM(ciphertext||tag) of the key DER
//	                 (PKCS#1 for RSA, PKCS#8 otherwise)
//
// The AES key K is PBKDF2-HMAC-SHA256(pass phrase, salt, iter). A sealer
// that must later authenticate the pass phrase without decrypting (the
// repository's INFO and DESTROY) keeps HMAC-SHA256(K, verifierLabel) beside
// the container: one-way in K, domain-separated from K's AES-GCM use, and
// no cheaper to test a guess against than the container itself.
const (
	sealMagic        = "GRIDKEY1"
	sealSaltLen      = 16
	sealKeyLen       = 32
	pemTypeEncrypted = "ENCRYPTED GRID KEY"
	verifierLabel    = "myproxy pass-phrase verifier v2"

	// DefaultKDFIterations balances unseal latency against brute-force
	// resistance; experiment E5 sweeps this parameter.
	DefaultKDFIterations = 65536
	// MaxKDFIterations bounds an iteration count read back from stored
	// bytes: a corrupt or hostile count above it is refused, not run for
	// hours.
	MaxKDFIterations = 1 << 28
)

// ErrBadPassphrase is returned when a sealed key cannot be opened with the
// supplied pass phrase (or the container was tampered with — the two cases
// are indistinguishable by design with an AEAD).
var ErrBadPassphrase = errors.New("pki: incorrect pass phrase or corrupted key")

// SealBytes encrypts arbitrary plaintext under the pass phrase.
func SealBytes(plaintext, passphrase []byte, iter int) ([]byte, error) {
	container, _, err := seal(plaintext, passphrase, iter)
	return container, err
}

// seal is SealBytes that also returns the pass-phrase verifier of the one
// stretch it made.
func seal(plaintext, passphrase []byte, iter int) (container, verifier []byte, err error) {
	if iter <= 0 {
		iter = DefaultKDFIterations
	}
	salt := make([]byte, sealSaltLen)
	if _, err := io.ReadFull(rand.Reader, salt); err != nil {
		return nil, nil, fmt.Errorf("pki: salt: %w", err)
	}
	key := Transient(kdf.Key(passphrase, salt, iter, sealKeyLen, sha256.New))
	defer WipeBytes(key) // the cipher keeps its own schedule; drop ours
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, nil, fmt.Errorf("pki: nonce: %w", err)
	}
	out := make([]byte, 0, len(sealMagic)+4+len(salt)+len(nonce)+len(plaintext)+gcm.Overhead())
	out = append(out, sealMagic...)
	out = binary.BigEndian.AppendUint32(out, uint32(iter))
	out = append(out, salt...)
	out = append(out, nonce...)
	out = gcm.Seal(out, nonce, plaintext, []byte(sealMagic))
	return out, verifierOf(key), nil
}

// verifierOf derives the pass-phrase verifier from a container key K.
func verifierOf(key []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write([]byte(verifierLabel))
	return m.Sum(nil)
}

// splitContainer checks a container's magic and iteration count and
// returns its KDF parameters and the nonce||sealed tail.
func splitContainer(container []byte) (iter int, salt, rest []byte, err error) {
	header := len(sealMagic) + 4 + sealSaltLen + 12
	if len(container) < header || string(container[:len(sealMagic)]) != sealMagic {
		return 0, nil, nil, errors.New("pki: not a sealed key container")
	}
	p := len(sealMagic)
	iter = int(binary.BigEndian.Uint32(container[p : p+4]))
	if iter <= 0 || iter > MaxKDFIterations {
		return 0, nil, nil, errors.New("pki: implausible KDF iteration count")
	}
	p += 4
	return iter, container[p : p+sealSaltLen], container[p+sealSaltLen:], nil
}

// OpenBytes decrypts a container produced by SealBytes. The plaintext is
// key material: the caller inherits the obligation to WipeBytes it once
// decoded.
func OpenBytes(container, passphrase []byte) ([]byte, error) {
	iter, salt, rest, err := splitContainer(container)
	if err != nil {
		return nil, err
	}
	key := Transient(kdf.Key(passphrase, salt, iter, sealKeyLen, sha256.New))
	defer WipeBytes(key) // the cipher keeps its own schedule; drop ours
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := rest[:gcm.NonceSize()]
	plaintext, err := gcm.Open(nil, nonce, rest[gcm.NonceSize():], []byte(sealMagic))
	if err != nil {
		return nil, ErrBadPassphrase
	}
	return Transient(plaintext), nil
}

// EncryptKeyPEM seals a private key under the pass phrase and renders it as
// an ENCRYPTED GRID KEY PEM block. iter <= 0 selects DefaultKDFIterations.
// verifier comes from the same stretch: a holder that keeps it can
// authenticate the pass phrase later with KeyPEMVerifier, without
// decrypting the key; a holder that does not can drop it.
func EncryptKeyPEM(key crypto.Signer, passphrase []byte, iter int) (keyPEM, verifier []byte, err error) {
	der, err := marshalKeyDER(key)
	if err != nil {
		return nil, nil, err
	}
	defer WipeBytes(der)
	container, verifier, err := seal(der, passphrase, iter)
	if err != nil {
		return nil, nil, err
	}
	return pem.EncodeToMemory(&pem.Block{Type: pemTypeEncrypted, Bytes: container}), verifier, nil
}

// DecryptKeyPEM opens the first ENCRYPTED GRID KEY block with the pass
// phrase and parses the contained private key.
func DecryptKeyPEM(data, passphrase []byte) (crypto.Signer, error) {
	container, err := encryptedBlock(data)
	if err != nil {
		return nil, err
	}
	der, err := OpenBytes(container, passphrase)
	if err != nil {
		return nil, err
	}
	key, err := parseKeyDER(der)
	WipeBytes(der) // parsed (or unparseable); the DER image is done
	if err != nil {
		return nil, fmt.Errorf("pki: parse decrypted key: %w", err)
	}
	return key, nil
}

// DecryptIssuer opens a sealed key for signing proxies under its stored
// certificate chain: keyPEM is decrypted with the pass phrase first, so a
// wrong one is reported before anything about the chain. Only the leaf of
// certsPEM is parsed — the certificate a proxy is minted under — and its
// public key is the key's public half (parseKeyDERFor). chainPEM is the
// chain to send behind each proxy: certsPEM itself when it is canonical
// (CanonicalCertsPEM), else the whole chain, parsed and encoded again.
// issuer.Chain stays nil.
func DecryptIssuer(keyPEM, passphrase, certsPEM []byte) (issuer *Credential, chainPEM []byte, err error) {
	container, err := encryptedBlock(keyPEM)
	if err != nil {
		return nil, nil, err
	}
	der, err := OpenBytes(container, passphrase)
	if err != nil {
		return nil, nil, err
	}
	defer WipeBytes(der) // read into the key or refused; the DER image is done
	var leaf *x509.Certificate
	if leafDER, ok := CanonicalCertsPEM(certsPEM); ok {
		if leaf, err = x509.ParseCertificate(leafDER); err != nil {
			return nil, nil, fmt.Errorf("pki: parse certificate: %w", err)
		}
		chainPEM = certsPEM
	} else {
		certs, err := DecodeCertsPEM(certsPEM)
		if err != nil {
			return nil, nil, err
		}
		leaf, chainPEM = certs[0], EncodeCertsPEM(certs)
	}
	key, err := parseKeyDERFor(der, leaf.PublicKey)
	if err != nil {
		return nil, nil, fmt.Errorf("pki: parse decrypted key: %w", err)
	}
	return &Credential{Certificate: leaf, PrivateKey: key}, chainPEM, nil
}

// KeyPEMVerifier recomputes, for a pass-phrase guess, the verifier
// EncryptKeyPEM returned for the first ENCRYPTED GRID KEY block of data:
// one stretch at the container's own salt and iteration count, and no
// decryption — the private key is never materialised.
func KeyPEMVerifier(data, passphrase []byte) ([]byte, error) {
	container, err := encryptedBlock(data)
	if err != nil {
		return nil, err
	}
	iter, salt, _, err := splitContainer(container)
	if err != nil {
		return nil, err
	}
	key := Transient(kdf.Key(passphrase, salt, iter, sealKeyLen, sha256.New))
	verifier := verifierOf(key)
	WipeBytes(key) // K opens the container; only its one-way image leaves
	return verifier, nil
}

// encryptedBlock returns the container inside data's first ENCRYPTED GRID
// KEY block.
func encryptedBlock(data []byte) ([]byte, error) {
	for block, rest := pem.Decode(data); block != nil; block, rest = pem.Decode(rest) {
		if block.Type == pemTypeEncrypted {
			return block.Bytes, nil
		}
	}
	return nil, errors.New("pki: no ENCRYPTED GRID KEY block found")
}

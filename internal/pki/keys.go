package pki

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"encoding/asn1"
	"encoding/base64"
	"encoding/pem"
	"errors"
	"fmt"
	"math/big"
)

// DefaultKeyBits is the RSA modulus size used for new credentials when the
// caller does not specify one. 2048 bits is the smallest size modern
// verifiers accept; the 2001-era deployment used 512/1024-bit keys.
const DefaultKeyBits = 2048

// DemoKeyBits is the deliberately small RSA modulus the tests, the
// benchmarks and the simulated job manager's job proxies use where
// generation latency matters more than strength.
// Never use it for real credentials.
const DemoKeyBits = 1024

// KeyAlgorithm selects the public-key algorithm for freshly generated
// credentials and delegation keys. The zero value is RSA, the algorithm the
// paper's 2001 deployment used — everything defaults to paper fidelity, and
// the modern curves are strictly opt-in (the -key-alg flags). Every switch
// on a KeyAlgorithm ends in a default that refuses or names the value, so a
// curve added here without its cases fails loudly instead of falling
// through a key-handling path.
type KeyAlgorithm int

const (
	// AlgRSA is RSA with a caller-chosen modulus (KeySpec.Bits;
	// DefaultKeyBits when unset). The paper-fidelity default.
	AlgRSA KeyAlgorithm = iota
	// AlgECDSAP256 is ECDSA over NIST P-256: ~40ms RSA keygen becomes
	// tens of microseconds, the point of key-algorithm agility on the
	// delegation hot path.
	AlgECDSAP256
	// AlgEd25519 is Ed25519.
	AlgEd25519
)

// KeyAlgorithms lists every supported algorithm, in declaration order
// (benchmark sweeps, flag help).
func KeyAlgorithms() []KeyAlgorithm {
	return []KeyAlgorithm{AlgRSA, AlgECDSAP256, AlgEd25519}
}

func (a KeyAlgorithm) String() string {
	switch a {
	case AlgRSA:
		return "rsa"
	case AlgECDSAP256:
		return "ecdsa-p256"
	case AlgEd25519:
		return "ed25519"
	default:
		return fmt.Sprintf("pki.KeyAlgorithm(%d)", int(a))
	}
}

// ParseKeyAlgorithm maps a flag or wire value to a KeyAlgorithm. It accepts
// the canonical String() names plus common aliases.
func ParseKeyAlgorithm(s string) (KeyAlgorithm, error) {
	switch s {
	case "", "rsa", "rsa-2048":
		return AlgRSA, nil
	case "ecdsa-p256", "ecdsa", "p256":
		return AlgECDSAP256, nil
	case "ed25519":
		return AlgEd25519, nil
	default:
		return AlgRSA, fmt.Errorf("pki: unknown key algorithm %q (want rsa, ecdsa-p256, or ed25519)", s)
	}
}

// KeySpec fully describes a key to generate: the algorithm plus, for RSA,
// the modulus size. The zero value means RSA at DefaultKeyBits.
type KeySpec struct {
	Algorithm KeyAlgorithm
	// Bits is the RSA modulus size; ignored for non-RSA algorithms.
	// 0 selects DefaultKeyBits.
	Bits int
}

// Normalize resolves defaults: RSA gets DefaultKeyBits when Bits is unset,
// and non-RSA algorithms drop Bits entirely so that specs compare equal
// regardless of how the caller spelled them (the keypool matches pooled
// keys against requests by spec equality).
func (s KeySpec) Normalize() KeySpec {
	switch s.Algorithm {
	case AlgRSA:
		if s.Bits == 0 {
			s.Bits = DefaultKeyBits
		}
	case AlgECDSAP256, AlgEd25519:
		s.Bits = 0
	default:
		s.Bits = 0
	}
	return s
}

func (s KeySpec) String() string {
	if s = s.Normalize(); s.Algorithm == AlgRSA {
		return fmt.Sprintf("rsa-%d", s.Bits)
	}
	return s.Algorithm.String()
}

// GenerateSigner creates a private key per spec. RSA honors spec.Bits
// (DefaultKeyBits when 0, minimum 1024); the fixed-strength algorithms
// ignore it.
func GenerateSigner(spec KeySpec) (crypto.Signer, error) {
	spec = spec.Normalize()
	switch spec.Algorithm {
	case AlgRSA:
		return GenerateKey(spec.Bits)
	case AlgECDSAP256:
		key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("pki: generate P-256 key: %w", err)
		}
		return key, nil
	case AlgEd25519:
		_, key, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("pki: generate Ed25519 key: %w", err)
		}
		return key, nil
	default:
		return nil, fmt.Errorf("pki: unsupported key algorithm %v", spec.Algorithm)
	}
}

// GenerateKey creates a new RSA private key of the given modulus size.
// bits == 0 selects DefaultKeyBits.
func GenerateKey(bits int) (*rsa.PrivateKey, error) {
	if bits == 0 {
		bits = DefaultKeyBits
	}
	if bits < 1024 {
		return nil, fmt.Errorf("pki: refusing to generate %d-bit RSA key (minimum 1024)", bits)
	}
	key, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, fmt.Errorf("pki: generate RSA key: %w", err)
	}
	return key, nil
}

// AlgorithmOf reports the KeyAlgorithm of a public or private key;
// the second result is false for unsupported key types.
func AlgorithmOf(key any) (KeyAlgorithm, bool) {
	switch k := key.(type) {
	case *rsa.PrivateKey, *rsa.PublicKey:
		return AlgRSA, true
	case *ecdsa.PrivateKey:
		if k.Curve == elliptic.P256() {
			return AlgECDSAP256, true
		}
		return AlgRSA, false
	case *ecdsa.PublicKey:
		if k.Curve == elliptic.P256() {
			return AlgECDSAP256, true
		}
		return AlgRSA, false
	case ed25519.PrivateKey, ed25519.PublicKey:
		return AlgEd25519, true
	default:
		return AlgRSA, false
	}
}

// SpecOf describes an existing key (public or private) as a KeySpec —
// the inverse of GenerateSigner, useful for display and pool matching.
func SpecOf(key any) (KeySpec, bool) {
	alg, ok := AlgorithmOf(key)
	if !ok {
		return KeySpec{}, false
	}
	spec := KeySpec{Algorithm: alg}
	switch k := key.(type) {
	case *rsa.PrivateKey:
		spec.Bits = k.N.BitLen()
	case *rsa.PublicKey:
		spec.Bits = k.N.BitLen()
	}
	return spec, true
}

// PublicKeysEqual reports whether a and b are the same public key. It
// relies on the stdlib key types' Equal methods; unsupported types are
// never equal.
func PublicKeysEqual(a, b crypto.PublicKey) bool {
	type equaler interface{ Equal(crypto.PublicKey) bool }
	ae, ok := a.(equaler)
	return ok && ae.Equal(b)
}

// PEM block types used for Grid credentials on disk.
const (
	pemTypeCertificate = "CERTIFICATE"
	// pemTypeRSAKey is the PKCS#1 form the Globus tools used on disk;
	// retained for RSA keys so existing credential files keep working.
	pemTypeRSAKey = "RSA PRIVATE KEY"
	// pemTypePKCS8Key is the algorithm-agnostic form used for ECDSA and
	// Ed25519 keys.
	pemTypePKCS8Key = "PRIVATE KEY"
	// pemTypeECKey is the SEC 1 form other tools emit for EC keys;
	// accepted on read, never written.
	pemTypeECKey = "EC PRIVATE KEY"
)

// marshalKeyDER renders a private key in DER: PKCS#1 for RSA (the on-disk
// back-compat format), PKCS#8 otherwise. The caller owns the returned
// secret bytes and must WipeBytes them when done.
//
//myproxy:secret
func marshalKeyDER(key crypto.Signer) ([]byte, error) {
	switch k := key.(type) {
	case *rsa.PrivateKey:
		return x509.MarshalPKCS1PrivateKey(k), nil
	default:
		der, err := x509.MarshalPKCS8PrivateKey(key)
		if err != nil {
			return nil, fmt.Errorf("pki: marshal private key: %w", err)
		}
		return der, nil
	}
}

// parseKeyDER is marshalKeyDER's inverse. The second element of the
// outer SEQUENCE tells the two forms apart: PKCS#1 (the RSA back-compat
// format) has the modulus INTEGER there, PKCS#8 its AlgorithmIdentifier
// SEQUENCE. Only DER with an INTEGER there is tried as PKCS#1; the rest,
// and DER that fails that parse, is parsed as PKCS#8, whose error is the
// one reported.
func parseKeyDER(der []byte) (crypto.Signer, error) {
	if secondElementTag(der) == asn1.TagInteger {
		if key, err := x509.ParsePKCS1PrivateKey(der); err == nil {
			return key, nil
		}
	}
	parsed, err := x509.ParsePKCS8PrivateKey(der)
	if err != nil {
		return nil, fmt.Errorf("pki: parse private key: %w", err)
	}
	signer, ok := parsed.(crypto.Signer)
	if !ok {
		return nil, fmt.Errorf("pki: private key type %T cannot sign", parsed)
	}
	return signer, nil
}

// The PKCS#8 forms marshalKeyDER writes for the two curve keys, up to their
// private scalar or seed: the P-256 ECPrivateKey carries its public point
// after the scalar, the Ed25519 key nothing.
var (
	pkcs8P256Prefix = []byte{0x30, 0x81, 0x87, 0x02, 1, 0, 0x30, 19, 0x06, 7, 0x2a, 0x86, 0x48, 0xce, 0x3d, 0x02, 0x01,
		0x06, 8, 0x2a, 0x86, 0x48, 0xce, 0x3d, 0x03, 0x01, 0x07, 0x04, 0x6d, 0x30, 0x6b, 0x02, 1, 1, 0x04, 32}
	pkcs8P256Point    = []byte{0xa1, 0x44, 0x03, 0x42, 0x00, 0x04} // [1] { BIT STRING, uncompressed point }
	pkcs8Ed25519Begin = []byte{0x30, 0x2e, 0x02, 1, 0, 0x30, 5, 0x06, 3, 0x2b, 0x65, 0x70, 0x04, 0x22, 0x04, 32}
)

// parseKeyDERFor is parseKeyDER for the private key of pub, the public key
// of the certificate it was stored beside. A P-256 or Ed25519 key in the
// PKCS#8 form marshalKeyDER writes is read off its bytes, and its public
// half is pub rather than the point parsing recomputes from the private
// scalar. A key that does not belong to pub then signs what pub does not
// verify; a caller signs with it only through a check under pub (the proxy
// mint's). Every other key is parsed by parseKeyDER.
func parseKeyDERFor(der []byte, pub crypto.PublicKey) (crypto.Signer, error) {
	switch pub := pub.(type) {
	case *ecdsa.PublicKey:
		scalar, ok := bytes.CutPrefix(der, pkcs8P256Prefix)
		if !ok || pub.Curve != elliptic.P256() || len(scalar) != 32+len(pkcs8P256Point)+64 ||
			!bytes.HasPrefix(scalar[32:], pkcs8P256Point) {
			break
		}
		d := new(big.Int).SetBytes(scalar[:32])
		if d.Sign() == 0 || d.Cmp(pub.Curve.Params().N) >= 0 {
			wipeBig(d)
			break
		}
		return &ecdsa.PrivateKey{PublicKey: *pub, D: d}, nil
	case ed25519.PublicKey:
		seed, ok := bytes.CutPrefix(der, pkcs8Ed25519Begin)
		if !ok || len(seed) != ed25519.SeedSize || len(pub) != ed25519.PublicKeySize {
			break
		}
		key := make(ed25519.PrivateKey, 0, ed25519.PrivateKeySize)
		return append(append(key, seed...), pub...), nil
	}
	return parseKeyDER(der)
}

// secondElementTag is the tag of the second element inside the SEQUENCE
// der, or -1 where der does not read that far.
func secondElementTag(der []byte) int {
	tag, content, _, ok := ReadDER(der)
	if !ok || tag != tagSequence {
		return -1
	}
	if _, _, rest, ok := ReadDER(content); ok && len(rest) > 0 {
		return int(rest[0])
	}
	return -1
}

// EncodeKeyPEM renders a private key in PEM form: PKCS#1 ("RSA PRIVATE
// KEY") for RSA, matching the on-disk format grid-proxy-init and the
// MyProxy tools have always used for unencrypted proxy keys (paper §2.3:
// proxy credentials are stored unencrypted, protected only by file
// permissions); PKCS#8 ("PRIVATE KEY") for the other algorithms.
func EncodeKeyPEM(key crypto.Signer) []byte {
	switch k := key.(type) {
	case *rsa.PrivateKey:
		der := x509.MarshalPKCS1PrivateKey(k)
		out := pem.EncodeToMemory(&pem.Block{Type: pemTypeRSAKey, Bytes: der})
		// EncodeToMemory copied the DER bytes into out; the intermediate
		// holds the same plaintext key material and must not outlive us.
		WipeBytes(der)
		return out
	default:
		der, err := x509.MarshalPKCS8PrivateKey(key)
		if err != nil {
			return nil
		}
		out := pem.EncodeToMemory(&pem.Block{Type: pemTypePKCS8Key, Bytes: der})
		WipeBytes(der)
		return out
	}
}

// DecodeKeyPEM parses the first private key block in data, accepting
// PKCS#1 ("RSA PRIVATE KEY"), PKCS#8 ("PRIVATE KEY"), and SEC 1
// ("EC PRIVATE KEY") blocks.
func DecodeKeyPEM(data []byte) (crypto.Signer, error) {
	for block, rest := pem.Decode(data); block != nil; block, rest = pem.Decode(rest) {
		switch block.Type {
		case pemTypeRSAKey:
			key, err := x509.ParsePKCS1PrivateKey(block.Bytes)
			if err != nil {
				return nil, fmt.Errorf("pki: parse RSA key: %w", err)
			}
			return key, nil
		case pemTypePKCS8Key:
			return parseKeyDER(block.Bytes)
		case pemTypeECKey:
			key, err := x509.ParseECPrivateKey(block.Bytes)
			if err != nil {
				return nil, fmt.Errorf("pki: parse EC key: %w", err)
			}
			return key, nil
		}
	}
	return nil, errors.New("pki: no private key block found")
}

// EncodeCertPEM renders one certificate in PEM form.
func EncodeCertPEM(cert *x509.Certificate) []byte {
	return AppendCertPEM(nil, cert.Raw)
}

// EncodeCertsPEM renders a certificate chain, leaf first, in PEM form.
func EncodeCertsPEM(certs []*x509.Certificate) []byte {
	return AppendCertsPEM(nil, certs)
}

// AppendCertsPEM appends a certificate chain, leaf first, in PEM form to
// dst, growing it at most once.
func AppendCertsPEM(dst []byte, certs []*x509.Certificate) []byte {
	n := 0
	for _, c := range certs {
		n += CertPEMLen(len(c.Raw))
	}
	dst = grow(dst, n)
	for _, c := range certs {
		dst = AppendCertPEM(dst, c.Raw)
	}
	return dst
}

const (
	certPEMBegin = "-----BEGIN " + pemTypeCertificate + "-----\n"
	certPEMEnd   = "-----END " + pemTypeCertificate + "-----\n"
	pemLineBytes = 48 // encodes to one base64 line of pemLineChars
	pemLineChars = 64
)

var certPEMEndBytes = []byte(certPEMEnd)

// AppendCertPEM appends the CERTIFICATE block of one DER certificate to
// dst: the bytes pem.EncodeToMemory writes for it.
func AppendCertPEM(dst, der []byte) []byte {
	dst = grow(dst, CertPEMLen(len(der)))
	dst = append(dst, certPEMBegin...)
	for len(der) > 0 {
		line := der[:min(len(der), pemLineBytes)]
		dst = append(base64.StdEncoding.AppendEncode(dst, line), '\n')
		der = der[len(line):]
	}
	return append(dst, certPEMEnd...)
}

// grow is slices.Grow in exactly one allocation, whether or not the race
// detector has turned off the compiler's append(make) optimization.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	out := make([]byte, len(dst), len(dst)+n)
	copy(out, dst)
	return out
}

// CertPEMLen is the length of the block AppendCertPEM writes for n bytes.
func CertPEMLen(n int) int {
	lines := (n + pemLineBytes - 1) / pemLineBytes
	return len(certPEMBegin) + base64.StdEncoding.EncodedLen(n) + lines + len(certPEMEnd)
}

// DecodeCertsPEM parses every CERTIFICATE block in data, in order.
func DecodeCertsPEM(data []byte) ([]*x509.Certificate, error) {
	ders, err := SplitCertsPEM(data)
	if err != nil {
		return nil, err
	}
	return ParseCerts(ders...)
}

// SplitCertsPEM returns the DER bytes of every CERTIFICATE block in data,
// in order, without parsing them.
func SplitCertsPEM(data []byte) ([][]byte, error) {
	var ders [][]byte
	for block, rest := pem.Decode(data); block != nil; block, rest = pem.Decode(rest) {
		if block.Type == pemTypeCertificate {
			ders = append(ders, block.Bytes)
		}
	}
	if len(ders) == 0 {
		return nil, errors.New("pki: no CERTIFICATE blocks found")
	}
	return ders, nil
}

// CanonicalCertsPEM returns the DER of the first certificate in data when
// data is exactly what AppendCertsPEM writes for a chain of non-empty
// certificates — the form EncodeCertsPEM gives every chain the repository
// stores — so that data can be sent on as it is. ok is false for any other
// bytes; DecodeCertsPEM reads those. Each line is decoded and encoded
// again to prove it canonical, and only the leaf's DER is allocated.
func CanonicalCertsPEM(data []byte) (leaf []byte, ok bool) {
	if len(data) == 0 {
		return nil, false
	}
	for first := true; len(data) > 0; first = false {
		if len(data) < len(certPEMBegin) || string(data[:len(certPEMBegin)]) != certPEMBegin {
			return nil, false
		}
		data = data[len(certPEMBegin):]
		end := bytes.Index(data, certPEMEndBytes)
		if end <= 0 {
			return nil, false
		}
		lines := data[:end]
		data = data[end+len(certPEMEnd):]
		if first {
			leaf = make([]byte, 0, base64.StdEncoding.DecodedLen(len(lines)))
		}
		var der [pemLineBytes]byte
		var enc [pemLineChars]byte
		for len(lines) > 0 {
			nl := bytes.IndexByte(lines, '\n')
			if nl < 0 {
				return nil, false
			}
			line := lines[:nl]
			lines = lines[nl+1:]
			// Every line but the last carries a full 48 bytes.
			if len(line) == 0 || len(line) > len(enc) || len(line) < len(enc) && len(lines) > 0 {
				return nil, false
			}
			n, err := base64.StdEncoding.Decode(der[:], line)
			if err != nil || base64.StdEncoding.EncodedLen(n) != len(line) {
				return nil, false
			}
			base64.StdEncoding.Encode(enc[:], der[:n])
			if !bytes.Equal(enc[:len(line)], line) {
				return nil, false
			}
			if first {
				leaf = append(leaf, der[:n]...)
			}
		}
	}
	return leaf, true
}

// ParseCerts parses DER certificates, in order.
func ParseCerts(ders ...[]byte) ([]*x509.Certificate, error) {
	certs := make([]*x509.Certificate, len(ders))
	for i, der := range ders {
		c, err := x509.ParseCertificate(der)
		if err != nil {
			return nil, fmt.Errorf("pki: parse certificate: %w", err)
		}
		certs[i] = c
	}
	return certs, nil
}

// DecodeCertPEM parses the first CERTIFICATE block in data.
func DecodeCertPEM(data []byte) (*x509.Certificate, error) {
	certs, err := DecodeCertsPEM(data)
	if err != nil {
		return nil, err
	}
	return certs[0], nil
}

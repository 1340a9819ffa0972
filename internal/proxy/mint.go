package proxy

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/asn1"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"time"

	"repro/internal/pki"
)

// The two objects every delegation signs — the importer's PKCS#10 request
// and the exporter's proxy certificate — are appended here field by field,
// without encoding/asn1's reflection. For the same inputs the bytes are
// what x509.CreateCertificateRequest and x509.CreateCertificate write (the
// tests hold them to it), and the standard library's checks stay: the
// serial is not negative, the signer's key is the issuer certificate's,
// and every signature is verified against its public key before the bytes
// leave. The keys are those pki.AlgorithmOf accepts: RSA, ECDSA P-256 and
// Ed25519.

// DER tags the mint writes.
const (
	tagInteger         = 0x02
	tagBitString       = 0x03
	tagOctetString     = 0x04
	tagUTCTime         = 0x17
	tagGeneralizedTime = 0x18
	tagSequence        = 0x30
	tagContext0        = 0xa0 // constructed [0]: a certificate's version, a request's attributes
	tagContext3        = 0xa3 // constructed [3]: a certificate's extensions
	tagKeyIdentifier   = 0x80 // [0] IMPLICIT keyIdentifier in an authority key identifier
)

// Complete DER elements the mint copies in.
var (
	derCertVersion3  = []byte{tagContext0, 3, tagInteger, 1, 2} // [0] { INTEGER 2 }
	derCSRVersion1   = []byte{tagInteger, 1, 0}                 // PKCS #10 v1, INTEGER 0
	derNoAttributes  = []byte{tagContext0, 0}                   // [0] SET OF Attribute, empty
	derCriticalTrue  = []byte{0x01, 1, 0xff}
	derOIDAuthKeyID  = []byte{0x06, 3, 0x55, 0x1d, 0x23}                                                        // 2.5.29.35
	derOIDProxyInfo  = []byte{0x06, 8, 0x2b, 0x06, 0x01, 0x05, 0x05, 0x07, 0x01, 0x0e}                          // 1.3.6.1.5.5.7.1.14
	algRSASHA256     = []byte{0x30, 13, 0x06, 9, 0x2a, 0x86, 0x48, 0x86, 0xf7, 0x0d, 0x01, 0x01, 0x0b, 0x05, 0} // sha256WithRSAEncryption, NULL
	algECDSASHA256   = []byte{0x30, 10, 0x06, 8, 0x2a, 0x86, 0x48, 0xce, 0x3d, 0x04, 0x03, 0x02}                // ecdsa-with-SHA256
	algEd25519       = []byte{0x30, 5, 0x06, 3, 0x2b, 0x65, 0x70}                                               // id-Ed25519, as signature and as key
	algRSAEncryption = []byte{0x30, 13, 0x06, 9, 0x2a, 0x86, 0x48, 0x86, 0xf7, 0x0d, 0x01, 0x01, 0x01, 0x05, 0} // rsaEncryption, NULL
	algECP256        = []byte{0x30, 19, 0x06, 7, 0x2a, 0x86, 0x48, 0xce, 0x3d, 0x02, 0x01,
		0x06, 8, 0x2a, 0x86, 0x48, 0xce, 0x3d, 0x03, 0x01, 0x07} // id-ecPublicKey, prime256v1
	// The keyUsage extensions (critical) a proxy carries: digitalSignature,
	// and digitalSignature with keyEncipherment for an RSA key.
	extKeyUsageSign        = []byte{0x30, 14, 0x06, 3, 0x55, 0x1d, 0x0f, 0x01, 1, 0xff, 0x04, 4, tagBitString, 2, 7, 0x80}
	extKeyUsageSignEncrypt = []byte{0x30, 14, 0x06, 3, 0x55, 0x1d, 0x0f, 0x01, 1, 0xff, 0x04, 4, tagBitString, 2, 5, 0xa0}
)

// The policy languages' OIDs in DER, for the ProxyCertInfo of each Type.
var (
	derPolicyInheritAll    = mustMarshalOID(OIDPolicyInheritAll)
	derPolicyLimited       = mustMarshalOID(OIDPolicyLimited)
	derPolicyIndependent   = mustMarshalOID(OIDPolicyIndependent)
	derPolicyRestrictedOps = mustMarshalOID(OIDPolicyRestrictedOps)
)

func mustMarshalOID(oid asn1.ObjectIdentifier) []byte {
	der, err := asn1.Marshal(oid)
	if err != nil {
		panic(err)
	}
	return der
}

// certFields is what a proxy certificate says besides its issuer.
type certFields struct {
	serial              *big.Int
	notBefore, notAfter time.Time
	subject             []byte // DER RDNSequence
	pub                 crypto.PublicKey
	// policyLang is the DER policy-language OID of the ProxyCertInfo the
	// certificate carries, nil for a legacy proxy; pathLen (Unlimited: none)
	// and policy complete that extension.
	policyLang []byte
	pathLen    int
	policy     []byte
}

// mintCert signs the proxy certificate f describes under issuer and returns
// its DER: the TBSCertificate x509.CreateCertificate writes for a template
// with f's serial, validity, RawSubject, the keyUsage proxies carry and the
// ProxyCertInfo as its one extra extension.
func mintCert(issuer *pki.Credential, f *certFields) ([]byte, error) {
	if f.serial.Sign() < 0 {
		return nil, errors.New("proxy: negative serial number")
	}
	key := issuer.PrivateKey
	signerPub := key.Public()
	sigAlg := signatureAlgorithm(signerPub)
	if sigAlg == nil {
		return nil, errors.New("proxy: unsupported issuer key algorithm")
	}
	if !pki.PublicKeysEqual(signerPub, issuer.Certificate.PublicKey) {
		return nil, errors.New("proxy: issuer private key does not match its certificate")
	}
	ski := issuer.Certificate.SubjectKeyId
	out := make([]byte, 0, 256+2*len(issuer.Certificate.RawSubject)+len(f.policy)+len(ski)+
		keyBytes(f.pub)+keyBytes(signerPub))

	out = pki.BeginDER(out, tagSequence) // Certificate, at 0
	const tbs = 2
	out = pki.BeginDER(out, tagSequence)
	out = append(out, derCertVersion3...)
	out = appendInteger(out, f.serial)
	out = append(out, sigAlg...)
	out = append(out, issuer.Certificate.RawSubject...)
	validity := len(out)
	out = pki.BeginDER(out, tagSequence)
	out, err := appendTime(out, f.notBefore)
	if err != nil {
		return nil, err
	}
	if out, err = appendTime(out, f.notAfter); err != nil {
		return nil, err
	}
	out = pki.EndDER(out, validity)
	out = append(out, f.subject...)
	if out, err = appendSPKI(out, f.pub); err != nil {
		return nil, err
	}

	// Extensions in the order x509 writes them: keyUsage, the authority
	// key identifier when the issuer has a subject key identifier and the
	// subject is not the issuer's (a proxy's never is), then ProxyCertInfo.
	// RFC 3820 §3.6: digitalSignature is required for further delegation.
	// keyEncipherment supports RSA key exchange in the era-appropriate SSL
	// cipher suites; asserting it on a signature-only key (ECDSA, Ed25519)
	// would be wrong per RFC 5280. RFC 3820 §3.7: proxies MUST NOT carry
	// basicConstraints CA=true; it is omitted entirely, matching Globus
	// output.
	exts := len(out)
	out = pki.BeginDER(out, tagContext3)
	list := len(out)
	out = pki.BeginDER(out, tagSequence)
	if _, isRSA := f.pub.(*rsa.PublicKey); isRSA {
		out = append(out, extKeyUsageSignEncrypt...)
	} else {
		out = append(out, extKeyUsageSign...)
	}
	if len(ski) > 0 && !bytes.Equal(f.subject, issuer.Certificate.RawSubject) {
		ext := len(out)
		out = pki.BeginDER(out, tagSequence)
		out = append(out, derOIDAuthKeyID...)
		value := len(out)
		out = pki.BeginDER(out, tagOctetString)
		aki := len(out)
		out = pki.BeginDER(out, tagSequence)
		out = pki.AppendDER(out, tagKeyIdentifier, ski)
		out = pki.EndDER(out, aki)
		out = pki.EndDER(out, value)
		out = pki.EndDER(out, ext)
	}
	if f.policyLang != nil {
		ext := len(out)
		out = pki.BeginDER(out, tagSequence)
		out = append(out, derOIDProxyInfo...)
		out = append(out, derCriticalTrue...)
		value := len(out)
		out = pki.BeginDER(out, tagOctetString)
		out = appendCertInfo(out, f.pathLen, f.policyLang, f.policy)
		out = pki.EndDER(out, value)
		out = pki.EndDER(out, ext)
	}
	out = pki.EndDER(out, list)
	out = pki.EndDER(out, exts)
	out = pki.EndDER(out, tbs)
	return appendSignature(out, tbs, key, signerPub, sigAlg)
}

// CreateRequest returns a DER PKCS#10 certification request for key's
// public half under subject, a DER RDNSequence (empty: the empty name):
// what x509.CreateCertificateRequest writes for a template carrying only
// that RawSubject. A delegation's signer takes the key from it and ignores
// the subject, since the issuer names the proxy (RFC 3820).
func CreateRequest(subject []byte, key crypto.Signer) ([]byte, error) {
	pub := key.Public()
	sigAlg := signatureAlgorithm(pub)
	if sigAlg == nil {
		return nil, errors.New("proxy: unsupported request key algorithm")
	}
	if len(subject) == 0 {
		subject = []byte{tagSequence, 0}
	}
	out := make([]byte, 0, 64+len(subject)+2*keyBytes(pub))
	out = pki.BeginDER(out, tagSequence) // CertificationRequest, at 0
	const info = 2
	out = pki.BeginDER(out, tagSequence)
	out = append(out, derCSRVersion1...)
	out = append(out, subject...)
	out, err := appendSPKI(out, pub)
	if err != nil {
		return nil, err
	}
	out = append(out, derNoAttributes...)
	out = pki.EndDER(out, info)
	return appendSignature(out, info, key, pub, sigAlg)
}

// appendSignature completes a signed object: out holds its outer SEQUENCE
// opened at offset 0 and, closed at offset tbs, the part to be signed.
// The signature is verified against pub, the signer's public key, before
// it is appended.
func appendSignature(out []byte, tbs int, key crypto.Signer, pub crypto.PublicKey, sigAlg []byte) ([]byte, error) {
	sig, err := signChecked(key, pub, out[tbs:])
	if err != nil {
		return nil, err
	}
	out = append(out, sigAlg...)
	bits := len(out)
	out = pki.BeginDER(out, tagBitString)
	out = append(out, 0) // no unused bits
	out = append(out, sig...)
	out = pki.EndDER(out, bits)
	return pki.EndDER(out, 0), nil
}

// signChecked signs msg with key as signatureAlgorithm(pub) names and
// verifies the signature against pub, so that a signer that misbehaves
// never ships a certificate or request nobody can verify.
func signChecked(key crypto.Signer, pub crypto.PublicKey, msg []byte) ([]byte, error) {
	var sig []byte
	var err error
	valid := false
	switch k := pub.(type) {
	case *rsa.PublicKey:
		digest := sha256.Sum256(msg)
		if sig, err = key.Sign(rand.Reader, digest[:], crypto.SHA256); err == nil {
			valid = rsa.VerifyPKCS1v15(k, crypto.SHA256, digest[:], sig) == nil
		}
	case *ecdsa.PublicKey:
		digest := sha256.Sum256(msg)
		if sig, err = key.Sign(rand.Reader, digest[:], crypto.SHA256); err == nil {
			valid = ecdsa.VerifyASN1(k, digest[:], sig)
		}
	case ed25519.PublicKey:
		if sig, err = key.Sign(rand.Reader, msg, crypto.Hash(0)); err == nil {
			valid = ed25519.Verify(k, msg, sig)
		}
	default:
		err = errors.New("unsupported key algorithm")
	}
	if err != nil {
		return nil, fmt.Errorf("proxy: sign: %w", err)
	}
	if !valid {
		return nil, errors.New("proxy: signature returned by signer is invalid")
	}
	return sig, nil
}

// signatureAlgorithm is the DER AlgorithmIdentifier x509 signs with for a
// signer whose public key is pub, or nil for a key pki does not support.
func signatureAlgorithm(pub crypto.PublicKey) []byte {
	alg, ok := pki.AlgorithmOf(pub)
	switch {
	case !ok:
		return nil
	case alg == pki.AlgECDSAP256:
		return algECDSASHA256
	case alg == pki.AlgEd25519:
		return algEd25519
	default:
		return algRSASHA256
	}
}

// keyBytes bounds the size of pub's SubjectPublicKeyInfo, and of a
// signature by its private half, for sizing buffers.
func keyBytes(pub crypto.PublicKey) int {
	if k, ok := pub.(*rsa.PublicKey); ok && k.N != nil {
		return (k.N.BitLen()+7)/8 + 48
	}
	return 96
}

// appendSPKI appends pub's SubjectPublicKeyInfo as x509 encodes it.
func appendSPKI(dst []byte, pub crypto.PublicKey) ([]byte, error) {
	spki := len(dst)
	dst = pki.BeginDER(dst, tagSequence)
	switch k := pub.(type) {
	case *rsa.PublicKey:
		if k.N == nil || k.N.Sign() <= 0 || k.E <= 0 {
			return nil, errors.New("proxy: invalid RSA public key")
		}
		dst = append(dst, algRSAEncryption...)
		bits := len(dst)
		dst = pki.BeginDER(dst, tagBitString)
		dst = append(dst, 0)
		key := len(dst)
		dst = pki.BeginDER(dst, tagSequence)
		dst = appendInteger(dst, k.N)
		dst = appendUint(dst, uint64(k.E))
		dst = pki.EndDER(dst, key)
		dst = pki.EndDER(dst, bits)
	case *ecdsa.PublicKey:
		if k.Curve != elliptic.P256() || k.X == nil || k.Y == nil || !k.Curve.IsOnCurve(k.X, k.Y) {
			return nil, errors.New("proxy: invalid or unsupported ECDSA public key")
		}
		dst = append(dst, algECP256...)
		dst = append(dst, tagBitString, 66, 0, 4) // no unused bits; uncompressed point
		dst = appendFixed(dst, k.X, 32)
		dst = appendFixed(dst, k.Y, 32)
	case ed25519.PublicKey:
		if len(k) != ed25519.PublicKeySize {
			return nil, errors.New("proxy: invalid Ed25519 public key")
		}
		dst = append(dst, algEd25519...)
		dst = append(dst, tagBitString, 1+ed25519.PublicKeySize, 0)
		dst = append(dst, k...)
	default:
		return nil, errors.New("proxy: unsupported public key algorithm")
	}
	return pki.EndDER(dst, spki), nil
}

// appendInteger appends the DER INTEGER of a non-negative x.
func appendInteger(dst []byte, x *big.Int) []byte {
	n := (x.BitLen() + 7) / 8
	if x.BitLen()%8 == 0 { // zero, or a leading byte with its top bit set
		n++
	}
	at := len(dst)
	dst = pki.BeginDER(dst, tagInteger)
	return pki.EndDER(appendFixed(dst, x, n), at)
}

// appendFixed appends x big-endian in exactly size bytes.
func appendFixed(dst []byte, x *big.Int, size int) []byte {
	dst = slices.Grow(dst, size)[:len(dst)+size]
	x.FillBytes(dst[len(dst)-size:])
	return dst
}

// appendUint appends the DER INTEGER of v.
func appendUint(dst []byte, v uint64) []byte {
	var b [9]byte
	for i := 8; i > 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
	i := 0
	for i < 8 && b[i] == 0 && b[i+1] < 0x80 {
		i++
	}
	return pki.AppendDER(dst, tagInteger, b[i:])
}

// appendTime appends t as asn1.Marshal writes a time.Time: UTCTime for the
// years 1950 to 2049, GeneralizedTime otherwise, to the second, in UTC.
func appendTime(dst []byte, t time.Time) ([]byte, error) {
	t = t.UTC()
	year := t.Year()
	if year >= 1950 && year < 2050 {
		dst = append(dst, tagUTCTime, 13)
	} else {
		if year < 0 || year > 9999 {
			return nil, fmt.Errorf("proxy: cannot encode year %d", year)
		}
		dst = appendTwoDigits(append(dst, tagGeneralizedTime, 15), year/100)
	}
	dst = appendTwoDigits(dst, year%100)
	dst = appendTwoDigits(dst, int(t.Month()))
	dst = appendTwoDigits(dst, t.Day())
	dst = appendTwoDigits(dst, t.Hour())
	dst = appendTwoDigits(dst, t.Minute())
	dst = appendTwoDigits(dst, t.Second())
	return append(dst, 'Z'), nil
}

// appendTwoDigits appends v, below 100, as two decimal digits.
func appendTwoDigits(dst []byte, v int) []byte {
	return append(dst, byte('0'+v/10), byte('0'+v%10))
}

// appendCertInfo appends a ProxyCertInfo value: the path length unless it
// is Unlimited (or any negative), then the ProxyPolicy of the DER policy
// language lang and, when not empty, the policy body.
func appendCertInfo(dst []byte, pathLen int, lang, policy []byte) []byte {
	info := len(dst)
	dst = pki.BeginDER(dst, tagSequence)
	if pathLen >= 0 {
		dst = appendUint(dst, uint64(pathLen))
	}
	pol := len(dst)
	dst = pki.BeginDER(dst, tagSequence)
	dst = append(dst, lang...)
	if len(policy) > 0 {
		dst = pki.AppendDER(dst, tagOctetString, policy)
	}
	dst = pki.EndDER(dst, pol)
	return pki.EndDER(dst, info)
}

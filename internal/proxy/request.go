package proxy

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"math/big"

	"repro/internal/pki"
)

// errRequestSignature is CheckRequest's answer to a request of the shape
// it reads whose signature does not verify under the key it carries.
var errRequestSignature = errors.New("proxy: request signature does not verify")

// CheckRequest reads a PKCS#10 request of the one shape CreateRequest
// writes on its bytes and checks its proof of possession: version 0, a
// subject in the form pki.CanonicalRawDN accepts, a P-256, Ed25519 or RSA
// key encoded as CreateRequest encodes it, no attributes, the signature
// algorithm that key implies, and nothing after the request. The signature
// is checked with the primitive crypto/x509 uses, over the raw
// CertificationRequestInfo. It returns the requested public key; ok is
// false, and nothing is decided, for any other shape, which the caller
// parses with x509.ParseCertificateRequest. A request of this shape whose
// signature does not verify is an error, with ok true.
func CheckRequest(der []byte) (pub crypto.PublicKey, ok bool, err error) {
	tag, req, rest, ok := pki.ReadDER(der)
	if !ok || tag != tagSequence || len(rest) != 0 {
		return nil, false, nil
	}
	tag, info, signed, ok := pki.ReadDER(req)
	if !ok || tag != tagSequence {
		return nil, false, nil
	}
	tbs := req[:len(req)-len(signed)]
	info, ok = bytes.CutPrefix(info, derCSRVersion1)
	if !ok {
		return nil, false, nil
	}
	tag, _, rest, ok = pki.ReadDER(info)
	if !ok || tag != tagSequence || !pki.CanonicalRawDN(info[:len(info)-len(rest)]) {
		return nil, false, nil
	}
	tag, spki, attrs, ok := pki.ReadDER(rest)
	if !ok || tag != tagSequence || !bytes.Equal(attrs, derNoAttributes) {
		return nil, false, nil
	}
	pub, sigAlg := readSPKI(spki)
	if pub == nil {
		return nil, false, nil
	}
	signed, ok = bytes.CutPrefix(signed, sigAlg)
	if !ok {
		return nil, false, nil
	}
	tag, bits, rest, ok := pki.ReadDER(signed)
	if !ok || tag != tagBitString || len(rest) != 0 || len(bits) == 0 || bits[0] != 0 {
		return nil, false, nil
	}
	if !verifySignature(pub, tbs, bits[1:]) {
		return nil, true, errRequestSignature
	}
	return pub, true, nil
}

// readSPKI reads the contents of a SubjectPublicKeyInfo as appendSPKI
// writes it and returns its key and the signature algorithm x509 pairs
// with it, or nil for anything else. Every INTEGER of an RSA key must be
// positive and minimal, as x509 requires.
func readSPKI(spki []byte) (crypto.PublicKey, []byte) {
	if point, ok := bytes.CutPrefix(spki, algECP256); ok {
		xy, ok := bytes.CutPrefix(point, []byte{tagBitString, 66, 0, 4})
		if !ok || len(xy) != 64 {
			return nil, nil
		}
		x, y := new(big.Int).SetBytes(xy[:32]), new(big.Int).SetBytes(xy[32:])
		return &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}, algECDSASHA256
	}
	if key, ok := bytes.CutPrefix(spki, algEd25519); ok {
		key, ok = bytes.CutPrefix(key, []byte{tagBitString, 1 + ed25519.PublicKeySize, 0})
		if !ok || len(key) != ed25519.PublicKeySize {
			return nil, nil
		}
		return ed25519.PublicKey(bytes.Clone(key)), algEd25519
	}
	bits, ok := bytes.CutPrefix(spki, algRSAEncryption)
	if !ok {
		return nil, nil
	}
	tag, bits, rest, ok := pki.ReadDER(bits)
	if !ok || tag != tagBitString || len(rest) != 0 || len(bits) == 0 || bits[0] != 0 {
		return nil, nil
	}
	tag, key, rest, ok := pki.ReadDER(bits[1:])
	if !ok || tag != tagSequence || len(rest) != 0 {
		return nil, nil
	}
	tag, n, key, ok := pki.ReadDER(key)
	if !ok || tag != tagInteger || !positiveInteger(n) {
		return nil, nil
	}
	tag, e, rest, ok := pki.ReadDER(key)
	if !ok || tag != tagInteger || len(rest) != 0 || !positiveInteger(e) || len(e) > 4 {
		return nil, nil
	}
	exp := 0
	for _, b := range e {
		exp = exp<<8 | int(b)
	}
	return &rsa.PublicKey{N: new(big.Int).SetBytes(n), E: exp}, algRSASHA256
}

// positiveInteger reports whether the contents of a DER INTEGER are a
// minimal encoding of a number above zero.
func positiveInteger(b []byte) bool {
	switch {
	case len(b) == 0 || b[0]&0x80 != 0:
		return false
	case b[0] == 0:
		return len(b) > 1 && b[1]&0x80 != 0
	}
	return true
}

// verifySignature checks sig over msg under pub with the algorithm
// signatureAlgorithm names for it, as x509's CheckSignature does.
func verifySignature(pub crypto.PublicKey, msg, sig []byte) bool {
	switch k := pub.(type) {
	case *rsa.PublicKey:
		digest := sha256.Sum256(msg)
		return rsa.VerifyPKCS1v15(k, crypto.SHA256, digest[:], sig) == nil
	case *ecdsa.PublicKey:
		digest := sha256.Sum256(msg)
		return ecdsa.VerifyASN1(k, digest[:], sig)
	case ed25519.PublicKey:
		return ed25519.Verify(k, msg, sig)
	}
	return false
}

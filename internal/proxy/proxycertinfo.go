// Package proxy implements GSI proxy certificates (paper §2.3–2.4): their
// creation, delegation signing, and chain verification.
//
// Go's crypto/x509 cannot mint or validate proxy certificates — proxies are
// signed by end-entity certificates (which x509 path building rejects) and
// carry the ProxyCertInfo extension (which x509 does not know). This package
// hand-encodes the extension with encoding/asn1 and implements RFC-3820-style
// path validation alongside the legacy "CN=proxy" style the 2001 deployment
// used.
package proxy

import (
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"errors"
	"fmt"
)

// OIDProxyCertInfo is the RFC 3820 ProxyCertInfo extension identifier
// (id-pe-proxyCertInfo, 1.3.6.1.5.5.7.1.14).
var OIDProxyCertInfo = asn1.ObjectIdentifier{1, 3, 6, 1, 5, 5, 7, 1, 14}

// Proxy policy language identifiers.
var (
	// OIDPolicyInheritAll: the proxy inherits all rights of the issuer
	// (id-ppl-inheritAll). This is the normal delegation mode.
	OIDPolicyInheritAll = asn1.ObjectIdentifier{1, 3, 6, 1, 5, 5, 7, 21, 1}
	// OIDPolicyIndependent: the proxy has no rights by virtue of issuance
	// (id-ppl-independent); rights must be granted to it directly.
	OIDPolicyIndependent = asn1.ObjectIdentifier{1, 3, 6, 1, 5, 5, 7, 21, 2}
	// OIDPolicyLimited is the Globus "limited proxy" policy: services that
	// start processes (job submission) must reject it, while data services
	// accept it.
	OIDPolicyLimited = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 3536, 1, 1, 1, 9}
	// OIDPolicyRestrictedOps is this repository's restricted-delegation
	// policy language (paper §6.5, GGF restricted-delegation drafts): the
	// policy body is a newline-separated list of operations the proxy may
	// perform. Encoded under a private-enterprise arc.
	OIDPolicyRestrictedOps = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 57264, 1, 1}
)

// CertInfo is the decoded ProxyCertInfo extension.
type CertInfo struct {
	// PathLenConstraint limits how many further proxies may be issued
	// below this one; -1 means unlimited.
	PathLenConstraint int
	// PolicyLanguage identifies how Policy is to be interpreted.
	PolicyLanguage asn1.ObjectIdentifier
	// Policy is the raw policy body (empty for inherit-all/independent).
	Policy []byte
}

type proxyPolicyASN struct {
	PolicyLanguage asn1.ObjectIdentifier
	Policy         []byte `asn1:"optional,omitempty"`
}

type certInfoWithPathLen struct {
	PathLen int
	Policy  proxyPolicyASN
}

type certInfoNoPathLen struct {
	Policy proxyPolicyASN
}

// Marshal encodes the ProxyCertInfo value in DER.
func (ci *CertInfo) Marshal() ([]byte, error) {
	if len(ci.PolicyLanguage) == 0 {
		return nil, errors.New("proxy: ProxyCertInfo requires a policy language")
	}
	pol := proxyPolicyASN{PolicyLanguage: ci.PolicyLanguage, Policy: ci.Policy}
	if ci.PathLenConstraint < 0 {
		return asn1.Marshal(certInfoNoPathLen{Policy: pol})
	}
	return asn1.Marshal(certInfoWithPathLen{PathLen: ci.PathLenConstraint, Policy: pol})
}

// ParseCertInfo decodes a DER ProxyCertInfo value. The first element's tag
// picks the form: only an INTEGER there can be the path-length form, so
// that form is tried only then, and the form without a path length — the
// common, unlimited proxy — is decoded once.
func ParseCertInfo(der []byte) (*CertInfo, error) {
	if firstElementTag(der) == asn1.TagInteger {
		var with certInfoWithPathLen
		if rest, err := asn1.Unmarshal(der, &with); err == nil && len(rest) == 0 {
			if with.PathLen < 0 {
				return nil, fmt.Errorf("proxy: negative pCPathLenConstraint %d", with.PathLen)
			}
			return &CertInfo{
				PathLenConstraint: with.PathLen,
				PolicyLanguage:    with.Policy.PolicyLanguage,
				Policy:            with.Policy.Policy,
			}, nil
		}
	}
	var without certInfoNoPathLen
	rest, err := asn1.Unmarshal(der, &without)
	if err != nil {
		return nil, fmt.Errorf("proxy: parse ProxyCertInfo: %w", err)
	}
	if len(rest) != 0 {
		return nil, errors.New("proxy: trailing bytes after ProxyCertInfo")
	}
	return &CertInfo{
		PathLenConstraint: -1,
		PolicyLanguage:    without.Policy.PolicyLanguage,
		Policy:            without.Policy.Policy,
	}, nil
}

// firstElementTag returns the first byte inside the SEQUENCE der, or -1.
// Wherever encoding/asn1 accepts the SEQUENCE's header, its contents start
// where this reads them, so a tag other than INTEGER there is one the
// path-length form cannot decode.
func firstElementTag(der []byte) int {
	if len(der) < 2 || der[0] != 0x30 {
		return -1
	}
	at := 2
	if der[1]&0x80 != 0 {
		at += int(der[1] & 0x7f)
	}
	if at >= len(der) {
		return -1
	}
	return int(der[at])
}

// Extension builds the pkix extension carrying this ProxyCertInfo. RFC 3820
// requires the extension to be critical so that proxy-unaware validators
// reject the certificate rather than treat it as the user.
func (ci *CertInfo) Extension() (pkix.Extension, error) {
	der, err := ci.Marshal()
	if err != nil {
		return pkix.Extension{}, err
	}
	return pkix.Extension{Id: OIDProxyCertInfo, Critical: true, Value: der}, nil
}

// InfoFromCert extracts the ProxyCertInfo extension from a certificate.
// ok is false when the certificate carries no such extension.
func InfoFromCert(cert *x509.Certificate) (ci *CertInfo, ok bool, err error) {
	ext := certInfoExtension(cert)
	if ext == nil {
		return nil, false, nil
	}
	if ci, err = ParseCertInfo(ext.Value); err != nil {
		return nil, true, err
	}
	return ci, true, nil
}

// certInfoExtension returns cert's ProxyCertInfo extension undecoded, or
// nil when it carries none.
func certInfoExtension(cert *x509.Certificate) *pkix.Extension {
	for i := range cert.Extensions {
		if cert.Extensions[i].Id.Equal(OIDProxyCertInfo) {
			return &cert.Extensions[i]
		}
	}
	return nil
}

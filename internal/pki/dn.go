// Package pki provides the public-key-infrastructure substrate the paper's
// Grid Security Infrastructure is built on (paper §2.1): distinguished
// names, RSA key pairs, certificate authorities, certificate issuance,
// revocation lists, and PEM-encoded credential storage.
package pki

import (
	"crypto/x509/pkix"
	"encoding/asn1"
	"errors"
	"fmt"
	"strings"
)

// RDN is a single relative distinguished name component, e.g. CN=Jane Doe.
type RDN struct {
	Type  string // short attribute name: C, O, OU, CN, L, ST, DC, E
	Value string
}

// DN is an ordered distinguished name, most-significant component first,
// matching the Globus "/C=US/O=Grid/CN=Jane Doe" string form used
// throughout the paper to identify users and resources.
type DN []RDN

var attrOIDs = map[string]asn1.ObjectIdentifier{
	"C":  {2, 5, 4, 6},
	"ST": {2, 5, 4, 8},
	"L":  {2, 5, 4, 7},
	"O":  {2, 5, 4, 10},
	"OU": {2, 5, 4, 11},
	"CN": {2, 5, 4, 3},
	"DC": {0, 9, 2342, 19200300, 100, 1, 25},
	"E":  {1, 2, 840, 113549, 1, 9, 1},
}

func oidAttr(oid asn1.ObjectIdentifier) string {
	for name, o := range attrOIDs {
		if o.Equal(oid) {
			return name
		}
	}
	return oid.String()
}

// ParseDN parses the Globus slash-separated string form, e.g.
// "/C=US/O=Example Grid/OU=People/CN=Jane Doe". Values may contain any
// character except '/'.
func ParseDN(s string) (DN, error) {
	if s == "" {
		return nil, errors.New("pki: empty distinguished name")
	}
	if !strings.HasPrefix(s, "/") {
		return nil, fmt.Errorf("pki: DN %q must start with '/'", s)
	}
	var dn DN
	for _, part := range strings.Split(s[1:], "/") {
		eq := strings.IndexByte(part, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("pki: malformed DN component %q in %q", part, s)
		}
		typ := strings.ToUpper(strings.TrimSpace(part[:eq]))
		if typ == "EMAILADDRESS" {
			typ = "E"
		}
		if _, ok := attrOIDs[typ]; !ok {
			return nil, fmt.Errorf("pki: unsupported DN attribute %q in %q", part[:eq], s)
		}
		val := part[eq+1:]
		if val == "" {
			return nil, fmt.Errorf("pki: empty value for %q in %q", typ, s)
		}
		dn = append(dn, RDN{Type: typ, Value: val})
	}
	return dn, nil
}

// MustParseDN is ParseDN that panics on error; for constants and tests.
func MustParseDN(s string) DN {
	dn, err := ParseDN(s)
	if err != nil {
		panic(err)
	}
	return dn
}

// String renders the Globus slash-separated form.
func (dn DN) String() string {
	var b strings.Builder
	for _, rdn := range dn {
		b.WriteByte('/')
		b.WriteString(rdn.Type)
		b.WriteByte('=')
		b.WriteString(rdn.Value)
	}
	return b.String()
}

// Equal reports whether two DNs have identical components in the same order.
func (dn DN) Equal(other DN) bool {
	if len(dn) != len(other) {
		return false
	}
	for i := range dn {
		if dn[i] != other[i] {
			return false
		}
	}
	return true
}

// WithCN returns a copy of dn with one additional CN component appended.
// This is how GSI legacy proxy certificate subjects are formed from the
// issuer's subject (paper §2.3: the proxy binds the user's DN to an
// alternate key; the extra CN marks it as a proxy).
func (dn DN) WithCN(cn string) DN {
	out := make(DN, len(dn)+1)
	copy(out, dn)
	out[len(dn)] = RDN{Type: "CN", Value: cn}
	return out
}

// CommonName returns the value of the last CN component, or "".
func (dn DN) CommonName() string {
	for i := len(dn) - 1; i >= 0; i-- {
		if dn[i].Type == "CN" {
			return dn[i].Value
		}
	}
	return ""
}

// attributeTypeAndValue mirrors the X.501 AttributeTypeAndValue structure.
type attributeTypeAndValue struct {
	Type  asn1.ObjectIdentifier
	Value string `asn1:"utf8"`
}

// Marshal encodes the DN as a DER RDNSequence with one AttributeTypeAndValue
// per RDN, preserving component order exactly. The result is suitable for
// x509.CertificateRequest.RawSubject / x509.Certificate template RawSubject.
func (dn DN) Marshal() ([]byte, error) {
	if len(dn) == 0 {
		return nil, errors.New("pki: cannot marshal empty DN")
	}
	// RDNSequence ::= SEQUENCE OF RelativeDistinguishedName
	// RelativeDistinguishedName ::= SET OF AttributeTypeAndValue
	type relativeDN []attributeTypeAndValue
	seq := make([]relativeDN, len(dn))
	for i, rdn := range dn {
		oid, ok := attrOIDs[rdn.Type]
		if !ok {
			return nil, fmt.Errorf("pki: unsupported DN attribute %q", rdn.Type)
		}
		seq[i] = relativeDN{{Type: oid, Value: rdn.Value}}
	}
	var raw []byte
	for _, r := range seq {
		b, err := asn1.MarshalWithParams(r, "set")
		if err != nil {
			return nil, fmt.Errorf("pki: marshal RDN: %w", err)
		}
		raw = append(raw, b...)
	}
	return asn1.Marshal(asn1.RawValue{
		Class: asn1.ClassUniversal, Tag: asn1.TagSequence,
		IsCompound: true, Bytes: raw,
	})
}

// ParseRawDN decodes a DER RDNSequence (e.g. x509.Certificate.RawSubject)
// into a DN, preserving component order. Multi-valued RDNs are flattened in
// encoded order. A sequence in the form DN.Marshal emits is read on its
// bytes; any other goes through encoding/asn1.
func ParseRawDN(der []byte) (DN, error) {
	if dn, ok := parseCanonicalDN(der); ok {
		return dn, nil
	}
	return parseRawDNASN1(der)
}

// parseRawDNASN1 is ParseRawDN through encoding/asn1, for every shape.
func parseRawDNASN1(der []byte) (DN, error) {
	var seq pkix.RDNSequence
	rest, err := asn1.Unmarshal(der, &seq)
	if err != nil {
		return nil, fmt.Errorf("pki: parse RDNSequence: %w", err)
	}
	if len(rest) != 0 {
		return nil, errors.New("pki: trailing bytes after RDNSequence")
	}
	var dn DN
	for _, set := range seq {
		for _, atv := range set {
			val, ok := atv.Value.(string)
			if !ok {
				return nil, fmt.Errorf("pki: non-string DN attribute value %v", atv.Value)
			}
			dn = append(dn, RDN{Type: oidAttr(atv.Type), Value: val})
		}
	}
	return dn, nil
}

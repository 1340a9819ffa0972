package proxy

import (
	"bytes"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/pki"
	"repro/internal/testpki"
)

// The byte-level fast paths of this package and of pki each claim to reach
// the verdict of the parse-based code they sit in front of, on every input.
// These targets hold them to it against reference copies of that code, kept
// here as it was before the fast paths existed.

// refParseCertInfo is the two-attempt ProxyCertInfo decoder: the
// path-length form first, then the form without one.
func refParseCertInfo(der []byte) (*CertInfo, error) {
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

func sameCertInfo(a, b *CertInfo) bool {
	return a.PathLenConstraint == b.PathLenConstraint &&
		a.PolicyLanguage.Equal(b.PolicyLanguage) && bytes.Equal(a.Policy, b.Policy)
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// FuzzParseProxyCertInfo: the tag-directed decoder decodes what the
// two-attempt decoder decodes, to the same value, and fails where it fails
// with the same error; and whatever decodes survives Marshal and a second
// parse unchanged.
func FuzzParseProxyCertInfo(f *testing.F) {
	user := testpki.User(f, "fuzz-pci-alice")
	for _, opts := range []Options{
		{Type: RFC3820},
		{Type: RFC3820Limited, PathLenConstraint: PathLen(0)},
		{Type: RFC3820Independent, PathLenConstraint: PathLen(300)},
		{Type: RFC3820Restricted, RestrictedOps: []string{OpFileRead, OpJobSubmit}},
	} {
		opts.KeyAlgorithm, opts.Lifetime = pki.AlgEd25519, time.Hour
		p, err := New(user, opts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(certInfoExtension(p.Certificate).Value)
	}
	for _, b := range [][]byte{
		nil,
		{0x30, 0x00},
		{0x30, 0x03, 0x02, 0x01, 0x05}, // a path length and no policy
		{0x30, 0x05, 0x02, 0x01, 0xff, 0x30, 0x00}, // negative path length
		{0x30, 0x81, 0x03, 0x02, 0x01, 0x05},       // non-minimal length
		{0x04, 0x00},
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, der []byte) {
		got, err := ParseCertInfo(der)
		want, wantErr := refParseCertInfo(der)
		if !sameError(err, wantErr) {
			t.Fatalf("ParseCertInfo(%x): error %v, reference %v", der, err, wantErr)
		}
		if err != nil {
			return
		}
		if !sameCertInfo(got, want) {
			t.Fatalf("ParseCertInfo(%x) = %+v, reference %+v", der, got, want)
		}
		again, err := got.Marshal()
		if err != nil {
			t.Fatalf("Marshal(%+v): %v", got, err)
		}
		back, err := ParseCertInfo(again)
		if err != nil || !sameCertInfo(back, got) {
			t.Fatalf("Marshal∘Parse of %+v: %+v, %v", got, back, err)
		}
	})
}

// refAttrs names the attribute types pki knows, as pki names them.
var refAttrs = map[string]asn1.ObjectIdentifier{
	"C": {2, 5, 4, 6}, "ST": {2, 5, 4, 8}, "L": {2, 5, 4, 7}, "O": {2, 5, 4, 10},
	"OU": {2, 5, 4, 11}, "CN": {2, 5, 4, 3}, "DC": {0, 9, 2342, 19200300, 100, 1, 25},
	"E": {1, 2, 840, 113549, 1, 9, 1},
}

// refParseRawDN is pki.ParseRawDN through encoding/asn1 alone.
func refParseRawDN(der []byte) (pki.DN, error) {
	var seq pkix.RDNSequence
	rest, err := asn1.Unmarshal(der, &seq)
	if err != nil {
		return nil, fmt.Errorf("pki: parse RDNSequence: %w", err)
	}
	if len(rest) != 0 {
		return nil, errors.New("pki: trailing bytes after RDNSequence")
	}
	var dn pki.DN
	for _, set := range seq {
		for _, atv := range set {
			val, ok := atv.Value.(string)
			if !ok {
				return nil, fmt.Errorf("pki: non-string DN attribute value %v", atv.Value)
			}
			name := atv.Type.String()
			for n, oid := range refAttrs {
				if oid.Equal(atv.Type) {
					name = n
				}
			}
			dn = append(dn, pki.RDN{Type: name, Value: val})
		}
	}
	return dn, nil
}

// refSubjectExtends is the subject discipline on parsed DNs alone.
func refSubjectExtends(parent, child []byte) error {
	childDN, err := refParseRawDN(child)
	if err != nil {
		return err
	}
	parentDN, err := refParseRawDN(parent)
	if err != nil {
		return err
	}
	if len(childDN) != len(parentDN)+1 {
		return errors.New("subject must extend issuer subject by exactly one component")
	}
	if !childDN[:len(parentDN)].Equal(parentDN) {
		return errors.New("subject does not extend issuer subject")
	}
	if childDN[len(childDN)-1].Type != "CN" {
		return errors.New("appended subject component must be a CN")
	}
	return nil
}

// refIsProxy is IsProxy on parsed DNs alone.
func refIsProxy(cert *x509.Certificate) bool {
	if _, ok, _ := InfoFromCert(cert); ok {
		return true
	}
	dn, err := refParseRawDN(cert.RawSubject)
	if err != nil || len(dn) == 0 {
		return false
	}
	last := dn[len(dn)-1]
	if last.Type != "CN" || (last.Value != "proxy" && last.Value != "limited proxy") {
		return false
	}
	issuer, err := refParseRawDN(cert.RawIssuer)
	if err != nil {
		return false
	}
	return dn[:len(dn)-1].Equal(issuer)
}

// attr is one AttributeTypeAndValue for rdnSeq: any type, any value tag.
type attr struct {
	oid   asn1.ObjectIdentifier
	tag   int
	value string
}

// rdnSeq encodes an RDNSequence, one SET per argument.
func rdnSeq(tb testing.TB, rdns ...[]attr) []byte {
	tb.Helper()
	var seq []byte
	for _, rdn := range rdns {
		var set []byte
		for _, a := range rdn {
			b, err := asn1.Marshal(struct {
				Type  asn1.ObjectIdentifier
				Value asn1.RawValue
			}{a.oid, asn1.RawValue{Tag: a.tag, Bytes: []byte(a.value)}})
			if err != nil {
				tb.Fatal(err)
			}
			set = append(set, b...)
		}
		b, err := asn1.Marshal(asn1.RawValue{Tag: asn1.TagSet, IsCompound: true, Bytes: set})
		if err != nil {
			tb.Fatal(err)
		}
		seq = append(seq, b...)
	}
	out, err := asn1.Marshal(asn1.RawValue{Tag: asn1.TagSequence, IsCompound: true, Bytes: seq})
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// FuzzProxySubject: on arbitrary RDNSequences, the byte-level readings —
// ParseRawDN's own, the subject discipline, IsProxy's last-attribute
// shortcut and the subject Create builds — agree with the encoding/asn1
// parse they replace.
func FuzzProxySubject(f *testing.F) {
	user := testpki.User(f, "fuzz-subject-alice")
	host := testpki.Host(f, "fuzz-subject.test")
	rfc, err := New(user, Options{KeyAlgorithm: pki.AlgEd25519, Lifetime: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	rfc2, err := New(rfc, Options{KeyAlgorithm: pki.AlgEd25519, Lifetime: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	legacy, err := New(user, Options{Type: LegacyLimited, KeyAlgorithm: pki.AlgEd25519, Lifetime: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	// Real chains: each child under its issuer.
	for _, c := range []*pki.Credential{rfc, rfc2, legacy, user, host} {
		f.Add(c.Certificate.RawIssuer, c.Certificate.RawSubject, "proxy")
	}
	printable, err := asn1.Marshal(pkix.Name{Country: []string{"US"}, Organization: []string{"Fuzz Grid"}, CommonName: "alice"}.ToRDNSequence())
	if err != nil {
		f.Fatal(err)
	}
	var (
		c  = asn1.ObjectIdentifier{2, 5, 4, 6}
		o  = asn1.ObjectIdentifier{2, 5, 4, 10}
		cn = asn1.ObjectIdentifier{2, 5, 4, 3}
		xx = asn1.ObjectIdentifier{1, 2, 3, 4, 5}
	)
	const utf8, printableTag, ia5, t61, bmp = 12, 19, 22, 20, 30
	base := []attr{{c, utf8, "US"}}
	long := string(bytes.Repeat([]byte("n"), 200)) // long-form lengths
	for _, pair := range [][2][]byte{
		{printable, rdnSeq(f, []attr{{c, utf8, "US"}}, []attr{{o, utf8, "Fuzz Grid"}}, []attr{{cn, utf8, "alice"}}, []attr{{cn, utf8, "proxy"}})},
		{rdnSeq(f, base), rdnSeq(f, base, []attr{{cn, printableTag, "proxy"}})},
		{rdnSeq(f, base), rdnSeq(f, base, []attr{{cn, ia5, "limited proxy"}})},
		{rdnSeq(f, base), rdnSeq(f, base, []attr{{cn, t61, "proxy"}})},
		{rdnSeq(f, base), rdnSeq(f, base, []attr{{cn, bmp, "\x00p\x00r\x00o\x00x\x00y"}})},
		{rdnSeq(f, base), rdnSeq(f, base, []attr{{cn, utf8, "proxy"}, {o, utf8, "x"}})}, // multi-valued
		{rdnSeq(f, base), rdnSeq(f, base, []attr{{xx, utf8, "proxy"}})},                 // unknown type
		{rdnSeq(f, base), rdnSeq(f, base, []attr{{o, utf8, "proxy"}})},                  // known type, not CN
		{rdnSeq(f, base), rdnSeq(f, base, []attr{{cn, utf8, "\xff"}})},                  // invalid UTF-8
		{rdnSeq(f, []attr{{o, utf8, long}}), rdnSeq(f, []attr{{o, utf8, long}}, []attr{{cn, utf8, long}})},
		{rdnSeq(f), rdnSeq(f, []attr{{cn, utf8, "limited proxy"}})},
		{rdnSeq(f, base), append(rdnSeq(f, base, []attr{{cn, utf8, "proxy"}}), 0)},
	} {
		f.Add(pair[0], pair[1], "limited proxy")
	}
	f.Add(rdnSeq(f, base), rdnSeq(f, base), long)

	f.Fuzz(func(t *testing.T, parent, child []byte, cn string) {
		for _, raw := range [][]byte{parent, child} {
			got, err := pki.ParseRawDN(raw)
			want, wantErr := refParseRawDN(raw)
			if !sameError(err, wantErr) || !got.Equal(want) {
				t.Fatalf("ParseRawDN(%x) = %v, %v; reference %v, %v", raw, got, err, want, wantErr)
			}
		}
		if err, want := subjectExtends(parent, child), refSubjectExtends(parent, child); !sameError(err, want) {
			t.Fatalf("subjectExtends(%x, %x) = %v, reference %v", parent, child, err, want)
		}
		cert := &x509.Certificate{RawSubject: child, RawIssuer: parent}
		if got, want := IsProxy(cert), refIsProxy(cert); got != want {
			t.Fatalf("IsProxy(subject %x, issuer %x) = %v, reference %v", child, parent, got, want)
		}
		out, ok := pki.AppendCN(parent, cn)
		if ok != pki.CanonicalRawDN(parent) {
			t.Fatalf("AppendCN(%x) ok = %v, CanonicalRawDN %v", parent, ok, !ok)
		}
		if !ok {
			return
		}
		dn, err := refParseRawDN(parent)
		if err != nil {
			t.Fatalf("canonical %x does not parse: %v", parent, err)
		}
		want, err := dn.WithCN(cn).Marshal()
		if err != nil || !bytes.Equal(out, want) {
			t.Fatalf("AppendCN(%x, %q) = %x; WithCN(...).Marshal() = %x, %v", parent, cn, out, want, err)
		}
	})
}

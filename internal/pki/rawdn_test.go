package pki

import (
	"bytes"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"encoding/pem"
	"strings"
	"testing"
	"testing/quick"
)

func mustMarshal(t *testing.T, dn DN) []byte {
	t.Helper()
	der, err := dn.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return der
}

// printableSubject is a subject as crypto/x509 writes pkix.Name: the same
// components as /C=US/O=Grid/CN=jdoe, in PrintableStrings.
func printableSubject(t *testing.T) []byte {
	t.Helper()
	der, err := asn1.Marshal(pkix.Name{Country: []string{"US"}, Organization: []string{"Grid"}, CommonName: "jdoe"}.ToRDNSequence())
	if err != nil {
		t.Fatal(err)
	}
	return der
}

// AppendCN is DN.WithCN(cn).Marshal() on the bytes, across the lengths
// where DER switches to long-form and two-byte lengths.
func TestAppendCNMatchesMarshal(t *testing.T) {
	for _, size := range []int{0, 1, 100, 110, 127, 128, 200, 255, 256, 300} {
		value := strings.Repeat("v", size)
		for _, dn := range []DN{
			MustParseDN("/C=US/O=Example Grid/OU=People/CN=Jane Doe"),
			MustParseDN("/C=US/CN=José Ñuñez/E=j@example.org/DC=org/ST=IL/L=Chicago"),
			{{Type: "O", Value: value}},
			{},
		} {
			raw := []byte{0x30, 0x00}
			if len(dn) > 0 {
				raw = mustMarshal(t, dn)
			}
			for _, cn := range []string{"proxy", "limited proxy", value} {
				got, ok := AppendCN(raw, cn)
				want := mustMarshal(t, dn.WithCN(cn))
				if !ok || !bytes.Equal(got, want) {
					t.Fatalf("AppendCN(%s, %d bytes) = %x, %v; want %x", dn, len(cn), got, ok, want)
				}
			}
		}
	}
}

// Every shape DN.Marshal does not emit is declined, so the caller parses.
func TestByteLevelDNDeclinesOtherForms(t *testing.T) {
	canonical := mustMarshal(t, MustParseDN("/C=US/O=Grid/CN=jdoe"))
	multi, err := asn1.Marshal(pkix.RDNSequence{{
		{Type: asn1.ObjectIdentifier{2, 5, 4, 6}, Value: "US"},
		{Type: asn1.ObjectIdentifier{2, 5, 4, 10}, Value: "Grid"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	unknown, err := asn1.Marshal(pkix.RDNSequence{{{Type: asn1.ObjectIdentifier{1, 2, 3}, Value: "x"}}})
	if err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{
		"PrintableString": printableSubject(t),
		"multi-valued":    multi,
		"unknown type":    unknown,
		"trailing byte":   append(append([]byte{}, canonical...), 0),
		"truncated":       canonical[:len(canonical)-1],
		"not a SEQUENCE":  {0x31, 0x00},
		"empty":           nil,
	} {
		if CanonicalRawDN(raw) {
			t.Errorf("%s: CanonicalRawDN", name)
		}
		if _, ok := AppendCN(raw, "proxy"); ok {
			t.Errorf("%s: AppendCN took the byte path", name)
		}
		if _, ok := parseCanonicalDN(raw); ok {
			t.Errorf("%s: parseCanonicalDN took the byte path", name)
		}
	}
	if !CanonicalRawDN(canonical) {
		t.Error("DN.Marshal output is not canonical")
	}
}

func TestExtendsByCN(t *testing.T) {
	parent := MustParseDN("/C=US/O=Grid/CN=jdoe")
	raw := mustMarshal(t, parent)
	for _, tc := range []struct {
		name  string
		child []byte
		want  bool
	}{
		{"one CN", mustMarshal(t, parent.WithCN("proxy")), true},
		{"one OU", mustMarshal(t, append(parent[:3:3], RDN{Type: "OU", Value: "proxy"})), false},
		{"two CNs", mustMarshal(t, parent.WithCN("a").WithCN("b")), false},
		{"same subject", raw, false},
		{"other prefix", mustMarshal(t, MustParseDN("/C=US/O=Grid/CN=mallory/CN=proxy")), false},
	} {
		if got := ExtendsByCN(raw, tc.child); got != tc.want {
			t.Errorf("%s: ExtendsByCN = %v, want %v", tc.name, got, tc.want)
		}
	}
	// A parent in another encoding is left to the parsed comparison.
	printable := printableSubject(t)
	child, ok := AppendCN(raw, "proxy")
	if !ok || ExtendsByCN(printable, child) {
		t.Error("ExtendsByCN decided a PrintableString parent")
	}
}

func TestLastValue(t *testing.T) {
	bmp, err := asn1.Marshal(pkix.RDNSequence{{{Type: asn1.ObjectIdentifier{2, 5, 4, 3}, Value: "x"}}})
	if err != nil {
		t.Fatal(err)
	}
	bmp[len(bmp)-3] = 0x1e // the UTF8String tag becomes BMPString's
	for _, tc := range []struct {
		name string
		raw  []byte
		want string
		ok   bool
	}{
		{"UTF8String", mustMarshal(t, MustParseDN("/O=Grid/CN=limited proxy")), "limited proxy", true},
		{"PrintableString", printableSubject(t), "jdoe", true},
		{"BMPString", bmp, "", false},
		{"empty", []byte{0x30, 0x00}, "", false},
	} {
		v, ok := LastValue(tc.raw)
		if ok != tc.ok || string(v) != tc.want {
			t.Errorf("%s: LastValue = %q, %v; want %q, %v", tc.name, v, ok, tc.want, tc.ok)
		}
	}
}

// ParseRawDN's byte-level reading returns what encoding/asn1 returns.
func TestParseRawDNBytePathMatchesASN1(t *testing.T) {
	check := func(raw []byte) bool {
		got, ok := parseCanonicalDN(raw)
		want, err := parseRawDNASN1(raw)
		return ok && err == nil && got.Equal(want) && (got == nil) == (want == nil)
	}
	if !check([]byte{0x30, 0x00}) {
		t.Error("empty RDNSequence")
	}
	f := func(cn, org string, n uint8) bool {
		dn := DN{{Type: "O", Value: org}, {Type: "CN", Value: cn}, {Type: "DC", Value: strings.Repeat("d", int(n))}}
		raw, err := dn.Marshal()
		return err == nil && (!CanonicalRawDN(raw) || check(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The byte-level readings allocate nothing but their results.
func TestByteLevelDNAllocs(t *testing.T) {
	parent := mustMarshal(t, MustParseDN("/C=US/O=Example Grid/OU=People/CN=Jane Doe"))
	child := mustMarshal(t, MustParseDN("/C=US/O=Example Grid/OU=People/CN=Jane Doe/CN=proxy"))
	for name, want := range map[string]float64{
		"ExtendsByCN": 0, "LastValue": 0, "CanonicalRawDN": 0, "AppendCN": 1, "ParseRawDN": 2,
	} {
		got := testing.AllocsPerRun(100, func() {
			switch name {
			case "ExtendsByCN":
				ExtendsByCN(parent, child)
			case "LastValue":
				LastValue(child)
			case "CanonicalRawDN":
				CanonicalRawDN(child)
			case "AppendCN":
				AppendCN(parent, "proxy")
			case "ParseRawDN":
				ParseRawDN(child)
			}
		})
		if got > want {
			t.Errorf("%s allocates %.0f objects, want %.0f", name, got, want)
		}
	}
}

// AppendCertPEM writes what encoding/pem writes, and a chain is one buffer.
func TestAppendCertPEMMatchesEncoding(t *testing.T) {
	for _, n := range []int{0, 1, 47, 48, 49, 95, 96, 97, 1000} {
		der := bytes.Repeat([]byte{byte(n)}, n)
		want := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
		if got := AppendCertPEM(nil, der); !bytes.Equal(got, want) {
			t.Errorf("%d bytes: got\n%s\nwant\n%s", n, got, want)
		}
		if got := certPEMLen(n); got != len(want) {
			t.Errorf("certPEMLen(%d) = %d, want %d", n, got, len(want))
		}
	}
	chain := []*x509.Certificate{{Raw: bytes.Repeat([]byte{1}, 700)}, {Raw: bytes.Repeat([]byte{2}, 900)}}
	if allocs := testing.AllocsPerRun(100, func() { EncodeCertsPEM(chain) }); allocs > 1 {
		t.Errorf("EncodeCertsPEM allocates %.0f objects, want 1", allocs)
	}
}

package pki

import (
	"bytes"
	"encoding/asn1"
	"unicode/utf8"
)

// Byte-level forms of the DN work the delegation path repeats on every
// certificate it signs or verifies. Each decides only inputs whose meaning
// it can read off the DER without doubt and reports !ok for everything
// else; the caller then takes the encoding/asn1 parse or DN.Marshal, which
// stay the reference. The shape they recognise is the one DN.Marshal
// emits, called canonical here: an RDNSequence whose every RDN is a SET of
// exactly one AttributeTypeAndValue with an attrOIDs type and a valid
// UTF8String value, in minimal DER. Only results allocate: AppendCN's
// bytes and parseCanonicalDN's DN.

const (
	tagOID        = 0x06
	tagUTF8String = 0x0c
	tagBMPString  = 0x1e
	tagSequence   = 0x30
	tagSet        = 0x31
)

// derOIDs holds the complete DER encoding of every attrOIDs type.
var derOIDs = func() []derOID {
	out := make([]derOID, 0, len(attrOIDs))
	for name, oid := range attrOIDs {
		der, err := asn1.Marshal(oid)
		if err != nil {
			panic(err)
		}
		out = append(out, derOID{der, name})
	}
	return out
}()

type derOID struct {
	der  []byte
	name string
}

// derCN is the DER encoding of the CN attribute type, 2.5.4.3.
var derCN = []byte{tagOID, 3, 0x55, 0x04, 0x03}

// derTLV splits the first element off b: its tag byte, its contents and
// what follows it. Only one-byte tags and minimal definite lengths — what
// encoding/asn1 accepts — are read; anything else is !ok.
func derTLV(b []byte) (tag byte, content, rest []byte, ok bool) {
	if len(b) < 2 || b[0]&0x1f == 0x1f {
		return 0, nil, nil, false
	}
	n, off := int(b[1]), 2
	if n&0x80 != 0 {
		k := n & 0x7f
		if k == 0 || k > 3 || len(b) < 2+k || b[2] == 0 {
			return 0, nil, nil, false
		}
		n = 0
		for _, c := range b[2 : 2+k] {
			n = n<<8 | int(c)
		}
		if n < 0x80 {
			return 0, nil, nil, false
		}
		off += k
	}
	if len(b)-off < n {
		return 0, nil, nil, false
	}
	return b[0], b[off : off+n], b[off+n:], true
}

// canonicalRDN splits one canonical RDN off b and returns its attribute's
// DER-encoded type and its value's contents.
func canonicalRDN(b []byte) (oid, value, rest []byte, ok bool) {
	tag, set, rest, ok := derTLV(b)
	if !ok || tag != tagSet {
		return nil, nil, nil, false
	}
	tag, atv, tail, ok := derTLV(set)
	if !ok || tag != tagSequence || len(tail) != 0 {
		return nil, nil, nil, false
	}
	tag, _, after, ok := derTLV(atv)
	if !ok || tag != tagOID {
		return nil, nil, nil, false
	}
	oid = atv[:len(atv)-len(after)]
	tag, value, tail, ok = derTLV(after)
	if !ok || tag != tagUTF8String || len(tail) != 0 || !utf8.Valid(value) || attrName(oid) == "" {
		return nil, nil, nil, false
	}
	return oid, value, rest, true
}

// attrName is the short name of a DER-encoded attrOIDs type, or "".
func attrName(der []byte) string {
	for _, o := range derOIDs {
		if bytes.Equal(o.der, der) {
			return o.name
		}
	}
	return ""
}

// parseCanonicalDN is ParseRawDN for a canonical raw, in two allocations:
// the DN and one string its values share.
func parseCanonicalDN(raw []byte) (DN, bool) {
	content, n, ok := canonicalContent(raw)
	if !ok || n == 0 {
		return nil, ok
	}
	text := string(content)
	dn := make(DN, 0, n)
	for rest := content; len(rest) > 0; {
		oid, value, tail, _ := canonicalRDN(rest)
		end := len(content) - len(tail) // a canonical RDN ends with its value
		dn = append(dn, RDN{Type: attrName(oid), Value: text[end-len(value) : end]})
		rest = tail
	}
	return dn, true
}

// canonicalContent returns the inside of the RDNSequence raw and its number
// of RDNs, ok only when raw is canonical.
func canonicalContent(raw []byte) (content []byte, n int, ok bool) {
	content, ok = rdnSequence(raw)
	for rest := content; ok && len(rest) > 0; n++ {
		_, _, rest, ok = canonicalRDN(rest)
	}
	return content, n, ok
}

// rdnSequence returns the contents of the RDNSequence raw, which must be
// the whole of raw.
func rdnSequence(raw []byte) ([]byte, bool) {
	tag, content, rest, ok := derTLV(raw)
	return content, ok && tag == tagSequence && len(rest) == 0
}

// CanonicalRawDN reports whether raw is a DER RDNSequence in the form
// DN.Marshal emits, so that DN.Marshal(ParseRawDN(raw)) reproduces raw.
func CanonicalRawDN(raw []byte) bool {
	_, _, ok := canonicalContent(raw)
	return ok
}

// AppendCN returns the RDNSequence raw with one CN RDN of value cn
// appended: byte for byte what ParseRawDN(raw).WithCN(cn).Marshal() would
// return. ok is false, and nothing is allocated, unless CanonicalRawDN(raw).
func AppendCN(raw []byte, cn string) (out []byte, ok bool) {
	content, _, ok := canonicalContent(raw)
	if !ok {
		return nil, false
	}
	// SET { SEQUENCE { OID 2.5.4.3, UTF8String cn } }
	atvLen := len(derCN) + derHeaderLen(len(cn)) + len(cn)
	setLen := derHeaderLen(atvLen) + atvLen
	seqLen := len(content) + derHeaderLen(setLen) + setLen
	out = make([]byte, 0, derHeaderLen(seqLen)+seqLen)
	out = appendDERHeader(out, tagSequence, seqLen)
	out = append(out, content...)
	out = appendDERHeader(out, tagSet, setLen)
	out = appendDERHeader(out, tagSequence, atvLen)
	out = append(out, derCN...)
	out = appendDERHeader(out, tagUTF8String, len(cn))
	return append(out, cn...), true
}

// derHeaderLen is the size of the tag and minimal length of an element
// whose contents are n bytes.
func derHeaderLen(n int) int {
	if n < 0x80 {
		return 2
	}
	size := 2
	for ; n > 0; n >>= 8 {
		size++
	}
	return size
}

func appendDERHeader(dst []byte, tag byte, n int) []byte {
	dst = append(dst, tag)
	if n < 0x80 {
		return append(dst, byte(n))
	}
	k := derHeaderLen(n) - 2
	dst = append(dst, 0x80|byte(k))
	for i := k - 1; i >= 0; i-- {
		dst = append(dst, byte(n>>(8*i)))
	}
	return dst
}

// ExtendsByCN reports whether child is parent plus one CN RDN, read on the
// bytes: parent is canonical and child's RDNSequence is parent's, byte for
// byte, followed by one canonical RDN of type CN. True means ParseRawDN
// would find child's DN to be parent's with one CN component appended.
// False decides nothing; compare the parsed DNs.
func ExtendsByCN(parent, child []byte) bool {
	pc, _, ok := canonicalContent(parent)
	if !ok {
		return false
	}
	cc, ok := rdnSequence(child)
	if !ok || !bytes.HasPrefix(cc, pc) {
		return false
	}
	oid, _, rest, ok := canonicalRDN(cc[len(pc):])
	return ok && len(rest) == 0 && bytes.Equal(oid, derCN)
}

// LastValue returns the contents of the last attribute value in the
// RDNSequence raw: if ParseRawDN(raw) succeeds, the Value of its last
// component is exactly these bytes. ok is false for any shape it does not
// read exactly — every RDN a SET, every attribute a SEQUENCE of an OID and
// one value, minimal DER throughout — and for a BMPString value, which is
// UTF-16 on the wire. Every other value ParseRawDN accepts is a string
// type whose contents are the string.
func LastValue(raw []byte) (value []byte, ok bool) {
	content, ok := rdnSequence(raw)
	if !ok {
		return nil, false
	}
	var tag byte
	found := false
	for len(content) > 0 {
		var t byte
		var set []byte
		if t, set, content, ok = derTLV(content); !ok || t != tagSet {
			return nil, false
		}
		for len(set) > 0 {
			var atv, tail []byte
			if t, atv, set, ok = derTLV(set); !ok || t != tagSequence {
				return nil, false
			}
			if t, _, atv, ok = derTLV(atv); !ok || t != tagOID {
				return nil, false
			}
			if tag, value, tail, ok = derTLV(atv); !ok || len(tail) != 0 {
				return nil, false
			}
			found = true
		}
	}
	if !found || tag == tagBMPString {
		return nil, false
	}
	return value, true
}

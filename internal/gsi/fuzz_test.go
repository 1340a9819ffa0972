package gsi

import (
	"bytes"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"testing"
	"time"

	"repro/internal/pki"
	"repro/internal/proxy"
	"repro/internal/testpki"
)

// frameBytes marshals one plain frame for the seed corpus.
func frameBytes(tb testing.TB, payload []byte) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadFrame feeds the length-prefixed frame reader arbitrary wire
// bytes. An accepted frame must respect the configured maximum and
// survive a re-frame round trip; a hostile prefix must be rejected by the
// bound check, never by exhausting memory.
func FuzzReadFrame(f *testing.F) {
	f.Add(frameBytes(f, []byte("hello")))
	f.Add(frameBytes(f, nil))
	f.Add(frameBytes(f, bytes.Repeat([]byte{0xab}, 1000)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 5, 'h', 'i'}) // truncated body
	f.Fuzz(func(t *testing.T, data []byte) {
		const max = 1 << 16
		payload, err := ReadFrame(bytes.NewReader(data), max)
		if err != nil {
			return
		}
		if len(payload) > max {
			t.Fatalf("accepted frame of %d bytes past max %d", len(payload), max)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatalf("re-frame failed: %v", err)
		}
		back, err := ReadFrame(&buf, max)
		if err != nil || !bytes.Equal(back, payload) {
			t.Fatalf("re-frame round trip failed: %v", err)
		}
	})
}

// FuzzReadStreamFrame covers the stream-tagged variant: the id must be
// nonzero, the payload bounded, and the round trip faithful.
func FuzzReadStreamFrame(f *testing.F) {
	seed := func(id uint32, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteStreamFrame(&buf, id, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(1, []byte("hello")))
	f.Add(seed(0xffffffff, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 0}) // reserved id 0
	f.Add([]byte{0, 0, 0, 2, 0, 0})       // shorter than the id
	f.Fuzz(func(t *testing.T, data []byte) {
		const max = 1 << 16
		id, payload, err := ReadStreamFrame(bytes.NewReader(data), max)
		if err != nil {
			return
		}
		if id == 0 {
			t.Fatal("accepted the reserved stream id 0")
		}
		if len(payload) > max {
			t.Fatalf("accepted frame of %d bytes past max %d", len(payload), max)
		}
		var buf bytes.Buffer
		if err := WriteStreamFrame(&buf, id, payload); err != nil {
			t.Fatalf("re-frame failed: %v", err)
		}
		backID, back, err := ReadStreamFrame(&buf, max)
		if err != nil || backID != id || !bytes.Equal(back, payload) {
			t.Fatalf("re-frame round trip failed: id %d != %d, %v", backID, id, err)
		}
	})
}

// FuzzSignCSR holds SignCSR's byte-level reading of a certification
// request (proxy.CheckRequest) to crypto/x509's, which stays the fallback
// for every other shape: on any input the byte path reads, it accepts
// exactly when x509 parses the request and verifies its signature, with
// the same public key; and SignCSR certifies the key x509 finds or
// refuses the request as x509 does. Seeds are the requests
// proxy.CreateRequest writes for each key algorithm, under an empty and a
// real subject, one with a broken signature, and x509-written requests of
// other shapes.
func FuzzSignCSR(f *testing.F) {
	subject := testpki.User(f, "fuzz-csr-alice").Certificate.RawSubject
	for _, alg := range pki.KeyAlgorithms() {
		key, err := pki.GenerateSigner(pki.KeySpec{Algorithm: alg, Bits: pki.DemoKeyBits})
		if err != nil {
			f.Fatal(err)
		}
		for _, subj := range [][]byte{nil, subject} {
			csr, err := proxy.CreateRequest(subj, key)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(csr)
		}
		forged, _ := proxy.CreateRequest(subject, key)
		forged[len(forged)-1] ^= 1
		f.Add(forged)
		for _, tmpl := range []*x509.CertificateRequest{
			{Subject: pkix.Name{CommonName: "printable subject", Organization: []string{"Test Grid"}}},
			{DNSNames: []string{"portal.test"}},
		} {
			csr, err := x509.CreateCertificateRequest(rand.Reader, tmpl, key)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(csr)
		}
	}
	issuer, err := proxy.New(testpki.User(f, "fuzz-csr-issuer"), proxy.Options{KeyAlgorithm: pki.AlgEd25519, Lifetime: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := parseCSR(data)
		got, read, gotErr := proxy.CheckRequest(data)
		if read {
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("byte path: %v; x509: %v", gotErr, wantErr)
			}
			if gotErr == nil && !pki.PublicKeysEqual(got, want) {
				t.Fatalf("byte path read key %v, x509 %v", got, want)
			}
		}
		der, _, err := SignCSR(data, issuer, nil, proxy.Options{Lifetime: time.Hour})
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("SignCSR: %v; x509: %v", err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadCSR) {
				t.Fatalf("SignCSR refused a request with %v, not ErrBadCSR", err)
			}
			return
		}
		cert, err := x509.ParseCertificate(der)
		if err != nil {
			t.Fatal(err)
		}
		if !pki.PublicKeysEqual(cert.PublicKey, want) {
			t.Fatal("SignCSR certified a key other than the one x509 reads in the request")
		}
	})
}

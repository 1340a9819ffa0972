package gsi

import (
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"io"
	"math/big"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/pki"
	"repro/internal/proxy"
	"repro/internal/testpki"
)

// The delegation importer must reject a chain whose leaf certifies a key
// other than the one it generated (a malicious exporter substituting its
// own key pair would otherwise hold the private key for "our" proxy).
func TestRequestDelegationRejectsForeignKey(t *testing.T) {
	user := testpki.User(t, "harden-alice")
	portal := testpki.Host(t, "harden-portal.test")
	cli, srv, err := connectPair(t, portal, user, defaultOpts(t), defaultOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		// A hostile exporter: read the CSR, ignore its key, and send back
		// a proxy minted for a DIFFERENT (attacker-held) key.
		// connectPair arms a 30s deadline on the underlying pipe and t.Cleanup closes it
		if _, err := srv.ReadMessage(); err != nil {
			errCh <- err
			return
		}
		foreign := testpki.Key(t, 7)
		cert, err := proxy.Create(user, &foreign.PublicKey, proxy.Options{Lifetime: time.Hour})
		if err != nil {
			errCh <- err
			return
		}
		chain := append([]*x509.Certificate{cert}, user.CertChain()...)
		errCh <- srv.WriteMessage(pki.EncodeCertsPEM(chain))
	}()
	_, err = RequestDelegation(cli, pki.KeySpec{Bits: 1024}, testRoots(t))
	if err == nil || !strings.Contains(err.Error(), "does not match requested key") {
		t.Fatalf("foreign-key chain: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// The importer must reject a chain that does not verify against the trust
// roots, even if the key matches.
func TestRequestDelegationRejectsUntrustedChain(t *testing.T) {
	rogueCA, err := pki.NewCA(pki.CAConfig{Name: pki.MustParseDN("/CN=Harden Rogue CA"), Key: testpki.Key(t, 8)})
	if err != nil {
		t.Fatal(err)
	}
	rogueUser, err := rogueCA.IssueCredentialForKey(pki.MustParseDN("/CN=rogue-user"), time.Hour, testpki.Key(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	// Both ends trust BOTH CAs at the channel layer (so the handshake
	// succeeds), but the importer pins delegation validation to the main
	// test CA only.
	trustBoth := defaultOpts(t)
	trustBoth.Roots.AddCert(rogueCA.Certificate())
	portal := testpki.Host(t, "harden-portal.test")
	cli, srv, err := connectPair(t, portal, rogueUser, trustBoth, trustBoth)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := Delegate(srv, rogueUser, proxy.Options{Lifetime: time.Hour})
		errCh <- err
	}()
	_, err = RequestDelegation(cli, pki.KeySpec{Bits: 1024}, testRoots(t)) // pins the main CA
	if err == nil || !strings.Contains(err.Error(), "delegated chain rejected") {
		t.Fatalf("untrusted chain: %v", err)
	}
	<-errCh
}

// The acceptor's chain check (proxy.VerifyCache) refuses a peer proxy that
// carries a critical extension nobody here recognises (RFC 5280 §4.2) or a
// ProxyCertInfo that is not critical (RFC 3820 §3.8).
func TestHandshakeRefusesUnhandledCriticalExtensions(t *testing.T) {
	user := testpki.User(t, "harden-crit-alice")
	server := testpki.Host(t, "myproxy.test")
	certInfo := func(critical bool) pkix.Extension {
		ext, err := (&proxy.CertInfo{PathLenConstraint: proxy.Unlimited, PolicyLanguage: proxy.OIDPolicyInheritAll}).Extension()
		if err != nil {
			t.Fatal(err)
		}
		ext.Critical = critical
		return ext
	}
	unknown := pkix.Extension{Id: asn1.ObjectIdentifier{1, 2, 3, 4, 5}, Critical: true, Value: []byte{0x05, 0x00}}
	for _, tc := range []struct {
		name    string
		exts    []pkix.Extension
		refused string
	}{
		{"well-formed", []pkix.Extension{certInfo(true)}, ""},
		{"unknown critical extension", []pkix.Extension{certInfo(true), unknown}, "unhandled critical extension"},
		{"non-critical ProxyCertInfo", []pkix.Extension{certInfo(false)}, "ProxyCertInfo extension is not critical"},
	} {
		srvOpts := defaultOpts(t)
		srvOpts.Cache = proxy.NewVerifyCache(0)
		cliRaw, srvRaw := net.Pipe()
		t.Cleanup(func() { cliRaw.Close(); srvRaw.Close() })
		dl := time.Now().Add(30 * time.Second)
		_ = cliRaw.SetDeadline(dl)
		_ = srvRaw.SetDeadline(dl)
		srvErr := make(chan error, 1)
		go func() {
			_, err := Server(srvRaw, server, srvOpts)
			if err != nil {
				srvRaw.Close() // release the client's side of the handshake
			}
			srvErr <- err
		}()
		_, _ = Client(cliRaw, craftProxy(t, user, tc.exts...), defaultOpts(t))
		err := <-srvErr // the verdict is the server's
		switch {
		case tc.refused == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.refused != "" && (err == nil || !strings.Contains(err.Error(), tc.refused)):
			t.Errorf("%s: handshake error %v, want %q", tc.name, err, tc.refused)
		}
	}
}

// craftProxy signs under issuer a proxy that keeps the subject discipline
// but carries exts as its only extensions.
func craftProxy(t *testing.T, issuer *pki.Credential, exts ...pkix.Extension) *pki.Credential {
	t.Helper()
	key := testpki.Key(t, 3)
	serial, err := rand.Int(rand.Reader, big.NewInt(1<<62))
	if err != nil {
		t.Fatal(err)
	}
	subject, ok := pki.AppendCN(issuer.Certificate.RawSubject, serial.String())
	if !ok {
		t.Fatal("issuer subject is not in DN.Marshal form")
	}
	der, err := x509.CreateCertificate(rand.Reader, &x509.Certificate{
		SerialNumber:    serial,
		RawSubject:      subject,
		NotBefore:       time.Now().Add(-time.Minute),
		NotAfter:        time.Now().Add(time.Hour),
		KeyUsage:        x509.KeyUsageDigitalSignature,
		ExtraExtensions: exts,
	}, issuer.Certificate, &key.PublicKey, issuer.PrivateKey)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	return &pki.Credential{Certificate: cert, PrivateKey: key, Chain: issuer.CertChain()}
}

func TestConnAfterCloseFails(t *testing.T) {
	user := testpki.User(t, "harden-alice")
	portal := testpki.Host(t, "harden-portal.test")
	cli, srv, err := connectPair(t, user, portal, defaultOpts(t), defaultOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	go srv.ReadMessage() // a pipe has no buffer: Close's close_notify needs a reader
	cli.Close()
	if err := cli.WriteMessage([]byte("after close")); err == nil {
		t.Error("write after close succeeded")
	}
	if _, err := cli.ReadMessage(); err == nil {
		t.Error("read after close succeeded")
	}
}

func TestClientRejectsIncompleteCredential(t *testing.T) {
	user := testpki.User(t, "harden-alice")
	raw1, raw2 := net.Pipe()
	t.Cleanup(func() { raw1.Close(); raw2.Close() })
	if _, err := Client(raw1, &pki.Credential{Certificate: user.Certificate}, defaultOpts(t)); err == nil {
		t.Error("credential without key accepted")
	}
	if _, err := Client(raw1, nil, defaultOpts(t)); err == nil {
		t.Error("nil credential accepted")
	}
}

// Property: frames written then read back with an interposed size limit
// behave deterministically — either the full payload round-trips (within
// the limit) or ErrFrameTooLarge fires (beyond it); no third outcome.
func TestFrameLimitProperty(t *testing.T) {
	f := func(payload []byte, limitSeed uint16) bool {
		limit := int(limitSeed)%256 + 1
		var buf writableBuffer
		if err := WriteFrame(&buf, payload); err != nil {
			return false
		}
		got, err := ReadFrame(&buf, limit)
		if len(payload) <= limit {
			return err == nil && string(got) == string(payload)
		}
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

type writableBuffer struct{ data []byte }

func (b *writableBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *writableBuffer) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

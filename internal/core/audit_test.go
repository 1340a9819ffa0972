package core

import (
	"bytes"
	"context"
	"crypto"
	"crypto/rsa"
	"fmt"
	"log"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/gsi"
	"repro/internal/pki"
	"repro/internal/testpki"
)

// auditLog collects what a log.Logger writes, one entry per event.
type auditLog struct {
	mu     sync.Mutex
	events []string
}

func (a *auditLog) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events = append(a.events, string(p))
	return len(p), nil
}

func (a *auditLog) all() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.events...)
}

// oneLine fails unless event is one line of valid UTF-8 with no control
// character but its final newline.
func oneLine(t *testing.T, event string) {
	t.Helper()
	body, ok := strings.CutSuffix(event, "\n")
	if !ok || !utf8.ValidString(body) || strings.IndexFunc(body, unicode.IsControl) >= 0 {
		t.Errorf("audit event is not one clean line: %q", event)
	}
}

// TestAuditWritesOneLinePerEvent: whatever a peer put into an event's
// operands, and whatever verb the call site rendered it with, the event is
// one line. Removing the escape from Audit fails every hostile row.
func TestAuditWritesOneLinePerEvent(t *testing.T) {
	var sink auditLog
	l := log.New(&sink, "", 0)
	hostile := []string{
		"eve\nDELEGATED \"alice\"/\"\" to /CN=forged",
		"eve\r\x1b[2Koverwritten",
		"nul\x00byte",
		"bad\xff\xfeutf8",
		"next\u0085line",
	}
	for _, h := range hostile {
		Audit(l, "DENIED %s: GET by %v not in %s", h, fmt.Errorf("wrapped: %s", h), "authorized_retrievers")
	}
	events := sink.all()
	if len(events) != len(hostile) {
		t.Fatalf("%d events for %d calls", len(events), len(hostile))
	}
	for _, e := range events {
		oneLine(t, e)
	}
	if want := `DENIED nul\x00byte: GET by wrapped: nul\x00byte not in authorized_retrievers` + "\n"; events[2] != want {
		t.Errorf("escaped event = %q, want %q", events[2], want)
	}
	if !strings.Contains(events[3], `bad\xff\xfeutf8`) {
		t.Errorf("invalid UTF-8 not escaped byte by byte: %q", events[3])
	}

	// What the validators accept, and what %q already escaped, is written
	// exactly as log.Printf would write it.
	var plain bytes.Buffer
	args := []interface{}{"alice.1@grid", "task+a", "/C=US/O=Test Grid/CN=José Ünïcode", 2 * time.Hour, "a\nb\\c\"d"}
	const format = "DELEGATED %q/%q to %s for %v (%q)"
	log.New(&plain, "", 0).Printf(format, args...)
	sink.events = nil
	Audit(l, format, args...)
	if got := sink.all(); len(got) != 1 || got[0] != plain.String() {
		t.Errorf("Audit wrote %q, log.Printf writes %q", got, plain.String())
	}
	Audit(nil, "a nil logger disables logging") // must not panic
}

// TestMalformedRequestDoesNotEchoThePassphrase: a pass phrase sent with a
// raw newline leaves its tail on a line the parser rejects; the rejection
// goes to the audit log and back to the peer, and must carry neither.
func TestMalformedRequestDoesNotEchoThePassphrase(t *testing.T) {
	var sink auditLog
	_, addr := startServer(t, func(cfg *ServerConfig) { cfg.Logger = log.New(&sink, "", 0) })
	conn, err := gsi.Dial(context.Background(), "tcp", addr, testpki.User(t, "core-alice"), gsi.AuthOptions{
		Roots: testRoots(t), HandshakeTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteMessage([]byte("VERSION=MYPROXYv2\nCOMMAND=0\nUSERNAME=alice\nPASSPHRASE=abc\ndef ghi\n")); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.ReadMessage()
	if err != nil {
		t.Fatalf("no error response: %v", err)
	}
	if !strings.Contains(string(reply), "malformed line 5") {
		t.Errorf("response does not name the line: %q", reply)
	}
	if strings.Contains(string(reply), "def ghi") {
		t.Errorf("response echoes the pass phrase tail: %q", reply)
	}
	rejected := false
	for _, e := range sink.all() {
		oneLine(t, e)
		rejected = rejected || strings.Contains(e, "rejected: protocol: malformed line 5")
		if strings.Contains(e, "def ghi") {
			t.Errorf("audit log holds the pass phrase tail: %q", e)
		}
	}
	if !rejected {
		t.Errorf("no rejection in the audit log: %q", sink.all())
	}
}

// handedOut is a key source that remembers the keys it supplied.
type handedOut struct {
	mu   sync.Mutex
	keys []crypto.Signer
}

func (h *handedOut) Get(_ context.Context, spec pki.KeySpec) (crypto.Signer, error) {
	k, err := pki.GenerateSigner(spec)
	h.mu.Lock()
	h.keys = append(h.keys, k)
	h.mu.Unlock()
	return k, err
}

// TestPutWipesTheKeyItSealed: the key pair generated for a deposit exists in
// plaintext only until it is sealed (paper §5.1). The test holds the signer
// the repository drew for the PUT; once the PUT is acknowledged its private
// components must be zero, not merely unreferenced.
func TestPutWipesTheKeyItSealed(t *testing.T) {
	source := &handedOut{}
	_, addr := startServer(t, func(cfg *ServerConfig) { cfg.KeySource = source })
	mustPut(t, newClient(t, testpki.User(t, "core-alice"), addr), PutOptions{})

	source.mu.Lock()
	defer source.mu.Unlock()
	if len(source.keys) != 1 {
		t.Fatalf("the PUT drew %d keys, want 1", len(source.keys))
	}
	key := source.keys[0].(*rsa.PrivateKey)
	if key.D.Sign() != 0 || key.Primes[0].Sign() != 0 || key.Primes[1].Sign() != 0 {
		t.Error("the deposited key's private components survive the PUT")
	}
}

package portal

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"testing"
	"time"

	"repro/internal/pki"
	"repro/internal/testpki"
)

// A session whose browser never returns is dropped, its delegated key wiped,
// by the sweeper alone — no request arrives to expire it lazily.
func TestSweeperDropsExpiredSessionWithoutTraffic(t *testing.T) {
	now := time.Now()
	sessions := NewSessions(time.Hour, func() time.Time { return now })
	// A key of its own: the sweep wipes it, and testpki's are shared.
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cred := &pki.Credential{Certificate: testpki.User(t, "portal-alice").Certificate, PrivateKey: key}
	if _, err := sessions.Create("alice", "/CN=alice", cred); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Hour)

	tick, stop, done := make(chan time.Time), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		sessions.sweepEvery(tick, stop)
	}()
	tick <- now
	close(stop)
	<-done
	if n := sessions.Len(); n != 0 {
		t.Errorf("%d session(s) left after the sweep, want 0", n)
	}
	if key.D.Sign() != 0 {
		t.Error("the expired session's private key was not wiped")
	}
}

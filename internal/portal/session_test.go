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

// Len may run while logins create sessions: it reads the table under the
// table's lock (a read without it is a data race under -race) and gives the
// lock back (one it kept would stall every later Create).
func TestSessionsLenUnderConcurrentCreate(t *testing.T) {
	sessions := NewSessions(time.Hour, nil)
	created, counted := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(created)
		for i := 0; i < 50; i++ {
			if _, err := sessions.Create("alice", "/CN=alice", nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer close(counted)
		for i := 0; i < 50; i++ {
			sessions.Len()
		}
	}()
	timeout := time.After(5 * time.Second)
	for _, done := range []chan struct{}{created, counted} {
		select {
		case <-done:
		case <-timeout:
			t.Fatal("Create and Len stalled: Len kept the session table's lock")
		}
	}
	if n := sessions.Len(); n != 50 {
		t.Errorf("Len = %d after 50 Creates, want 50", n)
	}
}

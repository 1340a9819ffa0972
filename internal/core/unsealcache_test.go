package core

import (
	"testing"

	"repro/internal/credstore"
	"repro/internal/testpki"
)

// TestUnsealCacheRoundtrip is the regression test for the lookup-side key
// hoist: unsealKey is now computed outside the mutex in lookup (mirroring
// add), and the two sides must keep deriving the identical key for the
// same (sealed bytes, pass phrase) pair — and different keys the moment
// either input changes — or session streams would re-run the KDF (cache
// misses) or, far worse, serve another user's credential (cross-key hits).
func TestUnsealCacheRoundtrip(t *testing.T) {
	cred := &credstore.Issuer{Credential: testpki.User(t, "unseal-cache-alice")}
	entry := &credstore.Entry{SealedKey: []byte("sealed-key-bytes-1")}
	other := &credstore.Entry{SealedKey: []byte("sealed-key-bytes-2")}
	passphrase := []byte("correct horse battery staple")

	sc := &unsealCache{}
	if got := sc.lookup(entry, passphrase); got != nil {
		t.Fatalf("lookup on empty cache = %v, want nil", got)
	}
	if !sc.add(entry, passphrase, cred) {
		t.Fatal("first add should take ownership")
	}
	if got := sc.lookup(entry, passphrase); got != cred {
		t.Fatalf("lookup after add = %v, want the cached credential", got)
	}
	// Same sealed bytes, different pass phrase: a miss, not a cross hit.
	if got := sc.lookup(entry, []byte("wrong phrase")); got != nil {
		t.Fatalf("lookup with different passphrase = %v, want nil", got)
	}
	// Different sealed bytes (reseal / replacement PUT): also a miss.
	if got := sc.lookup(other, passphrase); got != nil {
		t.Fatalf("lookup with different sealed key = %v, want nil", got)
	}
	// A racing second add for the same key must not take ownership.
	if sc.add(entry, passphrase, &credstore.Issuer{Credential: testpki.User(t, "unseal-cache-bob")}) {
		t.Fatal("second add for the same key should report not-owned")
	}
	if got := sc.lookup(entry, passphrase); got != cred {
		t.Fatal("second add displaced the cached credential")
	}

	// Nil receiver: single-exchange connections have no cache.
	var nilCache *unsealCache
	if nilCache.lookup(entry, passphrase) != nil {
		t.Fatal("nil cache lookup should return nil")
	}
	if nilCache.add(entry, passphrase, cred) {
		t.Fatal("nil cache add should not take ownership")
	}

	sc.wipe()
	if got := sc.lookup(entry, passphrase); got != nil {
		t.Fatal("lookup after wipe should miss")
	}
	if cred.Credential.PrivateKey != nil {
		t.Fatal("wipe should nil out the cached private key")
	}
}

package core

import (
	"testing"

	"repro/internal/credstore"
	"repro/internal/testpki"
)

// TestUnsealCacheRoundtrip: the key Service.Get hashes once serves both
// lookup and add, and it must differ the moment either input changes — or
// session streams would re-run the KDF (cache misses) or, far worse, serve
// another user's credential (cross-key hits).
func TestUnsealCacheRoundtrip(t *testing.T) {
	cred := &credstore.Issuer{Credential: testpki.User(t, "unseal-cache-alice")}
	entry := &credstore.Entry{SealedKey: []byte("sealed-key-bytes-1")}
	other := &credstore.Entry{SealedKey: []byte("sealed-key-bytes-2")}
	passphrase := []byte("correct horse battery staple")
	key := unsealKey(entry, passphrase)

	sc := &unsealCache{}
	if got := sc.lookup(key); got != nil {
		t.Fatalf("lookup on empty cache = %v, want nil", got)
	}
	if !sc.add(key, cred) {
		t.Fatal("first add should take ownership")
	}
	if got := sc.lookup(unsealKey(entry, passphrase)); got != cred {
		t.Fatalf("lookup after add = %v, want the cached credential", got)
	}
	// Same sealed bytes, different pass phrase: a miss, not a cross hit.
	if got := sc.lookup(unsealKey(entry, []byte("wrong phrase"))); got != nil {
		t.Fatalf("lookup with different passphrase = %v, want nil", got)
	}
	// Different sealed bytes (reseal / replacement PUT): also a miss.
	if got := sc.lookup(unsealKey(other, passphrase)); got != nil {
		t.Fatalf("lookup with different sealed key = %v, want nil", got)
	}
	// A racing second add for the same key must not take ownership.
	if sc.add(key, &credstore.Issuer{Credential: testpki.User(t, "unseal-cache-bob")}) {
		t.Fatal("second add for the same key should report not-owned")
	}
	if got := sc.lookup(key); got != cred {
		t.Fatal("second add displaced the cached credential")
	}

	// Nil receiver: single-exchange connections have no cache.
	var nilCache *unsealCache
	if nilCache.lookup(key) != nil {
		t.Fatal("nil cache lookup should return nil")
	}
	if nilCache.add(key, cred) {
		t.Fatal("nil cache add should not take ownership")
	}

	sc.wipe()
	if got := sc.lookup(key); got != nil {
		t.Fatal("lookup after wipe should miss")
	}
	if cred.Credential.PrivateKey != nil {
		t.Fatal("wipe should nil out the cached private key")
	}
}

// TestUnsealKeyDoesNotAllocate pins the cache key's hash at zero
// allocations: the pass phrase is hashed where it lies, never copied into a
// string or a joined buffer that no wipe reaches.
func TestUnsealKeyDoesNotAllocate(t *testing.T) {
	entry := &credstore.Entry{SealedKey: []byte("sealed-key-bytes")}
	passphrase := []byte("correct horse battery staple")
	if allocs := testing.AllocsPerRun(100, func() { unsealKey(entry, passphrase) }); allocs != 0 {
		t.Errorf("unsealKey allocates %v times, want 0", allocs)
	}
}

package proxy

import (
	"crypto/x509"
	"strings"
	"testing"
	"time"

	"repro/internal/pki"
	"repro/internal/testpki"
)

func cachedChain(t *testing.T) (*pki.Credential, *x509.CertPool) {
	t.Helper()
	user := testpki.User(t, "cache-alice")
	p, err := New(user, Options{Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return p, rootPool(t)
}

func TestVerifyCacheHit(t *testing.T) {
	cred, roots := cachedChain(t)
	vc := NewVerifyCache(0)
	opts := VerifyOptions{Roots: roots}

	first, err := vc.Verify(cred.CertChain(), opts)
	if err != nil {
		t.Fatalf("first Verify: %v", err)
	}
	second, err := vc.Verify(cred.CertChain(), opts)
	if err != nil {
		t.Fatalf("second Verify: %v", err)
	}
	if vc.Hits() != 1 || vc.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", vc.Hits(), vc.Misses())
	}
	if first.IdentityString() != second.IdentityString() || first.Depth != second.Depth {
		t.Fatalf("cached result differs: %+v vs %+v", first, second)
	}
	if second == first {
		t.Fatal("cache returned the same *Result; callers must get a copy")
	}
}

func TestVerifyCacheDifferentRootsMiss(t *testing.T) {
	cred, roots := cachedChain(t)
	vc := NewVerifyCache(0)
	if _, err := vc.Verify(cred.CertChain(), VerifyOptions{Roots: roots}); err != nil {
		t.Fatalf("seed Verify: %v", err)
	}

	// Same chain under a pool missing the CA: must not serve the cached
	// verdict from the other trust domain.
	empty := x509.NewCertPool()
	if _, err := vc.Verify(cred.CertChain(), VerifyOptions{Roots: empty}); err == nil {
		t.Fatal("Verify under unrelated roots succeeded via cache")
	}
}

func TestVerifyCacheFailureNotCached(t *testing.T) {
	cred, _ := cachedChain(t)
	vc := NewVerifyCache(0)
	empty := x509.NewCertPool()
	if _, err := vc.Verify(cred.CertChain(), VerifyOptions{Roots: empty}); err == nil {
		t.Fatal("Verify with empty roots succeeded")
	}
	if vc.Len() != 0 {
		t.Fatalf("failed verification was cached (len=%d)", vc.Len())
	}
}

// TestVerifyCacheCRLReloadEvictsVerdict is the revocation-semantics
// acceptance test: a chain verified and cached before a CRL reload must be
// rejected on the first verification after the reload, through both
// defenses — the per-hit revocation re-check and the explicit Invalidate a
// reload performs.
func TestVerifyCacheCRLReloadEvictsVerdict(t *testing.T) {
	cred, roots := cachedChain(t)
	vc := NewVerifyCache(0)

	// Swappable revocation state, as a CRL file reload would produce.
	revoked := map[string]bool{}
	isRevoked := func(c *x509.Certificate) bool { return revoked[c.SerialNumber.String()] }
	opts := VerifyOptions{Roots: roots, IsRevoked: isRevoked}

	if _, err := vc.Verify(cred.CertChain(), opts); err != nil {
		t.Fatalf("pre-reload Verify: %v", err)
	}
	if _, err := vc.Verify(cred.CertChain(), opts); err != nil {
		t.Fatalf("cached Verify: %v", err)
	}
	if vc.Hits() != 1 {
		t.Fatalf("hits=%d, want 1 (verdict not served from cache)", vc.Hits())
	}

	// "CRL reload": the proxy's EEC is now revoked; the cache is told.
	revoked[cred.Certificate.SerialNumber.String()] = true
	vc.Invalidate()
	if vc.Len() != 0 {
		t.Fatalf("Invalidate left %d entries", vc.Len())
	}

	_, err := vc.Verify(cred.CertChain(), opts)
	if err == nil || !strings.Contains(err.Error(), "revoked") {
		t.Fatalf("post-reload Verify = %v, want revocation error", err)
	}
	if vc.Len() != 0 {
		t.Fatal("revoked chain was cached")
	}
}

// TestVerifyCacheHitPathRechecksRevocation covers the first defense alone:
// even if nothing calls Invalidate, a cached verdict must not outlive a
// revocation visible to the hook.
func TestVerifyCacheHitPathRechecksRevocation(t *testing.T) {
	cred, roots := cachedChain(t)
	vc := NewVerifyCache(0)
	revoked := map[string]bool{}
	opts := VerifyOptions{
		Roots:     roots,
		IsRevoked: func(c *x509.Certificate) bool { return revoked[c.SerialNumber.String()] },
	}

	if _, err := vc.Verify(cred.CertChain(), opts); err != nil {
		t.Fatalf("seed Verify: %v", err)
	}
	revoked[cred.Certificate.SerialNumber.String()] = true // no Invalidate

	_, err := vc.Verify(cred.CertChain(), opts)
	if err == nil || !strings.Contains(err.Error(), "revoked") {
		t.Fatalf("hit-path Verify = %v, want revocation error", err)
	}
	if vc.Len() != 0 {
		t.Fatal("revoked entry not dropped from cache")
	}
}

func TestVerifyCacheExpiryHonorsChainValidity(t *testing.T) {
	cred, roots := cachedChain(t)
	vc := NewVerifyCache(0)
	opts := VerifyOptions{Roots: roots}
	if _, err := vc.Verify(cred.CertChain(), opts); err != nil {
		t.Fatalf("seed Verify: %v", err)
	}

	// A lookup dated past the proxy's NotAfter must not hit; it falls
	// through to plain Verify, which rejects the expired chain.
	late := opts
	late.CurrentTime = cred.Certificate.NotAfter.Add(time.Minute)
	if _, err := vc.Verify(cred.CertChain(), late); err == nil {
		t.Fatal("expired chain verified via cache")
	}
	if vc.Hits() != 0 {
		t.Fatalf("hits=%d, want 0 (expired entry served)", vc.Hits())
	}
}

func TestVerifyCacheEvictionBound(t *testing.T) {
	user := testpki.User(t, "cache-evict")
	roots := rootPool(t)
	vc := NewVerifyCache(2)
	for i := 0; i < 4; i++ {
		p, err := New(user, Options{Lifetime: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vc.Verify(p.CertChain(), VerifyOptions{Roots: roots}); err != nil {
			t.Fatalf("Verify #%d: %v", i, err)
		}
	}
	if vc.Len() > 2 {
		t.Fatalf("cache grew to %d entries, max 2", vc.Len())
	}
}

func TestVerifyCacheNilDegradesToVerify(t *testing.T) {
	cred, roots := cachedChain(t)
	var vc *VerifyCache
	res, err := vc.Verify(cred.CertChain(), VerifyOptions{Roots: roots})
	if err != nil {
		t.Fatalf("nil cache Verify: %v", err)
	}
	if res.IdentityString() != testpki.User(t, "cache-alice").Subject() {
		t.Fatalf("identity = %q", res.IdentityString())
	}
	if vc.Len() != 0 || vc.Hits() != 0 || vc.Misses() != 0 {
		t.Fatal("nil cache reported state")
	}
	vc.Invalidate() // must not panic
}

// TestVerifyCacheHitAllocs pins the allocation profile of the cached hit
// path — the whole point of the cache is that a repeat portal chain costs a
// map probe, not a signature walk. The hit path allocates exactly once (the
// Result copy handed to the caller); the bound leaves one alloc of slack so
// incidental runtime changes don't flake, while a rebuilt fingerprint or a
// per-hit buffer still fails.
func TestVerifyCacheHitAllocs(t *testing.T) {
	cred, roots := cachedChain(t)
	vc := NewVerifyCache(0)
	// A fixed CurrentTime keeps time.Now out of the measured loop.
	opts := VerifyOptions{Roots: roots, CurrentTime: time.Now()}
	chain := cred.CertChain()
	if _, err := vc.Verify(chain, opts); err != nil {
		t.Fatalf("warm-up Verify: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := vc.Verify(chain, opts); err != nil {
			t.Fatalf("hit Verify: %v", err)
		}
	})
	if allocs > 2 {
		t.Errorf("cached Verify hit allocates %.1f objects/op, want <= 2", allocs)
	}
	if vc.Misses() != 1 {
		t.Errorf("misses = %d, want 1 (every measured call must be a hit)", vc.Misses())
	}
}

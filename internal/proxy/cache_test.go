package proxy

import (
	"bytes"
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

// The trust root bounds a cached verdict like every other certificate of
// the path: once the CA has expired, a chain cached under it is refused, as
// Verify refuses it, and so is a delegation anchored on it.
func TestVerifyCacheWindowIncludesTrustRoot(t *testing.T) {
	ca, err := pki.NewCA(pki.CAConfig{Name: pki.MustParseDN("/CN=Short-lived CA"), Key: testpki.Key(t, 2), Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	user, err := ca.IssueCredentialForKey(pki.MustParseDN("/CN=window-alice"), 24*time.Hour, testpki.Key(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	// The proxies outlive the CA, so only the root's window can refuse them.
	p1, err := New(user, Options{KeyAlgorithm: pki.AlgEd25519, Lifetime: 12 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(p1, Options{KeyAlgorithm: pki.AlgEd25519, Lifetime: 12 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	roots := testpki.PoolOf(ca.Certificate())
	vc := NewVerifyCache(0)
	if _, err := vc.Verify(p1.CertChain(), VerifyOptions{Roots: roots}); err != nil {
		t.Fatal(err)
	}
	if _, err := vc.VerifyDelegated(p2.CertChain(), VerifyOptions{Roots: roots}); err != nil {
		t.Fatal(err)
	}

	late := VerifyOptions{Roots: roots, CurrentTime: time.Now().Add(3 * time.Hour)}
	for name, chain := range map[string][]*x509.Certificate{"chain": p1.CertChain(), "anchor": p2.CertChain()} {
		_, want := Verify(chain, late)
		if want == nil || !strings.Contains(want.Error(), "expired") {
			t.Fatalf("%s: Verify after the CA expired = %v", name, want)
		}
		verify := vc.Verify
		if name == "anchor" {
			verify = vc.VerifyDelegated
		}
		if _, err := verify(chain, late); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: cached verdict after the CA expired = %v, want %v", name, err, want)
		}
	}
	if vc.Hits() != 0 || vc.AnchorHits() != 0 {
		t.Errorf("hits %d, anchor hits %d: an entry outlived its trust root", vc.Hits(), vc.AnchorHits())
	}
}

// ed25519Proxy is a fast RFC 3820 proxy of issuer.
func ed25519Proxy(t *testing.T, issuer *pki.Credential) *pki.Credential {
	t.Helper()
	p, err := New(issuer, Options{KeyAlgorithm: pki.AlgEd25519, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// delegations is an issuer chain (a proxy of a user) and two proxies it
// signed, as two delegations of one credential deliver them.
func delegations(t *testing.T) (issuer, first, second *pki.Credential, roots *x509.CertPool) {
	t.Helper()
	issuer = ed25519Proxy(t, testpki.User(t, "anchor-alice"))
	return issuer, ed25519Proxy(t, issuer), ed25519Proxy(t, issuer), rootPool(t)
}

func certDERs(chain []*x509.Certificate) [][]byte {
	out := make([][]byte, len(chain))
	for i, c := range chain {
		out[i] = c.Raw
	}
	return out
}

func TestVerifyDelegatedChecksOnlyTheNewLeafOnAHit(t *testing.T) {
	_, first, second, roots := delegations(t)
	vc := NewVerifyCache(0)
	opts := VerifyOptions{Roots: roots}
	for i, p := range []*pki.Credential{first, second} {
		want, err := Verify(p.CertChain(), opts)
		if err != nil {
			t.Fatal(err)
		}
		certs, err := vc.ParseDelegated(certDERs(p.CertChain()), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := vc.VerifyDelegated(certs, opts)
		if err != nil {
			t.Fatalf("delegation %d: %v", i, err)
		}
		if !sameOutcome(outcome{res: got}, outcome{res: want}) {
			t.Errorf("delegation %d: %+v, Verify says %+v", i, *got, *want)
		}
	}
	if vc.AnchorMisses() != 1 || vc.AnchorHits() != 1 {
		t.Errorf("anchor misses %d hits %d, want 1 and 1", vc.AnchorMisses(), vc.AnchorHits())
	}
	if vc.Hits() != 0 || vc.Misses() != 0 {
		t.Errorf("whole-chain hits %d misses %d: anchor lookups must not count there", vc.Hits(), vc.Misses())
	}
	// The second delegation's issuers were not parsed again.
	a, _ := vc.ParseDelegated(certDERs(first.CertChain()), opts)
	b, _ := vc.ParseDelegated(certDERs(second.CertChain()), opts)
	if a[1] != b[1] || a[2] != b[2] || a[0] == b[0] {
		t.Error("ParseDelegated does not share the anchor's issuer certificates")
	}
	if &a[1] == &b[1] {
		t.Error("ParseDelegated returned a shared slice")
	}
}

// An anchor is a hit only for the same issuer bytes, under the same roots,
// inside its window and before the cache is invalidated.
func TestVerifyDelegatedAnchorMisses(t *testing.T) {
	issuer, first, second, roots := delegations(t)
	flipped := bytes.Clone(issuer.Certificate.Raw)
	flipped[len(flipped)-1] ^= 0x01 // in the signature, so it still parses
	moreRoots := testpki.PoolOf(testpki.CA(t).Certificate(), testpki.User(t, "anchor-bob").Certificate)
	for _, tc := range []struct {
		name    string
		mutate  func(vc *VerifyCache, ders [][]byte, opts *VerifyOptions)
		refused string
	}{
		{"one byte of an issuer", func(_ *VerifyCache, ders [][]byte, _ *VerifyOptions) { ders[1] = flipped }, "signature"},
		{"other roots", func(_ *VerifyCache, _ [][]byte, opts *VerifyOptions) { opts.Roots = moreRoots }, ""},
		{"tighter depth bound", func(_ *VerifyCache, _ [][]byte, opts *VerifyOptions) { opts.MaxDepth = 1 }, "exceeds maximum"},
		{"invalidated", func(vc *VerifyCache, _ [][]byte, _ *VerifyOptions) { vc.Invalidate() }, ""},
		{"window closed", func(_ *VerifyCache, _ [][]byte, opts *VerifyOptions) {
			opts.CurrentTime = issuer.Certificate.NotAfter.Add(time.Minute)
		}, "expired"},
	} {
		vc := NewVerifyCache(0)
		opts := VerifyOptions{Roots: roots, CurrentTime: time.Now()}
		if _, err := vc.VerifyDelegated(first.CertChain(), opts); err != nil {
			t.Fatal(err)
		}
		ders := certDERs(second.CertChain())
		tc.mutate(vc, ders, &opts)
		certs, err := vc.ParseDelegated(ders, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, err = vc.VerifyDelegated(certs, opts)
		switch {
		case tc.refused == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.refused != "" && (err == nil || !strings.Contains(err.Error(), tc.refused)):
			t.Errorf("%s: %v, want an error mentioning %q", tc.name, err, tc.refused)
		}
		if vc.AnchorHits() != 0 || vc.AnchorMisses() != 2 {
			t.Errorf("%s: anchor hits %d misses %d, want 0 and 2", tc.name, vc.AnchorHits(), vc.AnchorMisses())
		}
	}
}

// A hit re-runs the revocation hook over the issuer chain, and a revoked
// anchor is dropped.
func TestVerifyDelegatedHitRechecksRevocation(t *testing.T) {
	issuer, first, second, roots := delegations(t)
	vc := NewVerifyCache(0)
	revoked := map[string]bool{}
	opts := VerifyOptions{Roots: roots, IsRevoked: func(c *x509.Certificate) bool { return revoked[c.SerialNumber.String()] }}
	if _, err := vc.VerifyDelegated(first.CertChain(), opts); err != nil {
		t.Fatal(err)
	}
	revoked[issuer.Chain[0].SerialNumber.String()] = true // the user's EEC; no Invalidate
	_, err := vc.VerifyDelegated(second.CertChain(), opts)
	if err == nil || !strings.Contains(err.Error(), "revoked") {
		t.Fatalf("hit after the EEC was revoked: %v", err)
	}
	_, want := Verify(second.CertChain(), opts)
	if want == nil || err.Error() != want.Error() {
		t.Errorf("hit error %v, Verify says %v", err, want)
	}
	if vc.Len() != 0 {
		t.Error("revoked anchor not dropped")
	}
}

// Anchors live under the cache's one size bound, are never filed for a
// failed verification, and are never served for a whole chain, or a whole
// chain's verdict for an anchor.
func TestVerifyDelegatedAnchorBookkeeping(t *testing.T) {
	issuer, first, _, roots := delegations(t)
	vc := NewVerifyCache(0)
	if _, err := vc.VerifyDelegated(first.CertChain(), VerifyOptions{Roots: x509.NewCertPool()}); err == nil {
		t.Fatal("delegation under empty roots verified")
	}
	if vc.Len() != 0 {
		t.Fatal("a failed anchor was cached")
	}
	opts := VerifyOptions{Roots: roots}
	if _, err := vc.Verify(issuer.CertChain(), opts); err != nil {
		t.Fatal(err)
	}
	if _, err := vc.VerifyDelegated(first.CertChain(), opts); err != nil {
		t.Fatal(err)
	}
	if vc.Len() != 2 || vc.AnchorMisses() != 2 || vc.Hits() != 0 {
		t.Errorf("len %d anchor misses %d hits %d: an issuer chain's verdict and its anchor must be two entries",
			vc.Len(), vc.AnchorMisses(), vc.Hits())
	}

	small := NewVerifyCache(2)
	for i := 0; i < 3; i++ {
		p := ed25519Proxy(t, issuer)
		if _, err := small.Verify(p.CertChain(), opts); err != nil {
			t.Fatal(err)
		}
		if _, err := small.VerifyDelegated(ed25519Proxy(t, p).CertChain(), opts); err != nil {
			t.Fatal(err)
		}
	}
	if small.Len() > 2 {
		t.Errorf("cache grew to %d entries, max 2", small.Len())
	}
}

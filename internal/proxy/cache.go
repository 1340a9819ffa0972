package proxy

import (
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/pki"
)

// VerifyCache memoizes successful chain verifications. A portal reconnects
// to a repository with the same host-credential chain on every operation,
// and the repository sees the same portal chain thousands of times a day;
// re-walking the RSA signatures each time is pure hot-path waste
// (paper §3.3's many-portals workload). The cache keys on a SHA-256
// fingerprint of the raw DER chain plus the depth bound, so any bit of
// difference in the presented chain is a miss.
//
// It holds two kinds of entry. Verify files a whole chain's verdict.
// VerifyDelegated files an anchor: the verified issuer chain behind a
// delegated proxy, which is byte-identical from one delegation of a
// credential to the next while the proxy itself is new every time, so only
// the proxy is checked on a hit. A domain tag in the key keeps the two
// apart.
//
// Security semantics are unchanged:
//
//   - entries expire at the validity intersection of every certificate the
//     verdict rests on — the presented ones, and the path the standard
//     library built up to and including the trust root — evaluated against
//     the caller's clock;
//   - the revocation hook is re-run on every hit — a chain revoked since
//     it was cached is rejected exactly as an uncached one would be — and
//     Invalidate drops everything on CRL reload as a second line;
//   - the trust roots are compared on every hit; a lookup under different
//     roots is a miss, not a cross-trust leak.
//
// Failed verifications are never cached: a malformed chain costs the
// attacker a full walk every time, and a chain that fails only on clock
// skew can succeed moments later. The cache holds public certificates and
// verdicts only.
type VerifyCache struct {
	mu      sync.Mutex
	entries map[[sha256.Size]byte]*cacheEntry // guarded by mu
	max     int

	hits, misses             atomic.Int64
	anchorHits, anchorMisses atomic.Int64
}

type cacheEntry struct {
	roots *x509.CertPool
	// certs are what the revocation hook re-runs over on a hit: the whole
	// chain, or an anchor's issuer chain.
	certs  []*x509.Certificate
	window window
	// res is a whole chain's verdict; anchor, in an anchor entry, is the
	// issuer chain's state.
	res    Result
	anchor *anchor
}

// DefaultVerifyCacheSize bounds a cache built by NewVerifyCache(0).
const DefaultVerifyCacheSize = 1024

// NewVerifyCache builds a cache holding at most max verified chains and
// anchors together; max <= 0 selects DefaultVerifyCacheSize.
func NewVerifyCache(max int) *VerifyCache {
	if max <= 0 {
		max = DefaultVerifyCacheSize
	}
	return &VerifyCache{entries: make(map[[sha256.Size]byte]*cacheEntry), max: max}
}

// Key domains: a whole chain and an issuer chain are never filed under the
// same key, whatever their bytes.
const (
	chainKey  byte = 'c'
	anchorKey byte = 'a'
)

// fingerprint hashes the key domain, the depth bound (the one option field
// that changes the verdict and is not re-checked on a hit) and the DER
// certificates. Length prefixes keep certificate boundaries unambiguous.
func fingerprint[C any](domain byte, maxDepth int, certs []C, der func(C) []byte) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	buf[0] = domain
	h.Write(buf[:1])
	binary.BigEndian.PutUint64(buf[:], uint64(maxDepth))
	h.Write(buf[:])
	for _, c := range certs {
		b := der(c)
		binary.BigEndian.PutUint64(buf[:], uint64(len(b)))
		h.Write(buf[:])
		h.Write(b)
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

func rawDER(c *x509.Certificate) []byte { return c.Raw }

func sameDER(der []byte) []byte { return der }

// Verify is a caching front end to Verify: identical contract, identical
// errors on the miss path. A nil *VerifyCache degrades to plain Verify.
//
//myproxy:hotpath
func (vc *VerifyCache) Verify(chain []*x509.Certificate, opts VerifyOptions) (*Result, error) {
	if vc == nil || len(chain) == 0 || opts.Roots == nil {
		return Verify(chain, opts)
	}
	opts = opts.resolved()
	key := fingerprint(chainKey, opts.MaxDepth, chain, rawDER)
	e, err := vc.lookup(key, opts)
	if err != nil {
		return nil, err
	}
	if e != nil {
		vc.hits.Add(1)
		res := e.res
		return &res, nil
	}
	vc.misses.Add(1)

	res, w, err := verify(chain, opts)
	if err != nil {
		return nil, err
	}
	vc.store(key, &cacheEntry{roots: opts.Roots, certs: chain, window: w, res: *res})
	return res, nil
}

// VerifyDelegated is Verify for a chain whose leaf is new and whose issuer
// chain repeats: the proxy a delegation just minted, above the credential
// it was signed with. It memoizes the issuer chain chain[1:] as an anchor
// rather than the whole chain's verdict, so a hit checks the leaf alone.
// Hit or miss, the verdict is Verify's: the same two halves run, and the
// anchor's revocation hook re-runs over the issuer chain on every hit. A
// leaf that is not a proxy, a nil *VerifyCache and nil roots all take plain
// Verify. Anchor lookups are counted apart from Hits and Misses.
//
//myproxy:hotpath
func (vc *VerifyCache) VerifyDelegated(chain []*x509.Certificate, opts VerifyOptions) (*Result, error) {
	if vc == nil || len(chain) < 2 || opts.Roots == nil || !IsProxy(chain[0]) {
		return Verify(chain, opts)
	}
	opts = opts.resolved()
	issuers := chain[1:]
	key := fingerprint(anchorKey, opts.MaxDepth, issuers, rawDER)
	e, err := vc.lookup(key, opts)
	if err != nil {
		return nil, err
	}
	var a *anchor
	if e != nil {
		vc.anchorHits.Add(1)
		a = e.anchor
	} else {
		vc.anchorMisses.Add(1)
		if a, err = verifyAnchor(issuers, opts); err != nil {
			return nil, err
		}
		// The entry keeps a slice of its own: ParseDelegated hands these
		// certificates out as the issuers of every later delegation.
		vc.store(key, &cacheEntry{roots: opts.Roots, certs: slices.Clone(issuers), window: a.window, anchor: a})
	}
	res, _, err := a.extend(chain[0], opts)
	return res, err
}

// ParseDelegated parses ders, a DER certificate chain leaf first, as
// pki.ParseCerts does, except that an issuer chain ders[1:] the cache holds
// an anchor for, byte for byte under opts' depth bound, is not parsed
// again: its certificates are the anchor's. Only the leaf is parsed then.
// The chain returned is the caller's own slice either way.
//
//myproxy:hotpath
func (vc *VerifyCache) ParseDelegated(ders [][]byte, opts VerifyOptions) ([]*x509.Certificate, error) {
	if vc == nil || len(ders) < 2 {
		return pki.ParseCerts(ders...)
	}
	key := fingerprint(anchorKey, opts.resolved().MaxDepth, ders[1:], sameDER)
	vc.mu.Lock()
	e := vc.entries[key]
	vc.mu.Unlock()
	if e == nil {
		return pki.ParseCerts(ders...)
	}
	leaf, err := pki.ParseCerts(ders[0])
	if err != nil {
		return nil, err
	}
	return append(leaf, e.certs...), nil
}

// lookup returns the entry filed under key if it holds for opts — the same
// roots, opts' time inside its window — and its certificates pass the
// revocation hook; one that fails the hook is dropped and its error
// returned. A miss is a nil entry and a nil error.
func (vc *VerifyCache) lookup(key [sha256.Size]byte, opts VerifyOptions) (*cacheEntry, error) {
	vc.mu.Lock()
	e := vc.entries[key]
	vc.mu.Unlock()
	if e == nil || !e.roots.Equal(opts.Roots) || !e.window.contains(opts.CurrentTime) {
		return nil, nil
	}
	// Revocation is the one verdict allowed to change while an entry is
	// fresh; re-check it on the cheap map-lookup path every hit.
	if err := checkRevoked(opts.IsRevoked, e.certs...); err != nil {
		vc.drop(key)
		return nil, err
	}
	return e, nil
}

func (vc *VerifyCache) store(key [sha256.Size]byte, e *cacheEntry) {
	vc.mu.Lock()
	if len(vc.entries) >= vc.max {
		// Random-victim eviction: map iteration order is randomized, and
		// the working set (distinct portal chains) is far below max.
		for k := range vc.entries {
			delete(vc.entries, k)
			break
		}
	}
	vc.entries[key] = e
	vc.mu.Unlock()
}

func (vc *VerifyCache) drop(key [sha256.Size]byte) {
	vc.mu.Lock()
	delete(vc.entries, key)
	vc.mu.Unlock()
}

// Invalidate empties the cache, anchors included. Call it whenever
// revocation data is reloaded so no verdict predates the new CRL set.
func (vc *VerifyCache) Invalidate() {
	if vc == nil {
		return
	}
	vc.mu.Lock()
	vc.entries = make(map[[sha256.Size]byte]*cacheEntry)
	vc.mu.Unlock()
}

// Len reports the number of cached verdicts and anchors.
func (vc *VerifyCache) Len() int {
	if vc == nil {
		return 0
	}
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return len(vc.entries)
}

// Hits reports whole-chain cache hits served by Verify (diagnostics,
// tests).
func (vc *VerifyCache) Hits() int64 {
	if vc == nil {
		return 0
	}
	return vc.hits.Load()
}

// Misses reports Verify lookups that fell through to a full verification.
func (vc *VerifyCache) Misses() int64 {
	if vc == nil {
		return 0
	}
	return vc.misses.Load()
}

// AnchorHits reports VerifyDelegated lookups that found the issuer chain's
// anchor and checked the leaf alone.
func (vc *VerifyCache) AnchorHits() int64 {
	if vc == nil {
		return 0
	}
	return vc.anchorHits.Load()
}

// AnchorMisses reports VerifyDelegated lookups that verified the issuer
// chain afresh.
func (vc *VerifyCache) AnchorMisses() int64 {
	if vc == nil {
		return 0
	}
	return vc.anchorMisses.Load()
}

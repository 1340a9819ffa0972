package proxy

import (
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// VerifyCache memoizes successful chain verifications. A portal reconnects
// to a repository with the same host-credential chain on every operation,
// and the repository sees the same portal chain thousands of times a day;
// re-walking the RSA signatures each time is pure hot-path waste
// (paper §3.3's many-portals workload). The cache keys on a SHA-256
// fingerprint of the raw DER chain plus the depth bound, so any bit of
// difference in the presented chain is a miss.
//
// Security semantics are unchanged:
//
//   - entries expire at the chain's validity intersection (earliest
//     NotAfter, latest NotBefore), evaluated against the caller's clock;
//   - the revocation hook is re-run on every hit — a chain revoked since
//     it was cached is rejected exactly as an uncached one would be — and
//     Invalidate drops everything on CRL reload as a second line;
//   - the trust roots are compared on every hit; a lookup under different
//     roots is a miss, not a cross-trust leak.
//
// Failed verifications are never cached: a malformed chain costs the
// attacker a full walk every time, and a chain that fails only on clock
// skew can succeed moments later.
type VerifyCache struct {
	mu      sync.Mutex
	entries map[[sha256.Size]byte]*cacheEntry //myproxy:guardedby mu
	max     int

	hits, misses atomic.Int64
}

type cacheEntry struct {
	roots     *x509.CertPool
	res       Result
	chain     []*x509.Certificate
	notBefore time.Time
	notAfter  time.Time
}

// DefaultVerifyCacheSize bounds a cache built by NewVerifyCache(0).
const DefaultVerifyCacheSize = 1024

// NewVerifyCache builds a cache holding at most max verified chains;
// max <= 0 selects DefaultVerifyCacheSize.
func NewVerifyCache(max int) *VerifyCache {
	if max <= 0 {
		max = DefaultVerifyCacheSize
	}
	return &VerifyCache{entries: make(map[[sha256.Size]byte]*cacheEntry), max: max}
}

// fingerprint hashes the raw DER chain and the option fields that change
// the verdict. Length prefixes keep certificate boundaries unambiguous.
func fingerprint(chain []*x509.Certificate, maxDepth int) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(maxDepth))
	h.Write(buf[:])
	for _, c := range chain {
		binary.BigEndian.PutUint64(buf[:], uint64(len(c.Raw)))
		h.Write(buf[:])
		h.Write(c.Raw)
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// Verify is a caching front end to Verify: identical contract, identical
// errors on the miss path. A nil *VerifyCache degrades to plain Verify.
//
//myproxy:hotpath
func (vc *VerifyCache) Verify(chain []*x509.Certificate, opts VerifyOptions) (*Result, error) {
	if vc == nil || len(chain) == 0 || opts.Roots == nil {
		return Verify(chain, opts)
	}
	now := opts.CurrentTime
	if now.IsZero() {
		now = time.Now()
	}
	maxDepth := opts.MaxDepth
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	key := fingerprint(chain, maxDepth)

	vc.mu.Lock()
	e, ok := vc.entries[key]
	vc.mu.Unlock()
	if ok && e.roots.Equal(opts.Roots) && !now.Before(e.notBefore) && !now.After(e.notAfter) {
		// Revocation is the one verdict allowed to change while an entry
		// is fresh; re-check it on the cheap map-lookup path every hit.
		if opts.IsRevoked != nil {
			for _, c := range e.chain {
				if opts.IsRevoked(c) {
					vc.drop(key)
					return nil, fmt.Errorf("proxy: certificate %q is revoked", c.SerialNumber)
				}
			}
		}
		vc.hits.Add(1)
		res := e.res
		return &res, nil
	}
	vc.misses.Add(1)

	res, err := Verify(chain, opts)
	if err != nil {
		return nil, err
	}
	entry := &cacheEntry{roots: opts.Roots, res: *res, chain: chain}
	for i, c := range chain {
		if i == 0 || c.NotBefore.After(entry.notBefore) {
			entry.notBefore = c.NotBefore
		}
		if i == 0 || c.NotAfter.Before(entry.notAfter) {
			entry.notAfter = c.NotAfter
		}
	}
	vc.mu.Lock()
	if len(vc.entries) >= vc.max {
		// Random-victim eviction: map iteration order is randomized, and
		// the working set (distinct portal chains) is far below max.
		for k := range vc.entries {
			delete(vc.entries, k)
			break
		}
	}
	vc.entries[key] = entry
	vc.mu.Unlock()
	return res, nil
}

func (vc *VerifyCache) drop(key [sha256.Size]byte) {
	vc.mu.Lock()
	delete(vc.entries, key)
	vc.mu.Unlock()
}

// Invalidate empties the cache. Call it whenever revocation data is
// reloaded so no verdict predates the new CRL set.
func (vc *VerifyCache) Invalidate() {
	if vc == nil {
		return
	}
	vc.mu.Lock()
	vc.entries = make(map[[sha256.Size]byte]*cacheEntry)
	vc.mu.Unlock()
}

// Len reports the number of cached verdicts.
func (vc *VerifyCache) Len() int {
	if vc == nil {
		return 0
	}
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return len(vc.entries)
}

// Hits reports cache hits served (diagnostics, tests).
func (vc *VerifyCache) Hits() int64 {
	if vc == nil {
		return 0
	}
	return vc.hits.Load()
}

// Misses reports lookups that fell through to a full verification.
func (vc *VerifyCache) Misses() int64 {
	if vc == nil {
		return 0
	}
	return vc.misses.Load()
}

// Package keypool pre-generates key pairs off the request path.
//
// Every delegation in the paper's flows (Fig. 1 init, Fig. 2
// get-delegation, Fig. 3 portal login) needs a fresh key pair for the
// delegated proxy, and rsa.GenerateKey dominates the hot-path cost at
// portal scale. A Pool moves that work to background workers that keep a
// bounded channel of ready keys; the hot path does a channel receive
// instead of a modular-arithmetic search. When the pool is drained, or the
// caller asks for a key spec the pool does not stock, Get falls back to
// synchronous generation, so a Pool is an accelerator, never a
// correctness dependency — a nil *Pool is valid and always falls back.
//
// The pool is keyed by pki.KeySpec: one pool stocks one algorithm (and,
// for RSA, one modulus size). For the elliptic algorithms generation is
// microseconds, so a pool buys little — but the fallback keeps a
// mixed-algorithm deployment correct either way: a pool warmed with
// RSA-2048 serves an Ed25519 request by generating synchronously.
//
// Refill uses hysteresis: workers sleep while stock is above a low-water
// mark (half the pool) and batch-refill to full when it drops below. That
// keeps workers off the CPU during request bursts — important on small
// hosts, where a worker generating after every single Get would steal
// exactly the cycles the pool is meant to save — and concentrates
// generation in the idle gaps between bursts.
package keypool

import (
	"context"
	"crypto"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/pki"
)

// ErrClosed is returned by Get when the pool was closed while the call was
// in flight. Callers that outlive their pool should treat it like a
// cancellation.
var ErrClosed = errors.New("keypool: pool is closed")

// Pool is a bounded background key-pair generator for one pki.KeySpec. It
// is safe for concurrent use; the zero of *Pool (nil) is a valid
// always-fallback pool.
type Pool struct {
	spec pki.KeySpec
	keys chan crypto.Signer
	done chan struct{}
	// low is the refill threshold; wake carries the (coalesced) signal
	// that stock dropped to or below it.
	low  int
	wake chan struct{}

	closeOnce sync.Once
	workers   sync.WaitGroup

	// generate is pki.GenerateSigner, injectable for tests that need a
	// slow or counting generator.
	generate func(spec pki.KeySpec) (crypto.Signer, error)

	hits, misses, generated atomic.Int64
}

// DefaultSize is the pooled-key target used when New is given size <= 0.
const DefaultSize = 32

// New starts a pool that keeps up to size keys of the given spec warm,
// filled by workers background goroutines. The zero spec selects RSA at
// pki.DefaultKeyBits; size <= 0 selects DefaultSize; workers <= 0 selects
// 2. The pool generates keys until Close.
func New(size, workers int, spec pki.KeySpec) *Pool {
	spec = spec.Normalize()
	if size <= 0 {
		size = DefaultSize
	}
	if workers <= 0 {
		workers = 2
	}
	p := &Pool{
		spec:     spec,
		keys:     make(chan crypto.Signer, size),
		done:     make(chan struct{}),
		low:      size / 2,
		wake:     make(chan struct{}, 1),
		generate: pki.GenerateSigner,
	}
	p.wake <- struct{}{} // initial fill
	for i := 0; i < workers; i++ {
		p.workers.Add(1)
		go p.fill()
	}
	return p
}

// fill is one background worker: sleep until woken by low stock, then
// batch-refill the buffer to full. Checking fullness before generating —
// not parking on a full channel send — is what makes the hysteresis real:
// a worker blocked on send would top the pool back up after every single
// Get, generating concurrently with the request burst it is supposed to
// be absorbing.
func (p *Pool) fill() {
	defer p.workers.Done()
	for {
		select {
		case <-p.done:
			return
		case <-p.wake:
		}
		for len(p.keys) < cap(p.keys) {
			select {
			case <-p.done:
				return
			default:
			}
			key, err := p.generate(p.spec)
			if err != nil {
				// Generation only fails on entropy exhaustion or a bogus
				// spec; parking the worker is safer than spinning.
				return
			}
			p.generated.Add(1)
			select {
			case p.keys <- key:
			case <-p.done:
				return
			}
		}
	}
}

// Spec reports the key spec the pool stocks.
func (p *Pool) Spec() pki.KeySpec {
	if p == nil {
		return pki.KeySpec{}.Normalize()
	}
	return p.spec
}

// Bits reports the RSA key size the pool stocks (0 for non-RSA pools).
func (p *Pool) Bits() int {
	return p.Spec().Bits
}

// Get returns a key of the requested spec (the zero spec selects RSA at
// pki.DefaultKeyBits). A pooled key is served only when the normalized
// spec matches the pool's exactly; otherwise — different algorithm or
// size, drained buffer, nil or closed pool — Get generates synchronously,
// honoring ctx (and Close) during the fallback.
func (p *Pool) Get(ctx context.Context, spec pki.KeySpec) (crypto.Signer, error) {
	spec = spec.Normalize()
	if p != nil && spec == p.spec {
		select {
		case key := <-p.keys:
			p.hits.Add(1)
			if len(p.keys) <= p.low {
				p.signalRefill()
			}
			return key, nil
		default:
		}
		p.misses.Add(1)
		p.signalRefill()
	}
	return p.generateSync(ctx, spec)
}

// signalRefill wakes a sleeping worker; the 1-slot buffer coalesces
// signals so a burst of Gets costs one token.
func (p *Pool) signalRefill() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// generateSync is the fallback path: generation runs in its own goroutine
// so a context cancellation (or pool Close) unblocks the caller
// immediately rather than after the current key search completes.
func (p *Pool) generateSync(ctx context.Context, spec pki.KeySpec) (crypto.Signer, error) {
	gen := pki.GenerateSigner
	var done chan struct{}
	if p != nil {
		gen = p.generate
		done = p.done
		select {
		case <-done:
			// Already closed before this Get started: the pool is just
			// bypassed, not an error — plain synchronous fallback.
			done = nil
		default:
		}
	}
	type result struct {
		key crypto.Signer
		err error
	}
	ch := make(chan result, 1)
	go func() {
		key, err := gen(spec)
		ch <- result{key, err}
	}()
	select {
	case r := <-ch:
		return r.key, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-done:
		return nil, ErrClosed
	}
}

// Close stops the workers and unblocks any Get waiting in fallback
// generation (they return ErrClosed). Close is idempotent. Keys still
// warm in the buffer remain servable — they are unused randomness, no
// different from a key generated after Close — and later Gets simply fall
// back to synchronous generation once the buffer drains.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.closeOnce.Do(func() { close(p.done) })
	p.workers.Wait()
}

// Stats is a point-in-time snapshot of pool effectiveness.
type Stats struct {
	// Hits counts Gets served from the warm buffer.
	Hits int64
	// Misses counts Gets that found the buffer drained (requests for a
	// spec the pool does not stock are not counted — the pool never
	// stocked them).
	Misses int64
	// Generated counts keys produced by the background workers.
	Generated int64
	// Ready is the current number of warm keys.
	Ready int
}

// Snapshot reports pool effectiveness counters.
func (p *Pool) Snapshot() Stats {
	if p == nil {
		return Stats{}
	}
	return Stats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Generated: p.generated.Load(),
		Ready:     len(p.keys),
	}
}

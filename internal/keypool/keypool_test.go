package keypool

import (
	"context"
	"crypto"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pki"
)

// testSpec is deliberately below pki.GenerateSigner's RSA floor: tests that
// reach the real generator must use realSpec, and 512-bit tests prove the
// pool respects whatever spec its (injected) generator produces.
var (
	testSpec = pki.KeySpec{Algorithm: pki.AlgRSA, Bits: 512}
	realSpec = pki.KeySpec{Algorithm: pki.AlgRSA, Bits: 1024}
)

// rawGen generates without pki's production minimum, keeping the
// injected-generator tests fast.
func rawGen(spec pki.KeySpec) (crypto.Signer, error) {
	spec = spec.Normalize()
	if spec.Algorithm != pki.AlgRSA {
		return pki.GenerateSigner(spec)
	}
	return rsa.GenerateKey(rand.Reader, spec.Bits)
}

// newTestPool builds a pool whose generator is instrumented, without
// starting background workers (workers would race the counters the tests
// assert on). Keys are seeded directly into the buffer where needed.
func newTestPool(t *testing.T, size int, gen func(spec pki.KeySpec) (crypto.Signer, error)) *Pool {
	t.Helper()
	p := &Pool{
		spec:     testSpec.Normalize(),
		keys:     make(chan crypto.Signer, size),
		done:     make(chan struct{}),
		low:      size / 2,
		wake:     make(chan struct{}, 1),
		generate: gen,
	}
	t.Cleanup(p.Close)
	return p
}

func mustKey(t *testing.T, spec pki.KeySpec) crypto.Signer {
	t.Helper()
	key, err := rawGen(spec)
	if err != nil {
		t.Fatalf("generate %v: %v", spec, err)
	}
	return key
}

// rsaBits reports the modulus size of an RSA signer (0 for non-RSA).
func rsaBits(key crypto.Signer) int {
	spec, ok := pki.SpecOf(key)
	if !ok || spec.Algorithm != pki.AlgRSA {
		return 0
	}
	return spec.Bits
}

func TestGetServesPooledKey(t *testing.T) {
	p := newTestPool(t, 1, func(spec pki.KeySpec) (crypto.Signer, error) {
		t.Fatal("fallback generator called with a warm pool")
		return nil, nil
	})
	want := mustKey(t, testSpec)
	p.keys <- want

	got, err := p.Get(context.Background(), testSpec)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got != want {
		t.Fatal("Get did not serve the pooled key")
	}
	if s := p.Snapshot(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 hit, 0 misses", s)
	}
}

func TestDrainedPoolFallsBackSynchronously(t *testing.T) {
	var calls int
	p := newTestPool(t, 1, func(spec pki.KeySpec) (crypto.Signer, error) {
		calls++
		return rawGen(spec)
	})

	key, err := p.Get(context.Background(), testSpec)
	if err != nil {
		t.Fatalf("Get on drained pool: %v", err)
	}
	if key == nil || rsaBits(key) != testSpec.Bits {
		t.Fatalf("fallback key has %d bits, want %d", rsaBits(key), testSpec.Bits)
	}
	if calls != 1 {
		t.Fatalf("fallback generator called %d times, want 1", calls)
	}
	if s := p.Snapshot(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 0 hits, 1 miss", s)
	}
}

func TestBitSizeMismatchNeverServesWrongSizeKey(t *testing.T) {
	p := newTestPool(t, 1, rawGen)
	p.keys <- mustKey(t, testSpec)

	otherSpec := pki.KeySpec{Algorithm: pki.AlgRSA, Bits: 768}
	key, err := p.Get(context.Background(), otherSpec)
	if err != nil {
		t.Fatalf("Get(%v): %v", otherSpec, err)
	}
	if rsaBits(key) != otherSpec.Bits {
		t.Fatalf("got %d-bit key for a %d-bit request", rsaBits(key), otherSpec.Bits)
	}
	// The pooled key must still be there: a mismatch bypasses the buffer
	// entirely rather than discarding stock.
	if s := p.Snapshot(); s.Ready != 1 {
		t.Fatalf("pool stock = %d after mismatched Get, want 1", s.Ready)
	}
	// And a mismatch is not a miss — the pool never stocked that size.
	if s := p.Snapshot(); s.Misses != 0 {
		t.Fatalf("misses = %d after mismatched Get, want 0", s.Misses)
	}
}

// TestAlgorithmMismatchFallsBackSynchronously is the mixed-algorithm
// deployment case: a pool warmed with RSA keys serves an Ed25519 request by
// generating synchronously, without touching (or miscounting against) the
// RSA stock.
func TestAlgorithmMismatchFallsBackSynchronously(t *testing.T) {
	var calls int
	var askedFor []pki.KeySpec
	p := newTestPool(t, 1, func(spec pki.KeySpec) (crypto.Signer, error) {
		calls++
		askedFor = append(askedFor, spec)
		return rawGen(spec)
	})
	p.keys <- mustKey(t, testSpec)

	edSpec := pki.KeySpec{Algorithm: pki.AlgEd25519}
	key, err := p.Get(context.Background(), edSpec)
	if err != nil {
		t.Fatalf("Get(%v): %v", edSpec, err)
	}
	if _, ok := key.(ed25519.PrivateKey); !ok {
		t.Fatalf("got %T for an ed25519 request", key)
	}
	if calls != 1 || askedFor[0] != edSpec.Normalize() {
		t.Fatalf("generator calls = %d %v, want one ed25519 call", calls, askedFor)
	}
	// Stock intact, and a foreign-algorithm request is not a miss.
	if s := p.Snapshot(); s.Ready != 1 || s.Misses != 0 || s.Hits != 0 {
		t.Fatalf("stats = %+v after foreign-algorithm Get, want untouched", s)
	}

	// The pooled RSA key is still served to the next matching request.
	got, err := p.Get(context.Background(), testSpec)
	if err != nil {
		t.Fatalf("Get(%v): %v", testSpec, err)
	}
	if rsaBits(got) != testSpec.Bits {
		t.Fatalf("pooled key has %d bits, want %d", rsaBits(got), testSpec.Bits)
	}
	if s := p.Snapshot(); s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 hit", s)
	}
}

// TestNonRSAPoolServesItsAlgorithm proves the pool itself is
// algorithm-agnostic: one stocked with Ed25519 keys serves them as hits.
func TestNonRSAPoolServesItsAlgorithm(t *testing.T) {
	p := New(2, 1, pki.KeySpec{Algorithm: pki.AlgEd25519})
	defer p.Close()

	deadline := time.After(30 * time.Second)
	for p.Snapshot().Ready < 2 {
		select {
		case <-deadline:
			t.Fatalf("pool never filled: %+v", p.Snapshot())
		case <-time.After(5 * time.Millisecond):
		}
	}
	key, err := p.Get(context.Background(), pki.KeySpec{Algorithm: pki.AlgEd25519})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if _, ok := key.(ed25519.PrivateKey); !ok {
		t.Fatalf("got %T from an ed25519 pool", key)
	}
	if s := p.Snapshot(); s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 hit", s)
	}
}

func TestCloseUnblocksWaitingGets(t *testing.T) {
	block := make(chan struct{})
	p := newTestPool(t, 1, func(spec pki.KeySpec) (crypto.Signer, error) {
		<-block // a fallback generation that never finishes on its own
		return rawGen(spec)
	})
	defer close(block)

	errs := make(chan error, 3)
	var started sync.WaitGroup
	for i := 0; i < 3; i++ {
		started.Add(1)
		go func() {
			started.Done()
			_, err := p.Get(context.Background(), testSpec)
			errs <- err
		}()
	}
	started.Wait()
	time.Sleep(10 * time.Millisecond) // let the Gets park in fallback select
	p.Close()

	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("Get after Close = %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Get did not unblock after Close")
		}
	}
}

func TestGetAfterCloseFallsBackSynchronously(t *testing.T) {
	p := newTestPool(t, 1, rawGen)
	p.Close()

	// A Get issued after Close must not error: the pool is bypassed and the
	// caller still gets a key (the pool is an accelerator, not a
	// correctness dependency).
	key, err := p.Get(context.Background(), testSpec)
	if err != nil {
		t.Fatalf("Get after Close: %v", err)
	}
	if rsaBits(key) != testSpec.Bits {
		t.Fatalf("got %d-bit key, want %d", rsaBits(key), testSpec.Bits)
	}
}

func TestContextCancellationDuringFallback(t *testing.T) {
	block := make(chan struct{})
	p := newTestPool(t, 1, func(spec pki.KeySpec) (crypto.Signer, error) {
		<-block
		return rawGen(spec)
	})
	defer close(block)

	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 1)
	go func() {
		_, err := p.Get(ctx, testSpec)
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()

	select {
	case err := <-errs:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Get under cancelled ctx = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get did not unblock on context cancellation")
	}
}

// A Get its context gave up on must not strand its fallback generator: the
// key finished after the caller left has a slot to land in, and the
// generator's goroutine exits.
func TestCancelledFallbackGeneratorExits(t *testing.T) {
	release := make(chan struct{})
	p := newTestPool(t, 1, func(spec pki.KeySpec) (crypto.Signer, error) {
		<-release
		return rawGen(spec)
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Get(ctx, testSpec); !errors.Is(err, context.Canceled) {
		t.Fatalf("Get under a cancelled ctx = %v, want context.Canceled", err)
	}
	close(release)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	timeout := time.After(5 * time.Second)
	buf := make([]byte, 1<<20)
	for strings.Contains(string(buf[:runtime.Stack(buf, true)]), "generateSync.func") {
		select {
		case <-tick.C:
		case <-timeout:
			t.Fatal("the fallback generator is still blocked after its caller left")
		}
	}
}

func TestNilPoolAlwaysFallsBack(t *testing.T) {
	var p *Pool
	key, err := p.Get(context.Background(), realSpec)
	if err != nil {
		t.Fatalf("nil pool Get: %v", err)
	}
	if rsaBits(key) != realSpec.Bits {
		t.Fatalf("got %d-bit key, want %d", rsaBits(key), realSpec.Bits)
	}
	if p.Spec() != (pki.KeySpec{}).Normalize() {
		t.Fatalf("nil pool Spec = %v, want normalized zero", p.Spec())
	}
	if s := p.Snapshot(); s != (Stats{}) {
		t.Fatalf("nil pool stats = %+v, want zero", s)
	}
	p.Close() // must not panic
}

func TestBackgroundWorkersWarmThePool(t *testing.T) {
	p := New(4, 2, realSpec)
	defer p.Close()

	deadline := time.After(30 * time.Second)
	for p.Snapshot().Ready < 4 {
		select {
		case <-deadline:
			t.Fatalf("pool never filled: %+v", p.Snapshot())
		case <-time.After(10 * time.Millisecond):
		}
	}
	key, err := p.Get(context.Background(), realSpec)
	if err != nil {
		t.Fatalf("Get from warm pool: %v", err)
	}
	if rsaBits(key) != realSpec.Bits {
		t.Fatalf("got %d-bit key, want %d", rsaBits(key), realSpec.Bits)
	}
	if s := p.Snapshot(); s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 hit", s)
	}
}

// TestRefillHysteresis proves workers stay asleep while stock is above the
// low-water mark and batch-refill once it drops to it — the property that
// keeps background generation off the CPU during a request burst.
func TestRefillHysteresis(t *testing.T) {
	p := newTestPool(t, 4, rawGen) // low water = 2
	p.workers.Add(1)
	go p.fill()
	p.wake <- struct{}{} // initial fill

	waitFor := func(cond func(Stats) bool, what string) {
		t.Helper()
		deadline := time.After(30 * time.Second)
		for !cond(p.Snapshot()) {
			select {
			case <-deadline:
				t.Fatalf("%s: %+v", what, p.Snapshot())
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	waitFor(func(s Stats) bool { return s.Ready == 4 }, "initial fill never completed")

	// One Get leaves stock at 3 — above low water: no refill may happen.
	if _, err := p.Get(context.Background(), testSpec); err != nil {
		t.Fatalf("Get: %v", err)
	}
	time.Sleep(100 * time.Millisecond)
	if s := p.Snapshot(); s.Generated != 4 || s.Ready != 3 {
		t.Fatalf("worker refilled above low water: %+v", s)
	}

	// A second Get drops stock to low water: the worker must top it back
	// up to full.
	if _, err := p.Get(context.Background(), testSpec); err != nil {
		t.Fatalf("Get: %v", err)
	}
	waitFor(func(s Stats) bool { return s.Ready == 4 }, "worker never refilled at low water")
}

func TestCloseIsIdempotent(t *testing.T) {
	p := New(1, 1, realSpec)
	p.Close()
	p.Close()
}

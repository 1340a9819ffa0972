package pki

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/rsa"
	"math/big"
	"slices"
	"sync"
	"sync/atomic"
)

// Best-effort scrubbing of key material. Go's runtime may have copied a
// buffer during GC or stack growth, so zeroing is not a guarantee — but the
// paper's threat model (§2.1, §5.1: the repository holds keys encrypted and
// exposes plaintext only transiently) makes "don't leave plaintext sitting
// in dead heap objects" the cheap, worthwhile half of the discipline.
//
// Each transient secret buffer is handed to Transient where it is made: a
// stretched key, an opened plaintext, the repository's copy of a request's
// pass phrase. A buffer kept by design (the verifier an entry stores) is
// not. A test installs a Ledger and checks, once an operation is over,
// that every buffer it recorded was wiped.

// A Ledger records the transient secret buffers made while it is installed.
type Ledger struct {
	mu   sync.Mutex
	bufs [][]byte
}

var ledger atomic.Pointer[Ledger]

// SetLedger installs l, or removes the ledger when l is nil. It is a test
// hook: production installs none, and Transient is then one nil check.
func SetLedger(l *Ledger) { ledger.Store(l) }

// Transient records b in the installed ledger, if any, and returns b.
func Transient(b []byte) []byte {
	if l := ledger.Load(); l != nil {
		l.record(b)
	}
	return b
}

func (l *Ledger) record(b []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bufs = append(l.bufs, b)
}

// Drain forgets the buffers recorded so far and reports how many there
// were and how many of them still hold a nonzero byte.
func (l *Ledger) Drain() (recorded, unwiped int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, b := range l.bufs {
		if slices.ContainsFunc(b, func(c byte) bool { return c != 0 }) {
			unwiped++
		}
	}
	recorded = len(l.bufs)
	l.bufs = nil
	return recorded, unwiped
}

// WipeBytes zeroes b in place. Call it as soon as a decrypted key, derived
// KDF output, or plaintext credential encoding has served its purpose.
func WipeBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// WipeKey zeroes the private components of an RSA key in place: the private
// exponent, the primes, and the CRT precomputation. The key is unusable
// afterwards. Wiping reaches into the big.Int backing arrays — dropping the
// last reference alone would leave the words intact on the heap until the
// allocator reuses them.
func WipeKey(k *rsa.PrivateKey) {
	if k == nil {
		return
	}
	wipeBig(k.D)
	for _, p := range k.Primes {
		wipeBig(p)
	}
	wipeBig(k.Precomputed.Dp)
	wipeBig(k.Precomputed.Dq)
	wipeBig(k.Precomputed.Qinv)
	for _, crt := range k.Precomputed.CRTValues {
		wipeBig(crt.Exp)
		wipeBig(crt.Coeff)
		wipeBig(crt.R)
	}
}

// WipeSigner zeroes the private components of any supported key type in
// place: the RSA CRT material (WipeKey), an ECDSA scalar, or the Ed25519
// seed-and-key bytes. Unsupported types are left untouched — there is
// nothing safe to reach into.
func WipeSigner(k crypto.Signer) {
	switch key := k.(type) {
	case *rsa.PrivateKey:
		WipeKey(key)
	case *ecdsa.PrivateKey:
		wipeBig(key.D)
	case ed25519.PrivateKey:
		// The slice holds seed || public key; the first half is the secret.
		WipeBytes(key)
	}
}

func wipeBig(i *big.Int) {
	if i == nil {
		return
	}
	bits := i.Bits()
	for j := range bits {
		bits[j] = 0
	}
	i.SetInt64(0)
}

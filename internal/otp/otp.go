// Package otp implements RFC 2289 one-time passwords (S/Key style), the
// mechanism the paper proposes for replacing the repository's persistent
// pass phrase to defeat replay attacks (paper §5.1, §6.3, reference [12]).
//
// A user is initialized with a secret pass phrase, a seed, and a sequence
// number N. The one-time password for step n is the 64-bit folded hash
// H^n(seed||passphrase). The verifier stores only the value for step n+1:
// applying H to a submitted response must reproduce the stored value, and on
// success the stored value moves down the chain — each response is accepted
// exactly once (a Lamport hash chain).
//
// Responses are exchanged in hexadecimal, an output form RFC 2289 §6
// explicitly permits alongside the six-word encoding.
package otp

import (
	"crypto/md5"
	"crypto/sha1"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Value is one 64-bit chain value: H^n(seed||passphrase). Every Value is
// derived from the user's secret pass phrase, and knowing H^(n-1) forges
// the next login, so a Value must never reach a format string and must be
// compared in constant time (Verify uses subtle.ConstantTimeCompare; the
// root TestSecretsCompareInConstantTime refuses ==, != and bytes.Equal on
// a Value).
type Value [8]byte

// Algorithm selects the hash underlying the chain.
type Algorithm string

const (
	MD5  Algorithm = "otp-md5"
	SHA1 Algorithm = "otp-sha1"
)

// fold compresses a digest to 64 bits per RFC 2289 Appendix A.
func fold(alg Algorithm, digest []byte) (Value, error) {
	var out Value
	switch alg {
	case MD5:
		for i := 0; i < 8; i++ {
			out[i] = digest[i] ^ digest[i+8]
		}
	case SHA1:
		// Treat the 20-byte digest as five little-endian 32-bit words,
		// XOR word 2 into word 0, word 3 into word 1, word 4 into word 0,
		// and emit the two result words big-endian (the byte-order quirk
		// of the OPIE reference implementation, which the RFC 2289
		// Appendix C vectors encode).
		var w [5]uint32
		for i := range w {
			w[i] = uint32(digest[4*i]) | uint32(digest[4*i+1])<<8 |
				uint32(digest[4*i+2])<<16 | uint32(digest[4*i+3])<<24
		}
		w[0] ^= w[2]
		w[1] ^= w[3]
		w[0] ^= w[4]
		for i := 0; i < 4; i++ {
			out[i] = byte(w[0] >> (24 - 8*i))
			out[4+i] = byte(w[1] >> (24 - 8*i))
		}
	default:
		return out, fmt.Errorf("otp: unknown algorithm %q", alg)
	}
	return out, nil
}

func step(alg Algorithm, in []byte) (Value, error) {
	switch alg {
	case MD5:
		d := md5.Sum(in)
		return fold(alg, d[:])
	case SHA1:
		d := sha1.Sum(in)
		return fold(alg, d[:])
	default:
		return Value{}, fmt.Errorf("otp: unknown algorithm %q", alg)
	}
}

// Compute returns the one-time password for sequence n:
// fold(H)^n applied to seed||passphrase. The seed is folded to lower case
// per RFC 2289 §6.0 (seeds are case-insensitive).
func Compute(alg Algorithm, passphrase, seed string, n int) (Value, error) {
	if n < 0 {
		return Value{}, errors.New("otp: negative sequence number")
	}
	if err := validSeed(seed); err != nil {
		return Value{}, err
	}
	cur, err := step(alg, []byte(strings.ToLower(seed)+passphrase))
	if err != nil {
		return Value{}, err
	}
	for i := 0; i < n; i++ {
		cur, err = step(alg, cur[:])
		if err != nil {
			return Value{}, err
		}
	}
	return cur, nil
}

// Next applies one hash step: Next(H^n) = H^(n+1). Clients can walk a
// chain incrementally instead of recomputing each value from the secret.
func Next(alg Algorithm, prev Value) (Value, error) {
	return step(alg, prev[:])
}

// ComputeHex returns the response for sequence n in hexadecimal.
func ComputeHex(alg Algorithm, passphrase, seed string, n int) (string, error) {
	v, err := Compute(alg, passphrase, seed, n)
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(v[:]), nil
}

func validSeed(seed string) error {
	if seed == "" || len(seed) > 16 {
		return fmt.Errorf("otp: seed must be 1-16 characters")
	}
	for _, r := range seed {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
			return fmt.Errorf("otp: seed must be alphanumeric")
		}
	}
	return nil
}

// parseResponse accepts hex with optional spaces, upper or lower case.
func parseResponse(s string) (Value, error) {
	var out Value
	clean := strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' {
			return -1
		}
		return r
	}, s)
	b, err := hex.DecodeString(strings.ToLower(clean))
	if err != nil || len(b) != 8 {
		return out, fmt.Errorf("otp: response must be 16 hex digits")
	}
	copy(out[:], b)
	return out, nil
}

// state is one user's verifier state.
type state struct {
	alg  Algorithm
	seq  int // sequence of the *stored* value; the next response is seq-1
	seed string
	last Value
}

// Registry holds per-user OTP verifier state on the repository.
type Registry struct {
	mu    sync.Mutex
	users map[string]*state
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{users: make(map[string]*state)}
}

// ErrExhausted is returned when a chain has been used up and must be
// re-initialized with a fresh seed or pass phrase.
var ErrExhausted = errors.New("otp: sequence exhausted; re-initialize")

// ErrBadResponse is returned when a response does not verify.
var ErrBadResponse = errors.New("otp: incorrect one-time password")

// Register initializes (or re-initializes) a user's chain at sequence n.
// The repository never stores the pass phrase — only H^n.
func (r *Registry) Register(username string, alg Algorithm, passphrase, seed string, n int) error {
	if n < 1 {
		return errors.New("otp: initial sequence must be >= 1")
	}
	v, err := Compute(alg, passphrase, seed, n)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.users[username] = &state{alg: alg, seq: n, seed: seed, last: v}
	return nil
}

// Enabled reports whether the user has OTP state registered.
func (r *Registry) Enabled(username string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.users[username]
	return ok
}

// Remove clears a user's OTP state.
func (r *Registry) Remove(username string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.users, username)
}

// Challenge returns the RFC 2289 challenge string for the user's next
// response, e.g. "otp-md5 94 ke1234", and false if the user has no OTP
// state or the chain is exhausted.
func (r *Registry) Challenge(username string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.users[username]
	if !ok || st.seq <= 1 {
		return "", false
	}
	return fmt.Sprintf("%s %d %s", st.alg, st.seq-1, st.seed), true
}

// Verify checks a response against the user's chain and, on success,
// advances the verifier down the chain so the response cannot be replayed.
func (r *Registry) Verify(username, response string) error {
	resp, err := parseResponse(response)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.users[username]
	if !ok {
		return fmt.Errorf("otp: no OTP state for %q", username)
	}
	if st.seq <= 1 {
		return ErrExhausted
	}
	next, err := step(st.alg, resp[:])
	if err != nil {
		return err
	}
	if subtle.ConstantTimeCompare(next[:], st.last[:]) != 1 {
		return ErrBadResponse
	}
	st.seq--
	st.last = resp
	return nil
}

// ParseChallenge splits a challenge string into its parts.
func ParseChallenge(challenge string) (alg Algorithm, n int, seed string, err error) {
	parts := strings.Fields(challenge)
	if len(parts) != 3 {
		return "", 0, "", fmt.Errorf("otp: malformed challenge %q", challenge)
	}
	alg = Algorithm(parts[0])
	if alg != MD5 && alg != SHA1 {
		return "", 0, "", fmt.Errorf("otp: unknown algorithm %q", parts[0])
	}
	n, err = strconv.Atoi(parts[1])
	if err != nil || n < 0 {
		return "", 0, "", fmt.Errorf("otp: bad sequence in challenge %q", challenge)
	}
	if err := validSeed(parts[2]); err != nil {
		return "", 0, "", err
	}
	return alg, n, parts[2], nil
}

// Respond computes the response to a server challenge with the user's
// secret pass phrase.
func Respond(challenge, passphrase string) (string, error) {
	alg, n, seed, err := ParseChallenge(challenge)
	if err != nil {
		return "", err
	}
	return ComputeHex(alg, passphrase, seed, n)
}

package otp

import (
	"errors"
	"strings"
	"testing"
)

// RFC 2289 Appendix C test vectors (hexadecimal forms).
var rfcVectors = []struct {
	alg        Algorithm
	pass, seed string
	n          int
	want       string // hex, as printed in the RFC (spaces removed below)
}{
	{MD5, "This is a test.", "TeSt", 0, "9E876134D90499DD"},
	{MD5, "This is a test.", "TeSt", 1, "7965E05436F5029F"},
	{MD5, "This is a test.", "TeSt", 99, "50FE1962C4965880"},
	{MD5, "AbCdEfGhIjK", "alpha1", 0, "87066DD9644BF206"},
	{MD5, "AbCdEfGhIjK", "alpha1", 1, "7CD34C1040ADD14B"},
	{MD5, "AbCdEfGhIjK", "alpha1", 99, "5AA37A81F212146C"},
	{MD5, "OTP's are good", "correct", 0, "F205753943DE4CF9"},
	{MD5, "OTP's are good", "correct", 1, "DDCDAC956F234937"},
	{MD5, "OTP's are good", "correct", 99, "B203E28FA525BE47"},
	{SHA1, "This is a test.", "TeSt", 0, "BB9E6AE1979D8FF4"},
	{SHA1, "This is a test.", "TeSt", 1, "63D936639734385B"},
	{SHA1, "This is a test.", "TeSt", 99, "87FEC7768B73CCF9"},
	{SHA1, "AbCdEfGhIjK", "alpha1", 0, "AD85F658EBE383C9"},
	{SHA1, "AbCdEfGhIjK", "alpha1", 1, "D07CE229B5CF119B"},
	{SHA1, "AbCdEfGhIjK", "alpha1", 99, "27BC71035AAF3DC6"},
	{SHA1, "OTP's are good", "correct", 0, "D51F3E99BF8E6F0B"},
	{SHA1, "OTP's are good", "correct", 1, "82AEB52D943774E4"},
	{SHA1, "OTP's are good", "correct", 99, "4F296A74FE1567EC"},
}

func TestRFC2289Vectors(t *testing.T) {
	for _, tc := range rfcVectors {
		got, err := ComputeHex(tc.alg, tc.pass, tc.seed, tc.n)
		if err != nil {
			t.Fatalf("%s/%s/%d: %v", tc.alg, tc.seed, tc.n, err)
		}
		want := strings.ToLower(tc.want)
		if got != want {
			t.Errorf("%s %q %q n=%d: got %s, want %s", tc.alg, tc.pass, tc.seed, tc.n, got, want)
		}
	}
}

func TestComputeValidation(t *testing.T) {
	if _, err := Compute(MD5, "pw", "seed", -1); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := Compute(MD5, "pw", "", 1); err == nil {
		t.Error("empty seed accepted")
	}
	if _, err := Compute(MD5, "pw", "has space", 1); err == nil {
		t.Error("seed with space accepted")
	}
	if _, err := Compute(Algorithm("otp-sha256"), "pw", "seed", 1); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestRegistryFlow(t *testing.T) {
	r := NewRegistry()
	if r.Enabled("jdoe") {
		t.Error("fresh registry has state")
	}
	if err := r.Register("jdoe", MD5, "This is a test.", "TeSt", 100); err != nil {
		t.Fatal(err)
	}
	if !r.Enabled("jdoe") {
		t.Error("Enabled false after Register")
	}
	if got := r.Remaining("jdoe"); got != 99 {
		t.Errorf("Remaining = %d", got)
	}
	challenge, ok := r.Challenge("jdoe")
	if !ok || challenge != "otp-md5 99 TeSt" {
		t.Fatalf("challenge = %q, %v", challenge, ok)
	}
	resp, err := Respond(challenge, "This is a test.")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify("jdoe", resp); err != nil {
		t.Fatalf("valid response rejected: %v", err)
	}
	// Replay must fail (the whole point, paper §5.1).
	if err := r.Verify("jdoe", resp); !errors.Is(err, ErrBadResponse) {
		t.Fatalf("replayed response: %v", err)
	}
	// The next challenge moved down the chain.
	challenge2, _ := r.Challenge("jdoe")
	if challenge2 != "otp-md5 98 TeSt" {
		t.Errorf("challenge2 = %q", challenge2)
	}
	resp2, _ := Respond(challenge2, "This is a test.")
	if err := r.Verify("jdoe", resp2); err != nil {
		t.Fatalf("second response rejected: %v", err)
	}
}

func TestRegistryWrongPassphrase(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("jdoe", SHA1, "right pass", "seed1", 50); err != nil {
		t.Fatal(err)
	}
	challenge, _ := r.Challenge("jdoe")
	resp, err := Respond(challenge, "wrong pass")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify("jdoe", resp); !errors.Is(err, ErrBadResponse) {
		t.Fatalf("wrong-pass response: %v", err)
	}
	// State must not have advanced.
	if got := r.Remaining("jdoe"); got != 49 {
		t.Errorf("Remaining = %d after failed verify", got)
	}
}

func TestRegistryExhaustion(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("jdoe", MD5, "pass phrase", "seed1", 2); err != nil {
		t.Fatal(err)
	}
	challenge, ok := r.Challenge("jdoe")
	if !ok {
		t.Fatal("no challenge at seq 2")
	}
	resp, _ := Respond(challenge, "pass phrase")
	if err := r.Verify("jdoe", resp); err != nil {
		t.Fatal(err)
	}
	// seq is now 1: chain exhausted.
	if _, ok := r.Challenge("jdoe"); ok {
		t.Error("challenge issued on exhausted chain")
	}
	if err := r.Verify("jdoe", resp); !errors.Is(err, ErrExhausted) {
		t.Errorf("exhausted verify: %v", err)
	}
	// Re-registration recovers.
	if err := r.Register("jdoe", MD5, "pass phrase", "seed2", 10); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Challenge("jdoe"); !ok {
		t.Error("no challenge after re-register")
	}
}

func TestRegistryUnknownUser(t *testing.T) {
	r := NewRegistry()
	if err := r.Verify("ghost", "0123456789abcdef"); err == nil {
		t.Error("unknown user verified")
	}
	if _, ok := r.Challenge("ghost"); ok {
		t.Error("challenge for unknown user")
	}
	if r.Remaining("ghost") != 0 {
		t.Error("remaining for unknown user")
	}
}

func TestRegistryRemove(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("jdoe", MD5, "pw pw pw", "seed1", 5); err != nil {
		t.Fatal(err)
	}
	r.Remove("jdoe")
	if r.Enabled("jdoe") {
		t.Error("state survived Remove")
	}
}

func TestParseChallenge(t *testing.T) {
	alg, n, seed, err := ParseChallenge("otp-sha1 42 MySeed99")
	if err != nil || alg != SHA1 || n != 42 || seed != "MySeed99" {
		t.Errorf("got %v %d %q %v", alg, n, seed, err)
	}
	for _, bad := range []string{"", "otp-md5 42", "otp-md9 42 seed", "otp-md5 x seed", "otp-md5 -1 seed", "otp-md5 5 bad seed extra"} {
		if _, _, _, err := ParseChallenge(bad); err == nil {
			t.Errorf("ParseChallenge(%q) accepted", bad)
		}
	}
}

func TestParseResponseForms(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("jdoe", MD5, "This is a test.", "TeSt", 100); err != nil {
		t.Fatal(err)
	}
	// RFC prints vectors as four space-separated groups; both forms and
	// both cases must be accepted.
	if err := r.Verify("jdoe", "50FE 1962 C496 5880"); err != nil {
		t.Errorf("spaced upper-case response rejected: %v", err)
	}
	if err := r.Verify("jdoe", "short"); err == nil {
		t.Error("malformed response accepted")
	}
}

// Remaining reports how many responses are left before re-initialization.
func (r *Registry) Remaining(username string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.users[username]
	if !ok {
		return 0
	}
	return st.seq - 1
}

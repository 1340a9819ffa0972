package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

var (
	errConn   = errors.New("connection refused")
	errDenied = errors.New("authorization failed")
)

func TestQuorumReached(t *testing.T) {
	err := QuorumOutcome{Op: "PUT", Need: 2, Acks: 2, Errs: []error{errConn}, RetrySafe: true}.Classify()
	if err != nil {
		t.Fatalf("quorum reached: got %v, want nil", err)
	}
	// Over-achievement is equally fine.
	if err := (QuorumOutcome{Op: "PUT", Need: 1, Acks: 3}).Classify(); err != nil {
		t.Fatalf("over-quorum: got %v", err)
	}
}

func TestQuorumFullRejectionIsPermanent(t *testing.T) {
	err := QuorumOutcome{
		Op:   "PUT",
		Need: 2,
		Acks: 0,
		Errs: []error{Permanent(errDenied), Permanent(errDenied)},
	}.Classify()
	if err == nil {
		t.Fatal("full rejection classified as success")
	}
	if !IsPermanent(err) {
		t.Errorf("full rejection: got %v, want Permanent", err)
	}
	if IsAmbiguous(err) {
		t.Errorf("full rejection must not be ambiguous: %v", err)
	}
	if !errors.Is(err, errDenied) {
		t.Errorf("underlying verdict lost: %v", err)
	}
}

func TestQuorumPartialPutIsRetrySafeAmbiguous(t *testing.T) {
	// One replica holds the credential, the other is unreachable: the
	// write may be half-committed — ambiguous, but a PUT replay converges.
	err := QuorumOutcome{Op: "PUT", Need: 2, Acks: 1, Errs: []error{errConn}, RetrySafe: true}.Classify()
	if !IsAmbiguous(err) {
		t.Fatalf("partial PUT: got %v, want ambiguous", err)
	}
	if !IsRetrySafe(err) {
		t.Errorf("partial PUT must be retry-safe: %v", err)
	}
}

func TestQuorumPartialDestroyIsNeverRetrySafe(t *testing.T) {
	err := QuorumOutcome{Op: "DESTROY", Need: 2, Acks: 1, Errs: []error{errConn}, RetrySafe: false}.Classify()
	if !IsAmbiguous(err) {
		t.Fatalf("partial DESTROY: got %v, want ambiguous", err)
	}
	if IsRetrySafe(err) {
		t.Errorf("partial DESTROY must not be retry-safe: %v", err)
	}
}

func TestQuorumMixedRejectionAndFaultIsAmbiguous(t *testing.T) {
	// A definitive rejection from one replica plus a transport fault from
	// the other is NOT a unanimous verdict: the faulted replica may have
	// committed before the connection died.
	err := QuorumOutcome{
		Op:   "CHANGE_PASSPHRASE",
		Need: 2,
		Acks: 0,
		Errs: []error{Permanent(errDenied), errConn},
	}.Classify()
	if !IsAmbiguous(err) {
		t.Fatalf("mixed outcome: got %v, want ambiguous", err)
	}
	if IsPermanent(err) {
		t.Errorf("mixed outcome must not be permanent: %v", err)
	}
}

func TestPolicyRetriesRetrySafeAmbiguity(t *testing.T) {
	attempts := 0
	pol := Policy{MaxAttempts: 3, Sleep: func(context.Context, time.Duration) error { return nil }}
	err := pol.Do(context.Background(), func(context.Context) error {
		attempts++
		if attempts < 3 {
			return AmbiguousRetryable("PUT", errConn)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry-safe ambiguity not retried to success: %v", err)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
}

func TestPolicyStopsOnPlainAmbiguity(t *testing.T) {
	attempts := 0
	pol := Policy{MaxAttempts: 3, Sleep: func(context.Context, time.Duration) error { return nil }}
	err := pol.Do(context.Background(), func(context.Context) error {
		attempts++
		return Ambiguous("DESTROY", errConn)
	})
	if !IsAmbiguous(err) {
		t.Fatalf("got %v, want ambiguous", err)
	}
	if attempts != 1 {
		t.Errorf("plain ambiguity retried: attempts = %d, want 1", attempts)
	}
}

func TestFirstPermanentAndUnavailable(t *testing.T) {
	if got := FirstPermanent([]error{errConn, Permanent(errDenied)}); !errors.Is(got, errDenied) {
		t.Errorf("FirstPermanent: got %v", got)
	}
	if got := FirstPermanent([]error{errConn}); got != nil {
		t.Errorf("FirstPermanent without permanent: got %v", got)
	}
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errConn, true},
		{Permanent(errDenied), false},
		{Ambiguous("PUT", errConn), false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
	}
	for _, c := range cases {
		if got := Unavailable(c.err); got != c.want {
			t.Errorf("Unavailable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// FirstPermanent returns the first error in errs carrying the Permanent
// marker, or nil.
func FirstPermanent(errs []error) error {
	for _, e := range errs {
		if IsPermanent(e) {
			return e
		}
	}
	return nil
}

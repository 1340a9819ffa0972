package resilience

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// fastPolicy retries promptly and records sleeps instead of taking them.
func fastPolicy(attempts int, slept *[]time.Duration) Policy {
	return Policy{
		MaxAttempts: attempts,
		BaseDelay:   10 * time.Millisecond,
		Rand:        func() float64 { return 1 }, // jitter pinned to identity
		Sleep: func(ctx context.Context, d time.Duration) error {
			if slept != nil {
				*slept = append(*slept, d)
			}
			return ctx.Err()
		},
	}
}

func TestZeroValueRunsOnce(t *testing.T) {
	calls := 0
	boom := errors.New("boom")
	err := Policy{}.Do(context.Background(), func(context.Context) error {
		calls++
		return boom
	})
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestRetriesUntilSuccess(t *testing.T) {
	var slept []time.Duration
	calls := 0
	err := fastPolicy(5, &slept).Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	// Exponential: 10ms then 20ms (jitter pinned to identity).
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Errorf("backoffs = %v", slept)
	}
}

func TestExhaustionAnnotatesAttemptCount(t *testing.T) {
	boom := errors.New("still down")
	err := fastPolicy(3, nil).Do(context.Background(), func(context.Context) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("underlying error lost: %v", err)
	}
	if got := err.Error(); !errors.Is(err, boom) || !contains(got, "3 attempts") {
		t.Errorf("err = %q", got)
	}
}

func TestPermanentStopsImmediately(t *testing.T) {
	calls := 0
	denied := errors.New("authorization failed")
	err := fastPolicy(5, nil).Do(context.Background(), func(context.Context) error {
		calls++
		return Permanent(denied)
	})
	if calls != 1 {
		t.Errorf("permanent error retried: %d calls", calls)
	}
	// The marker is stripped: callers see the original error text.
	if err == nil || err.Error() != "authorization failed" {
		t.Errorf("err = %v", err)
	}
	if !errors.Is(err, denied) {
		t.Error("errors.Is lost")
	}
}

func TestAmbiguousStopsImmediately(t *testing.T) {
	calls := 0
	drop := errors.New("connection reset")
	err := fastPolicy(5, nil).Do(context.Background(), func(context.Context) error {
		calls++
		return Ambiguous("DESTROY", drop)
	})
	if calls != 1 {
		t.Errorf("ambiguous error retried: %d calls", calls)
	}
	if !IsAmbiguous(err) {
		t.Fatalf("ambiguity not surfaced: %v", err)
	}
	var ae *AmbiguousError
	if !errors.As(err, &ae) || ae.Op != "DESTROY" || !errors.Is(err, drop) {
		t.Errorf("err = %#v", err)
	}
	if !contains(err.Error(), "outcome unknown") {
		t.Errorf("message = %q", err.Error())
	}
}

func TestContextCancelStopsRetries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	p := Policy{
		MaxAttempts: 10,
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel() // cancelled while backing off
			return ctx.Err()
		},
	}
	err := p.Do(ctx, func(context.Context) error {
		calls++
		return errors.New("transient")
	})
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
	if err == nil || !contains(err.Error(), "interrupted") {
		t.Errorf("err = %v", err)
	}
}

func TestBackoffCapsAtMaxDelay(t *testing.T) {
	p := Policy{BaseDelay: time.Second}
	want := []time.Duration{1, 2, 4, 5, 5}
	for i, w := range want {
		if got := p.Backoff(i); got != w*time.Second {
			t.Errorf("Backoff(%d) = %v, want %v", i, got, w*time.Second)
		}
	}
}

func TestJitterStaysInRange(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond}
	for _, r := range []float64{0, 0.25, 0.5, 1} {
		p.Rand = func() float64 { return r }
		d := p.jittered(p.Backoff(0))
		lo, hi := 50*time.Millisecond, 100*time.Millisecond
		if d < lo || d > hi {
			t.Errorf("jittered(rand=%v) = %v outside [%v, %v]", r, d, lo, hi)
		}
	}
}

func TestOnRetryObserves(t *testing.T) {
	var seen []int
	p := fastPolicy(3, nil)
	p.OnRetry = func(attempt int, err error, backoff time.Duration) {
		seen = append(seen, attempt)
	}
	p.Do(context.Background(), func(context.Context) error { return errors.New("x") })
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Errorf("OnRetry attempts = %v", seen)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

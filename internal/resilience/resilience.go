// Package resilience implements the retry/backoff layer the repository's
// clients sit on. The paper treats MyProxy as always-on infrastructure
// (§3: "the repository must be highly available; a failure denies users
// access to the Grid"); in practice availability is built from two halves —
// a server that degrades gracefully, and clients that ride out transient
// faults instead of failing the portal login on the first dropped packet.
// This package is the client half: an exponential-backoff retry policy with
// jitter, context-aware cancellation, and an explicit vocabulary for the two
// kinds of non-retryable failure — permanent errors (the server said no)
// and ambiguous errors (a mutation may or may not have committed).
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Policy parameterizes retries. The zero value performs exactly one attempt
// (no behavior change for callers that never opted in).
type Policy struct {
	// MaxAttempts is the total number of attempts including the first;
	// values below 1 mean 1.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (0 = 100ms); each
	// later retry waits twice as long, up to maxDelay.
	BaseDelay time.Duration

	// OnRetry, when non-nil, observes every scheduled retry (stats,
	// logging). attempt is the 1-based number of the attempt that failed.
	OnRetry func(attempt int, err error, backoff time.Duration)

	// Sleep replaces the backoff sleep (tests); nil selects a
	// context-aware sleep.
	Sleep func(ctx context.Context, d time.Duration) error
	// Rand replaces the jitter source (tests); nil selects math/rand's
	// top-level source.
	Rand func() float64
}

const (
	// maxDelay caps the backoff.
	maxDelay = 5 * time.Second
	// jitter is the fraction of each delay that is randomized: delay' =
	// delay * (1 - jitter + jitter*rand). Jitter decorrelates the retry
	// storms of many clients hitting one repository after a shared fault.
	jitter = 0.5
)

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops retrying and returns it (unwrapped) as-is.
// Use it for definitive server verdicts: authorization failures, bad pass
// phrases, policy rejections — retrying cannot change the answer.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err carries the Permanent marker.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// AmbiguousError reports a mutation whose outcome is unknown: the request
// reached (or may have reached) the repository, the commit may have
// happened, and the confirmation was lost. Retrying blindly could destroy a
// freshly stored credential or double-apply a pass-phrase change, so Do
// surfaces the ambiguity to the caller instead (who can Info/inspect and
// decide).
type AmbiguousError struct {
	// Op names the operation left in doubt (e.g. "PUT", "DESTROY").
	Op string
	// Err is the transport failure that interrupted the confirmation.
	Err error
	// RetrySafe marks ambiguity that is nonetheless safe to replay: the
	// operation is idempotent *for the same caller* — re-sending a PUT
	// overwrites the caller's own deposit with the same content, so an
	// unknown outcome costs nothing to resolve by retrying. A DESTROY is
	// never retry-safe (a replay reports a spurious "not found", or worse,
	// removes a deposit that landed between the attempts). Policy.Do
	// retries retry-safe ambiguity and surfaces the rest.
	RetrySafe bool
}

func (e *AmbiguousError) Error() string {
	return fmt.Sprintf("resilience: %s outcome unknown (connection failed after the request may have committed): %v", e.Op, e.Err)
}

func (e *AmbiguousError) Unwrap() error { return e.Err }

// Ambiguous wraps err as an AmbiguousError for op. A nil err returns nil.
func Ambiguous(op string, err error) error {
	if err == nil {
		return nil
	}
	return &AmbiguousError{Op: op, Err: err}
}

// AmbiguousRetryable wraps err as retry-safe ambiguity (see
// AmbiguousError.RetrySafe). A nil err returns nil.
func AmbiguousRetryable(op string, err error) error {
	if err == nil {
		return nil
	}
	return &AmbiguousError{Op: op, Err: err, RetrySafe: true}
}

// IsAmbiguous reports whether err carries post-commit ambiguity.
func IsAmbiguous(err error) bool {
	var ae *AmbiguousError
	return errors.As(err, &ae)
}

// IsRetrySafe reports whether err is ambiguity marked safe to replay.
func IsRetrySafe(err error) bool {
	var ae *AmbiguousError
	return errors.As(err, &ae) && ae.RetrySafe
}

// Backoff returns the backoff before retry number retry (0-based), without
// jitter applied.
func (p Policy) Backoff(retry int) time.Duration {
	d := p.BaseDelay
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	for i := 0; i < retry && d < maxDelay; i++ {
		d *= 2
	}
	return min(d, maxDelay)
}

// jittered applies the jitter fraction to d.
func (p Policy) jittered(d time.Duration) time.Duration {
	rnd := p.Rand
	if rnd == nil {
		// math/rand's top-level source is safe for concurrent use and
		// seeded at start-up.
		rnd = rand.Float64
	}
	return time.Duration(float64(d) * (1 - jitter + jitter*rnd()))
}

func (p Policy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Do runs op under the policy. Transient failures are retried with
// exponential backoff and jitter until MaxAttempts is exhausted or ctx is
// done; errors wrapped by Permanent or Ambiguous stop immediately. Each
// attempt runs under ctx; the caller's transport bounds one attempt. The
// returned error is the last attempt's, annotated with
// the attempt count when more than one was made (the underlying error
// remains reachable through errors.Is/As).
func (p Policy) Do(ctx context.Context, op func(ctx context.Context) error) error {
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for attempt := 1; ; attempt++ {
		if ctx.Err() != nil {
			if err != nil {
				return fmt.Errorf("resilience: %w (interrupted: %v)", err, ctx.Err())
			}
			return ctx.Err()
		}
		err = op(ctx)
		if err == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return pe.err
		}
		// Ambiguity stops retries — unless it is explicitly retry-safe
		// (an idempotent-for-this-caller write such as PUT), which rides
		// the normal backoff like any transient fault.
		if IsAmbiguous(err) && !IsRetrySafe(err) {
			return err
		}
		if attempt >= attempts {
			if attempt > 1 {
				return fmt.Errorf("resilience: after %d attempts: %w", attempt, err)
			}
			return err
		}
		backoff := p.jittered(p.Backoff(attempt - 1))
		if p.OnRetry != nil {
			p.OnRetry(attempt, err, backoff)
		}
		if serr := p.sleep(ctx, backoff); serr != nil {
			return fmt.Errorf("resilience: %w (interrupted: %v)", err, serr)
		}
	}
}

// Package renewal keeps long-running jobs supplied with fresh proxy
// credentials (paper §6.6): "It is not uncommon for computational jobs to
// run for a period of time that exceed the lifetime of the proxy credential
// they receive on startup... We plan to investigate mechanisms to enable
// MyProxy to securely support long-running applications by being able to
// supply them with fresh credentials when needed."
//
// A Holder wraps the job's working credential; a Renewer watches it and,
// when the remaining lifetime falls below a threshold, authenticates to the
// repository *with the expiring proxy itself* and requests a pass-phrase-
// less renewal (authorized by the repository's renewer ACL plus identity
// match), swapping the fresh credential into the Holder.
package renewal

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pki"
)

// Holder is a concurrency-safe slot for a job's working credential.
type Holder struct {
	mu   sync.RWMutex
	cred *pki.Credential
}

// NewHolder wraps an initial credential.
func NewHolder(cred *pki.Credential) *Holder {
	return &Holder{cred: cred}
}

// Credential returns the current credential.
func (h *Holder) Credential() *pki.Credential {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.cred
}

// Replace installs a fresh credential.
func (h *Holder) Replace(cred *pki.Credential) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cred = cred
}

// TimeLeft reports the current credential's remaining lifetime.
func (h *Holder) TimeLeft() time.Duration {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.cred == nil {
		return 0
	}
	return h.cred.TimeLeft()
}

// holderKey carries a Holder through a context to job runners that need
// the *current* credential mid-run (long jobs whose proxies rotate).
type holderKey struct{}

// WithHolder attaches a credential holder to a context.
func WithHolder(ctx context.Context, h *Holder) context.Context {
	return context.WithValue(ctx, holderKey{}, h)
}

// HolderFrom extracts the credential holder, if any.
func HolderFrom(ctx context.Context) (*Holder, bool) {
	h, ok := ctx.Value(holderKey{}).(*Holder)
	return h, ok
}

// Config parameterizes a Renewer.
type Config struct {
	// Holder is the credential slot to keep fresh. Required.
	Holder *Holder
	// NewClient builds a repository client authenticating with the given
	// credential; called for every renewal so the (rotating) working proxy
	// is always the authenticator. Required.
	NewClient func(cred *pki.Credential) *core.Client
	// Username names the stored renewable credential (its default
	// credential).
	Username string
	// Threshold triggers renewal when less than this much lifetime
	// remains (0 = 15 minutes).
	Threshold time.Duration
	// Lifetime is the requested lifetime of each renewed proxy (0 = the
	// server default).
	Lifetime time.Duration
	// Interval is the polling period of Run (0 = Threshold/4, min 1s).
	Interval time.Duration
	// OnRenew, if non-nil, observes successful renewals.
	OnRenew func(cred *pki.Credential)
}

// Renewer drives credential renewal for one job.
type Renewer struct {
	cfg Config
}

// New validates the configuration and builds a Renewer.
func New(cfg Config) (*Renewer, error) {
	if cfg.Holder == nil {
		return nil, errors.New("renewal: Holder required")
	}
	if cfg.NewClient == nil {
		return nil, errors.New("renewal: NewClient required")
	}
	if cfg.Username == "" {
		return nil, errors.New("renewal: Username required")
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 15 * time.Minute
	}
	if cfg.Interval <= 0 {
		cfg.Interval = cfg.Threshold / 4
		if cfg.Interval < time.Second {
			cfg.Interval = time.Second
		}
	}
	return &Renewer{cfg: cfg}, nil
}

// NeedsRenewal reports whether the held credential is within the renewal
// threshold.
func (r *Renewer) NeedsRenewal() bool {
	cred := r.cfg.Holder.Credential()
	if cred == nil {
		return true
	}
	return cred.TimeLeft() < r.cfg.Threshold
}

// RenewOnce performs a single renewal unconditionally, replacing the held
// credential on success.
func (r *Renewer) RenewOnce(ctx context.Context) error {
	current := r.cfg.Holder.Credential()
	if current == nil {
		return errors.New("renewal: no credential to authenticate with")
	}
	client := r.cfg.NewClient(current)
	fresh, err := client.Get(ctx, core.GetOptions{
		Username: r.cfg.Username,
		Lifetime: r.cfg.Lifetime,
		Renewal:  true,
	})
	if err != nil {
		return fmt.Errorf("renewal: %w", err)
	}
	r.cfg.Holder.Replace(fresh)
	if r.cfg.OnRenew != nil {
		r.cfg.OnRenew(fresh)
	}
	return nil
}

// MaybeRenew renews only when within the threshold; it reports whether a
// renewal happened.
func (r *Renewer) MaybeRenew(ctx context.Context) (bool, error) {
	if !r.NeedsRenewal() {
		return false, nil
	}
	if err := r.RenewOnce(ctx); err != nil {
		return false, err
	}
	return true, nil
}

// Run polls until the context is cancelled, renewing as needed. Renewal
// errors are returned only when the held credential has fully expired
// (before that, transient failures are retried on the next tick).
func (r *Renewer) Run(ctx context.Context) error {
	ticker := time.NewTicker(r.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			if _, err := r.MaybeRenew(ctx); err != nil {
				if r.cfg.Holder.TimeLeft() <= 0 {
					return fmt.Errorf("renewal: credential expired and renewal failing: %w", err)
				}
			}
		}
	}
}

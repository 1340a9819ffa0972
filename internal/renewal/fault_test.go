package renewal

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/pki"
	"repro/internal/resilience"
)

// Unattended renewal is exactly where retries matter most: no human is
// around to re-run the command. A renewal must ride out transient connect
// failures when the client carries a retry policy.
func TestRenewOnceRetriesTransientFailures(t *testing.T) {
	_, addr := startRepo(t)
	jobProxy := depositRenewable(t, addr, 10*time.Minute)
	holder := NewHolder(jobProxy)

	script := faultnet.NewScript(
		faultnet.Plan{ConnectError: faultnet.ErrInjectedConnect},
		faultnet.Plan{ConnectError: faultnet.ErrInjectedConnect},
	)
	base := newClientFactory(t, addr)
	factory := func(cred *pki.Credential) *core.Client {
		c := base(cred)
		c.DialContext = (&faultnet.Dialer{Script: script}).DialContext
		c.Retry = resilience.Policy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
		}
		return c
	}
	r, err := New(Config{
		Holder: holder, NewClient: factory,
		Username: "alice", Lifetime: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RenewOnce(context.Background()); err != nil {
		t.Fatalf("RenewOnce through connect faults: %v", err)
	}
	if got := script.Consumed(); got != 3 {
		t.Errorf("dial attempts = %d, want 3", got)
	}
	if holder.Credential() == jobProxy {
		t.Error("holder still has the old proxy")
	}
	if left := holder.TimeLeft(); left < 30*time.Minute {
		t.Errorf("renewed proxy lifetime %v, want ~1h", left)
	}
}

// Without retries the same faults fail the renewal — and the old proxy
// stays in place untouched (no half-renewed state).
func TestFailedRenewalLeavesHolderIntact(t *testing.T) {
	_, addr := startRepo(t)
	jobProxy := depositRenewable(t, addr, 10*time.Minute)
	holder := NewHolder(jobProxy)
	base := newClientFactory(t, addr)
	factory := func(cred *pki.Credential) *core.Client {
		c := base(cred)
		c.DialContext = (&faultnet.Dialer{Script: faultnet.NewScript(
			faultnet.Plan{ConnectError: faultnet.ErrInjectedConnect},
		)}).DialContext
		return c
	}
	r, err := New(Config{
		Holder: holder, NewClient: factory,
		Username: "alice",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RenewOnce(context.Background()); err == nil {
		t.Fatal("renewal through dead link succeeded")
	}
	if holder.Credential() != jobProxy {
		t.Error("failed renewal replaced the credential")
	}
}

package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// Quorum classification for replicated writes (DESIGN.md §12): a credential
// mutation fanned out to R replicas has three possible outcomes, and each
// maps onto this package's existing error vocabulary.
//
//   - Acks >= Need: the write is committed; enough replicas durably hold it.
//   - Every replica delivered a definitive rejection (an authorization
//     failure, a bad pass phrase, a policy veto): the verdict is unanimous
//     and retrying cannot change it — Permanent.
//   - Anything in between — some acks but not enough, or transport faults
//     mixed with rejections: one or more replicas may hold the write while
//     others provably do not. That is exactly post-commit ambiguity. For
//     idempotent-for-this-caller writes (PUT, STORE) the ambiguity is
//     retry-safe: replaying converges the replicas. For DESTROY it never
//     is — a replay can report a spurious "not found" or remove a deposit
//     that landed in between.

// QuorumOutcome aggregates one replicated fan-out for classification.
type QuorumOutcome struct {
	// Op names the replicated operation (e.g. "PUT", "DESTROY").
	Op string
	// Need is the acknowledgement quorum required to call the write
	// committed.
	Need int
	// Acks is the number of replicas that confirmed the write.
	Acks int
	// Errs holds one error per failed replica (transport faults, server
	// rejections — in any mix).
	Errs []error
	// RetrySafe marks Op as idempotent for this caller (PUT/STORE yes,
	// DESTROY/CHANGE_PASSPHRASE no); it selects which flavor of ambiguity
	// a partial quorum produces.
	RetrySafe bool
}

// Classify reduces the outcome to nil (quorum reached), a Permanent error
// (unanimous definitive rejection), or an AmbiguousError (partial quorum).
func (q QuorumOutcome) Classify() error {
	if q.Acks >= q.Need {
		return nil
	}
	if q.Acks == 0 && len(q.Errs) > 0 && allPermanent(q.Errs) {
		// Every replica said no, definitively. Surface the first verdict
		// (they agree in kind) with the quorum context attached.
		return Permanent(fmt.Errorf("resilience: %s rejected by all %d replica(s): %w", q.Op, len(q.Errs), q.Errs[0]))
	}
	err := fmt.Errorf("resilience: %s acknowledged by %d/%d replica(s): %s", q.Op, q.Acks, q.Need, joinErrs(q.Errs))
	if q.RetrySafe {
		return AmbiguousRetryable(q.Op, err)
	}
	return Ambiguous(q.Op, err)
}

func allPermanent(errs []error) bool {
	for _, e := range errs {
		if !IsPermanent(e) {
			return false
		}
	}
	return true
}

func joinErrs(errs []error) string {
	if len(errs) == 0 {
		return "no replica errors"
	}
	parts := make([]string, len(errs))
	for i, e := range errs {
		parts[i] = e.Error()
	}
	return strings.Join(parts, "; ")
}

// Unavailable reports whether err looks like replica unavailability — any
// failure that is neither a Permanent verdict nor ambiguity. Context
// cancellation is excluded: the caller gave up, the replica did not fail.
func Unavailable(err error) bool {
	if err == nil || IsPermanent(err) || IsAmbiguous(err) {
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

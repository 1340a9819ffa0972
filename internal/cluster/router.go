package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/resilience"
)

// Router implements the two routing disciplines of the cluster (DESIGN.md
// §12) over an abstract per-node operation:
//
//   - Read: try the key's replicas one at a time, healthy-first. A replica
//     that answers — even with a rejection — ends the read: a definitive
//     server verdict is an answer, not a failure, and trying another replica
//     would at best duplicate it and at worst mask an authorization denial
//     behind a replica-specific error. Only transport faults fail over.
//   - Write: fan out to ALL R replicas concurrently and demand Quorum
//     acknowledgements. Fewer acks than the quorum is classified through
//     resilience.QuorumOutcome: unanimous definitive rejection is Permanent,
//     anything partial is ambiguous (retry-safe only for commands
//     protocol.Command.Idempotent says may be replayed).
type Router struct {
	Ring   *Ring
	Health *Health
	// RF is the replication factor: each username's credentials live on its
	// RF ring successors. Values below 1 select 1.
	RF int
	// WriteQuorum is the acknowledgements a mutation needs; values below 1
	// select a majority of RF (RF/2 + 1).
	WriteQuorum int
}

// rf returns the effective replication factor.
func (r *Router) rf() int {
	if r.RF < 1 {
		return 1
	}
	return r.RF
}

// quorum returns the effective write quorum, capped by the replica count
// actually available for the key.
func (r *Router) quorum(replicas int) int {
	q := r.WriteQuorum
	if q < 1 {
		q = r.rf()/2 + 1
	}
	if q > replicas {
		q = replicas
	}
	return q
}

// Replicas returns key's replica set in ring order.
func (r *Router) Replicas(key string) []NodeID {
	return r.Ring.Successors(key, r.rf())
}

// isVerdict reports whether err is a definitive answer from a repository —
// a protocol-level rejection, an OTP challenge, or anything already marked
// Permanent — as opposed to a transport fault. Verdicts end reads without
// failover and count as rejections (not unavailability) in write quorums.
func isVerdict(err error) bool {
	var otpErr *core.ErrOTPRequired
	return protocol.IsServerVerdict(err) || errors.As(err, &otpErr) || resilience.IsPermanent(err)
}

// Read runs op against key's replicas until one delivers an answer.
// Healthy replicas are tried before suspects; a replica that fails with a
// transport fault is marked down and the next is tried. The error returned
// when every replica is unreachable aggregates the per-node failures.
func (r *Router) Read(ctx context.Context, key string, op func(ctx context.Context, node NodeID) error) error {
	replicas := r.Replicas(key)
	if len(replicas) == 0 {
		return fmt.Errorf("cluster: no nodes in ring for %q", key)
	}
	var failures []string
	for _, node := range r.Health.Order(replicas) {
		err := op(ctx, node)
		if err == nil {
			r.Health.MarkUp(node)
			return nil
		}
		if isVerdict(err) || resilience.IsAmbiguous(err) {
			// The node answered (or the outcome is in doubt on THIS node);
			// another replica cannot improve on that.
			r.Health.MarkUp(node)
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		r.Health.MarkDown(node)
		failures = append(failures, fmt.Sprintf("%s: %v", node, err))
	}
	return fmt.Errorf("cluster: all %d replica(s) of %q unreachable: %s",
		len(replicas), key, strings.Join(failures, "; "))
}

// Write fans op out to all of key's replicas concurrently and classifies the
// aggregate through the quorum rules. cmd names the operation in errors and
// decides, through protocol.Command.Idempotent, whether a partial outcome is
// marked safe to replay (see resilience.AmbiguousError.RetrySafe).
func (r *Router) Write(ctx context.Context, key string, cmd protocol.Command, op func(ctx context.Context, node NodeID) error) error {
	replicas := r.Replicas(key)
	if len(replicas) == 0 {
		return fmt.Errorf("cluster: no nodes in ring for %q", key)
	}
	errs := make([]error, len(replicas))
	var wg sync.WaitGroup
	for i, node := range replicas {
		wg.Add(1)
		go func(i int, node NodeID) {
			defer wg.Done()
			errs[i] = op(ctx, node)
		}(i, node)
	}
	wg.Wait()

	outcome := resilience.QuorumOutcome{
		Op:        cmd.String(),
		Need:      r.quorum(len(replicas)),
		RetrySafe: cmd.Idempotent(),
	}
	for i, err := range errs {
		node := replicas[i]
		switch {
		case err == nil:
			r.Health.MarkUp(node)
			outcome.Acks++
		case isVerdict(err):
			// The node processed the request and said no — it is healthy.
			r.Health.MarkUp(node)
			outcome.Errs = append(outcome.Errs, resilience.Permanent(fmt.Errorf("%s: %w", node, err)))
		default:
			if resilience.Unavailable(err) {
				r.Health.MarkDown(node)
			}
			outcome.Errs = append(outcome.Errs, fmt.Errorf("%s: %w", node, err))
		}
	}
	return outcome.Classify()
}

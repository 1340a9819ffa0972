package cluster

import (
	"sync"
	"time"
)

// DefaultProbation is how long a node that failed a request is deprioritized
// before clients try it again. Short on purpose: the cluster has no gossip or
// heartbeat channel, so probation expiry IS the healing mechanism — a node
// that came back is rediscovered by the first request routed to it after the
// cooldown.
const DefaultProbation = 2 * time.Second

// Health tracks per-node availability observations on the client side. It is
// advisory only: a node on probation is tried last, never never — if every
// replica of a key is on probation the router still contacts them, so a full
// outage of the health table cannot black-hole a credential.
type Health struct {
	probation time.Duration
	now       func() time.Time // test seam; nil = time.Now

	mu sync.Mutex
	// Guarded by mu.
	down map[NodeID]time.Time // node -> when it last failed
}

// NewHealth builds a tracker with the given probation window (values <= 0
// select DefaultProbation).
func NewHealth(probation time.Duration) *Health {
	if probation <= 0 {
		probation = DefaultProbation
	}
	return &Health{probation: probation, down: make(map[NodeID]time.Time)}
}

func (h *Health) clock() time.Time {
	if h.now != nil {
		return h.now()
	}
	return time.Now()
}

// MarkDown records a failed request to node, starting (or extending) its
// probation window.
func (h *Health) MarkDown(node NodeID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.down[node] = h.clock()
}

// MarkUp records a successful request to node, ending any probation
// immediately.
func (h *Health) MarkUp(node NodeID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.down, node)
}

// Suspect reports whether node is inside its probation window. A node whose
// window has expired is reported healthy again (and its record dropped), so
// traffic naturally returns to a recovered node.
func (h *Health) Suspect(node NodeID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	at, ok := h.down[node]
	if !ok {
		return false
	}
	if h.clock().Sub(at) >= h.probation {
		delete(h.down, node)
		return false
	}
	return true
}

// Order sorts nodes healthy-first, preserving relative (ring) order inside
// each class. The router reads through this ordering so a down replica costs
// one failed dial only until its first MarkDown, not on every request.
func (h *Health) Order(nodes []NodeID) []NodeID {
	healthy := make([]NodeID, 0, len(nodes))
	var suspect []NodeID
	for _, n := range nodes {
		if h.Suspect(n) {
			suspect = append(suspect, n)
		} else {
			healthy = append(healthy, n)
		}
	}
	return append(healthy, suspect...)
}

// Package cluster turns a set of independent MyProxy repository nodes into
// one sharded, replicated credential service. The paper names availability as
// the repository's defining constraint (§3: a repository outage denies its
// users the Grid); a single node, however well-tuned, is still a single
// failure domain. This package supplies the missing layer entirely on the
// client side — no server changes, no inter-node protocol:
//
//   - a consistent-hash ring (this file) that maps each username to the R
//     repository nodes responsible for it, stable under membership churn;
//   - a router that replicates mutations to all R successors with quorum
//     acknowledgement and fails reads over between them;
//   - a Client that implements core.Repository, so portals and CLI tools
//     swap a node address for a node list and nothing else;
//   - a replicated credstore.Backend for embedding front-ends (httpgate);
//   - rebalance plans that move entries when the ring membership changes.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// NodeID names a repository node in the ring. IDs are administrative labels
// ("repo-a"), not addresses: hashing the ID rather than the address keeps
// placement stable when a node moves hosts.
type NodeID string

// vnodes is the number of ring points each node projects. 64 virtual nodes
// keep the per-node load spread within a few percent of uniform for small
// clusters while keeping Successors lookups cheap.
const vnodes = 64

// ringPoint is one virtual node: a position on the uint64 hash circle owned
// by a physical node.
type ringPoint struct {
	hash uint64
	node NodeID
}

// Ring is a consistent-hash ring over repository nodes. The zero value is
// unusable; construct with NewRing. All methods are safe for concurrent use.
type Ring struct {
	mu sync.RWMutex
	// Guarded by mu.
	points []ringPoint // sorted by hash
	// Guarded by mu.
	members map[NodeID]struct{}
}

// NewRing builds a ring with the given initial members.
func NewRing(nodes ...NodeID) *Ring {
	r := &Ring{members: make(map[NodeID]struct{})}
	for _, n := range nodes {
		r.add(n)
	}
	return r
}

// hashPoint hashes one virtual-node label (or a key) onto the circle.
// sha256 rather than a fast non-cryptographic hash: placement must be
// identical across every client binary, and the few thousand hashes a ring
// rebuild costs are nothing next to a single RSA delegation.
func hashPoint(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts node into the ring; adding an existing member is a no-op.
func (r *Ring) Add(node NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.add(node)
}

func (r *Ring) add(node NodeID) {
	if _, ok := r.members[node]; ok {
		return
	}
	r.members[node] = struct{}{}
	pts := r.points
	for i := 0; i < vnodes; i++ {
		pts = append(pts, ringPoint{
			hash: hashPoint(string(node) + "#" + strconv.Itoa(i)),
			node: node,
		})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].hash < pts[j].hash })
	r.points = pts
}

// Remove deletes node from the ring; removing a non-member is a no-op.
func (r *Ring) Remove(node NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[node]; !ok {
		return
	}
	delete(r.members, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Nodes returns the current members in sorted order.
func (r *Ring) Nodes() []NodeID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]NodeID, 0, len(r.members))
	for n := range r.members {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of member nodes.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Successors returns the n distinct nodes responsible for key, walking
// clockwise from the key's hash point. These are the key's replica set: the
// first entry is the primary, the rest are its followers. When the ring has
// fewer than n members, every member is returned. The result order is
// deterministic for a given membership — every client routes identically.
func (r *Ring) Successors(key string, n int) []NodeID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n < 1 || len(r.points) == 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hashPoint(key)
	pts := r.points
	// First point clockwise of (or at) h, wrapping at the top of the circle.
	start := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= h })
	out := make([]NodeID, 0, n)
	seen := make(map[NodeID]struct{}, n)
	for i := 0; i < len(pts) && len(out) < n; i++ {
		p := pts[(start+i)%len(pts)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}

// Owns reports whether node is in key's replica set of size n.
func (r *Ring) Owns(node NodeID, key string, n int) bool {
	for _, s := range r.Successors(key, n) {
		if s == node {
			return true
		}
	}
	return false
}

// String renders the membership for diagnostics.
func (r *Ring) String() string {
	return fmt.Sprintf("cluster.Ring%v", r.Nodes())
}

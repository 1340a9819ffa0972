package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

func TestRingSuccessorsDistinctAndDeterministic(t *testing.T) {
	r := NewRing("a", "b", "c")
	for _, user := range []string{"alice", "bob", "carol", "", "a-very-long-username"} {
		got := r.Successors(user, 2)
		if len(got) != 2 {
			t.Fatalf("Successors(%q, 2) = %v", user, got)
		}
		if got[0] == got[1] {
			t.Errorf("Successors(%q) not distinct: %v", user, got)
		}
		if again := r.Successors(user, 2); !reflect.DeepEqual(got, again) {
			t.Errorf("Successors(%q) not deterministic: %v vs %v", user, got, again)
		}
	}
}

func TestRingSuccessorsClampedToMembership(t *testing.T) {
	r := NewRing("a", "b")
	if got := r.Successors("alice", 5); len(got) != 2 {
		t.Errorf("Successors beyond membership: %v", got)
	}
	if got := NewRing().Successors("alice", 2); got != nil {
		t.Errorf("empty ring: %v", got)
	}
	if got := r.Successors("alice", 0); got != nil {
		t.Errorf("n=0: %v", got)
	}
}

// TestRingStabilityUnderMembershipChange is the consistent-hashing property:
// removing one of N nodes must only re-home keys that the removed node
// owned — every other key keeps its primary.
func TestRingStabilityUnderMembershipChange(t *testing.T) {
	r := NewRing("a", "b", "c", "d")
	users := make([]string, 200)
	for i := range users {
		users[i] = fmt.Sprintf("user-%03d", i)
	}
	before := make(map[string]NodeID, len(users))
	for _, u := range users {
		before[u] = r.Successors(u, 1)[0]
	}
	r.Remove("d")
	moved := 0
	for _, u := range users {
		after := r.Successors(u, 1)[0]
		if after == "d" {
			t.Fatalf("removed node still owns %q", u)
		}
		if before[u] != after {
			if before[u] != "d" {
				t.Errorf("key %q moved from %s to %s though %s stayed in the ring", u, before[u], after, before[u])
			}
			moved++
		}
	}
	// Roughly a quarter of keys lived on d; all of them (and only them) move.
	if moved == 0 || moved > len(users)/2 {
		t.Errorf("moved %d of %d keys on one-node removal", moved, len(users))
	}
	// Re-adding restores the original placement exactly.
	r.Add("d")
	for _, u := range users {
		if got := r.Successors(u, 1)[0]; got != before[u] {
			t.Errorf("re-add: key %q now on %s, was on %s", u, got, before[u])
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing("a", "b", "c")
	counts := map[NodeID]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.Successors(fmt.Sprintf("user-%04d", i), 1)[0]]++
	}
	for node, c := range counts {
		if c < n/6 || c > n/2+n/10 {
			t.Errorf("node %s owns %d of %d keys — ring badly unbalanced: %v", node, c, n, counts)
		}
	}
}

func TestRingAddRemoveIdempotent(t *testing.T) {
	r := NewRing("a")
	r.Add("a")
	if got := r.Len(); got != 1 {
		t.Errorf("double add: %d members", got)
	}
	r.Remove("ghost")
	if got := r.Nodes(); !reflect.DeepEqual(got, []NodeID{"a"}) {
		t.Errorf("remove non-member: %v", got)
	}
}

func TestHealthProbationExpiresAndHeals(t *testing.T) {
	// A method that returns holding h.mu hangs the next call: the guard
	// fails the test in seconds rather than at the binary's timeout.
	done := make(chan struct{})
	go func() {
		defer close(done)
		probationExpiresAndHeals(t)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Health stalled: a method kept its lock")
	}
}

func probationExpiresAndHeals(t *testing.T) {
	now := time.Unix(1000, 0)
	h := NewHealth(2 * time.Second)
	h.now = func() time.Time { return now }

	h.MarkDown("b")
	if !h.Suspect("b") {
		t.Error("freshly failed node not suspect")
		return
	}
	if got := h.Order([]NodeID{"a", "b", "c"}); !reflect.DeepEqual(got, []NodeID{"a", "c", "b"}) {
		t.Errorf("Order with b down: %v", got)
	}
	// Probation expiry alone restores the node — no explicit recovery signal
	// exists in a client-side cluster.
	now = now.Add(2 * time.Second)
	if h.Suspect("b") {
		t.Error("probation did not expire")
	}
	if got := h.Order([]NodeID{"a", "b", "c"}); !reflect.DeepEqual(got, []NodeID{"a", "b", "c"}) {
		t.Errorf("Order after probation: %v", got)
	}

	h.MarkDown("a")
	h.MarkUp("a")
	if h.Suspect("a") {
		t.Error("MarkUp did not clear probation")
	}
}

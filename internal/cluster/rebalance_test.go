package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/credstore"
)

// seedCluster places each user's entry on its rf ring successors and
// returns the backends.
func seedCluster(t *testing.T, rf, users int, ids ...NodeID) (map[NodeID]credstore.Backend, *Ring) {
	t.Helper()
	stores := make(map[NodeID]credstore.Backend, len(ids))
	ring := NewRing(0)
	for _, id := range ids {
		stores[id] = credstore.NewMemStore()
		ring.Add(id)
	}
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("user-%02d", i)
		for _, id := range ring.Successors(u, rf) {
			if err := stores[id].Put(&credstore.Entry{Username: u, Owner: "/C=US/O=Test/CN=owner", SealedKey: []byte("sealed")}); err != nil {
				t.Fatalf("seed Put: %v", err)
			}
		}
	}
	return stores, ring
}

// verifyPlacement asserts every user's entry sits on exactly its rf ring
// successors.
func verifyPlacement(t *testing.T, ring *Ring, rf, users int, stores map[NodeID]credstore.Backend) {
	t.Helper()
	for i := 0; i < users; i++ {
		u := fmt.Sprintf("user-%02d", i)
		owners := ring.Successors(u, rf)
		isOwner := make(map[NodeID]bool)
		for _, o := range owners {
			isOwner[o] = true
		}
		for id, s := range stores {
			_, err := s.Get(u, "")
			switch {
			case isOwner[id] && err != nil:
				t.Errorf("owner %s of %s lacks the entry: %v", id, u, err)
			case !isOwner[id] && !errors.Is(err, credstore.ErrNotFound):
				t.Errorf("non-owner %s of %s: %v", id, u, err)
			}
		}
	}
}

func TestPlanConvergedClusterIsEmpty(t *testing.T) {
	stores, ring := seedCluster(t, 2, 10, "a", "b", "c")
	moves, err := Plan(ring, 2, stores)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if len(moves) != 0 {
		t.Errorf("converged cluster planned %d moves: %v", len(moves), moves)
	}
}

func TestRebalanceAfterNodeJoin(t *testing.T) {
	const users = 20
	stores, ring := seedCluster(t, 2, users, "a", "b", "c")
	// Node d joins: it owns ring segments but holds nothing yet.
	stores["d"] = credstore.NewMemStore()
	ring.Add("d")

	moves, err := Plan(ring, 2, stores)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if len(moves) == 0 {
		t.Fatal("join planned no moves")
	}
	// Copies strictly precede removals (no step reduces the copy count).
	lastCopy, firstRemove := -1, len(moves)
	for i, m := range moves {
		if m.Kind == MoveCopy {
			lastCopy = i
		} else if i < firstRemove {
			firstRemove = i
		}
	}
	if lastCopy > firstRemove {
		t.Errorf("copy at %d after removal at %d", lastCopy, firstRemove)
	}
	if err := Apply(moves, stores); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	verifyPlacement(t, ring, 2, users, stores)

	// The plan is a fixed point: re-planning finds nothing.
	again, err := Plan(ring, 2, stores)
	if err != nil {
		t.Fatalf("re-Plan: %v", err)
	}
	if len(again) != 0 {
		t.Errorf("after Apply, %d residual moves: %v", len(again), again)
	}
}

func TestRebalanceDecommission(t *testing.T) {
	const users = 20
	stores, ring := seedCluster(t, 2, users, "a", "b", "c", "d")
	// Decommission d: out of the ring, but its backend stays in the plan
	// as a source to drain.
	ring.Remove("d")

	moves, err := Plan(ring, 2, stores)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if err := Apply(moves, stores); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	// No credential was lost: every user sits on its owners among the
	// surviving backends.
	verifyPlacement(t, ring, 2, users, stores)
	// The decommissioned node is fully drained.
	left, err := stores["d"].Usernames()
	if err != nil {
		t.Fatalf("Usernames d: %v", err)
	}
	if len(left) != 0 {
		t.Errorf("decommissioned node still holds %v", left)
	}
}

func TestPlanRefusesUnknownOwner(t *testing.T) {
	stores, ring := seedCluster(t, 2, 5, "a", "b", "c")
	// A node in the ring with no backend in the plan cannot receive copies.
	ring.Add("mystery")
	if _, err := Plan(ring, 2, stores); err == nil {
		t.Error("Plan with an owner lacking a backend succeeded")
	}
}

func TestPlanHealsUnderReplication(t *testing.T) {
	const users = 10
	stores, ring := seedCluster(t, 2, users, "a", "b", "c")
	// Wipe one node wholesale (disk loss). Plan must re-copy its entries
	// from the surviving replicas.
	stores["b"] = credstore.NewMemStore()
	moves, err := Plan(ring, 2, stores)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	for _, m := range moves {
		if m.Kind == MoveRemove {
			t.Errorf("repair plan contains a removal: %v", m)
		}
	}
	if err := Apply(moves, stores); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	verifyPlacement(t, ring, 2, users, stores)
}

// TestApplyCopiesTheEntryAsHeld: a repair copy lands on another engine's
// backend exactly as the source holds it, so a seal-derived verifier keeps
// its scheme marker and stays checkable on the new replica.
func TestApplyCopiesTheEntryAsHeld(t *testing.T) {
	dst, err := credstore.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores := map[NodeID]credstore.Backend{"a": credstore.NewMemStore(), "b": dst}
	ring := NewRing(0)
	ring.Add("a")
	ring.Add("b")
	if err := stores["a"].Put(&credstore.Entry{
		Username: "u", Owner: "/C=US/O=Test/CN=owner", SealedKey: []byte("sealed"),
		Verifier: []byte{1, 2, 3}, VerifierFromSeal: true,
	}); err != nil {
		t.Fatal(err)
	}
	moves, err := Plan(ring, 2, stores)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(moves, stores); err != nil {
		t.Fatal(err)
	}
	want, err := stores["a"].Get("u", "")
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.Get("u", "")
	if err != nil {
		t.Fatalf("copy missing: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("copied entry differs:\n got %+v\nwant %+v", got, want)
	}
}

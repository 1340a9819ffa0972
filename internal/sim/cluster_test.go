package sim

// Cluster failure drills (DESIGN.md §12): a 3-node repository ring with
// replication factor 2 must ride out the loss of ANY single node with zero
// client-visible get-delegation failures and zero lost credentials, and the
// ring must heal — traffic returns to a restarted node — without operator
// action. The kill happens mid-workload, so in-flight sessions are severed,
// not gracefully drained.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/resilience"
)

// repoIndex maps a cluster node ID ("repo02") back to its deployment index.
func repoIndex(t *testing.T, id cluster.NodeID) int {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(string(id), "repo%02d", &i); err != nil {
		t.Fatalf("unparseable node id %q: %v", id, err)
	}
	return i
}

func newClusterDeployment(t *testing.T, users, portals int) *Deployment {
	t.Helper()
	d, err := NewDeployment(Config{
		Repos:             3,
		Portals:           portals,
		Users:             users,
		ReplicationFactor: 2,
		Probation:         50 * time.Millisecond,
		KDFIterations:     64,
	})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	t.Cleanup(d.Close)
	return d
}

// seedThroughRing deposits every user's credential via the replicated write
// path (quorum 2/2 with all nodes up).
func seedThroughRing(t *testing.T, d *Deployment, ctx context.Context) {
	t.Helper()
	for u := range d.Users {
		cc, err := d.ClusterUserClient(u)
		if err != nil {
			t.Fatalf("ClusterUserClient(%d): %v", u, err)
		}
		if err := cc.Put(ctx, core.PutOptions{
			Username:   d.UserNames[u],
			Passphrase: d.Passphrase,
			Lifetime:   24 * time.Hour,
		}); err != nil {
			t.Fatalf("seed user %d through ring: %v", u, err)
		}
	}
}

// TestClusterFailoverKillOneReplica kills each of the three nodes in turn in
// the middle of a concurrent get-delegation workload and requires every
// single Get to succeed — reads fail over to the surviving replica. After
// the node returns, traffic must reach it again (the ring heals through
// probation expiry alone).
func TestClusterFailoverKillOneReplica(t *testing.T) {
	const (
		workers        = 3
		getsPerWorker  = 6
		killAfterTotal = 3 // kill once this many gets completed
	)
	// 5 users is the smallest count whose deterministic placement makes
	// every node the primary replica of at least one user, so the healing
	// assertion below can never be vacuous.
	d := newClusterDeployment(t, 5, workers)
	ctx := context.Background()
	seedThroughRing(t, d, ctx)

	for victim := 0; victim < 3; victim++ {
		t.Run(fmt.Sprintf("kill-repo%02d", victim), func(t *testing.T) {
			var (
				done   atomic.Int64
				wg     sync.WaitGroup
				errsMu sync.Mutex
				// Guarded by errsMu.
				errs []error
			)
			killed := make(chan struct{})
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					cc, err := d.ClusterClient(w)
					if err != nil {
						errsMu.Lock()
						errs = append(errs, err)
						errsMu.Unlock()
						return
					}
					for i := 0; i < getsPerWorker; i++ {
						if i == getsPerWorker/2 {
							// Do not outrun the kill: the second half of
							// every worker's load runs against a 2-node
							// cluster.
							<-killed
						}
						u := (w*getsPerWorker + i) % len(d.Users)
						_, err := cc.Get(ctx, core.GetOptions{
							Username:   d.UserNames[u],
							Passphrase: d.Passphrase,
							Lifetime:   time.Hour,
						})
						if err != nil {
							errsMu.Lock()
							errs = append(errs, fmt.Errorf("worker %d get %d (user %s): %w", w, i, d.UserNames[u], err))
							errsMu.Unlock()
						}
						done.Add(1)
					}
				}(w)
			}
			// Kill mid-workload: some gets are done, in-flight ones are cut.
			for done.Load() < killAfterTotal {
				time.Sleep(time.Millisecond)
			}
			d.KillRepo(victim)
			close(killed)
			wg.Wait()

			for _, err := range errs {
				t.Errorf("client-visible failure with repo%02d down: %v", victim, err)
			}

			// Bring the node back; the ring must heal without intervention.
			if err := d.RestartRepo(victim); err != nil {
				t.Fatalf("RestartRepo(%d): %v", victim, err)
			}
			time.Sleep(120 * time.Millisecond) // > probation window

			// A user whose PRIMARY replica is the victim routes there again.
			cc, err := d.ClusterClient(0)
			if err != nil {
				t.Fatalf("ClusterClient: %v", err)
			}
			healed := false
			for u := range d.Users {
				if repoIndex(t, cc.Replicas(d.UserNames[u])[0]) != victim {
					continue
				}
				healed = true
				if _, err := cc.Get(ctx, core.GetOptions{
					Username:   d.UserNames[u],
					Passphrase: d.Passphrase,
					Lifetime:   time.Hour,
				}); err != nil {
					t.Fatalf("get via restarted primary repo%02d: %v", victim, err)
				}
				if got := d.Repo(victim).Stats().Gets.Load(); got == 0 {
					t.Errorf("restarted repo%02d served no gets — ring did not heal", victim)
				}
				break
			}
			if !healed {
				t.Fatalf("no user has repo%02d as primary — adjust the user count so healing is provable", victim)
			}
		})
	}

	// No credential was lost anywhere in the drills: every user still
	// resolves through the ring with all nodes up.
	cc, err := d.ClusterClient(0)
	if err != nil {
		t.Fatalf("ClusterClient: %v", err)
	}
	for u := range d.Users {
		if _, err := cc.Get(ctx, core.GetOptions{
			Username:   d.UserNames[u],
			Passphrase: d.Passphrase,
			Lifetime:   time.Hour,
		}); err != nil {
			t.Errorf("user %s lost after failover drills: %v", d.UserNames[u], err)
		}
	}
}

// TestClusterPartitionAmbiguity cuts the network to one replica and verifies
// the write-quorum classification end to end: a PUT that reaches 1 of 2
// replicas is ambiguous-but-retry-safe, a DESTROY in the same state is
// ambiguous and NOT retry-safe, and healing the partition lets the replayed
// PUT converge.
func TestClusterPartitionAmbiguity(t *testing.T) {
	d := newClusterDeployment(t, 2, 1)
	ctx := context.Background()
	seedThroughRing(t, d, ctx)

	u := 0
	cc, err := d.ClusterUserClient(u)
	if err != nil {
		t.Fatalf("ClusterUserClient: %v", err)
	}
	replicas := cc.Replicas(d.UserNames[u])
	if len(replicas) != 2 {
		t.Fatalf("replicas = %v, want 2", replicas)
	}
	cut := repoIndex(t, replicas[1])
	d.PartitionRepo(cut, true)

	put := core.PutOptions{
		Username:   d.UserNames[u],
		Passphrase: d.Passphrase,
		Lifetime:   24 * time.Hour,
	}
	err = cc.Put(ctx, put)
	if !resilience.IsAmbiguous(err) || !resilience.IsRetrySafe(err) {
		t.Fatalf("partitioned PUT: got %v, want retry-safe ambiguity", err)
	}
	err = cc.Destroy(ctx, d.UserNames[u], d.Passphrase, "")
	if !resilience.IsAmbiguous(err) || resilience.IsRetrySafe(err) {
		t.Fatalf("partitioned DESTROY: got %v, want non-retry-safe ambiguity", err)
	}

	// Heal the partition; the replayed PUT reaches quorum and the reachable
	// replica set is consistent again.
	d.PartitionRepo(cut, false)
	if err := cc.Put(ctx, put); err != nil {
		t.Fatalf("replayed PUT after heal: %v", err)
	}
	pc, err := d.ClusterClient(0)
	if err != nil {
		t.Fatalf("ClusterClient: %v", err)
	}
	if _, err := pc.Get(ctx, core.GetOptions{
		Username:   d.UserNames[u],
		Passphrase: d.Passphrase,
		Lifetime:   time.Hour,
	}); err != nil {
		t.Fatalf("get after heal: %v", err)
	}
}

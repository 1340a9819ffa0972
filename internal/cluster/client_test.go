package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pki"
	"repro/internal/protocol"
	"repro/internal/resilience"
)

// fakeRepo is a scriptable per-node repository. Each operation consults the
// node's current failure mode; successes record the call.
type fakeRepo struct {
	id NodeID
	c  *fakeCluster
}

// fakeCluster coordinates the fakes: per-node failure modes and call logs.
type fakeCluster struct {
	mu sync.Mutex
	//myproxy:guardedby mu
	fail map[NodeID]error // non-nil: every op on this node returns it
	//myproxy:guardedby mu
	calls map[NodeID][]string
}

func newFakeCluster() *fakeCluster {
	return &fakeCluster{fail: make(map[NodeID]error), calls: make(map[NodeID][]string)}
}

func (f *fakeCluster) setFail(id NodeID, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil {
		delete(f.fail, id)
	} else {
		f.fail[id] = err
	}
}

func (f *fakeCluster) op(id NodeID, name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.fail[id]; err != nil {
		return err
	}
	f.calls[id] = append(f.calls[id], name)
	return nil
}

func (f *fakeCluster) callCount(id NodeID) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls[id])
}

func (f *fakeRepo) Put(ctx context.Context, opts core.PutOptions) error {
	return f.c.op(f.id, "PUT "+opts.Username)
}
func (f *fakeRepo) Get(ctx context.Context, opts core.GetOptions) (*pki.Credential, error) {
	if err := f.c.op(f.id, "GET "+opts.Username); err != nil {
		return nil, err
	}
	return &pki.Credential{}, nil
}
func (f *fakeRepo) Info(ctx context.Context, username, passphrase string) ([]protocol.CredInfo, error) {
	if err := f.c.op(f.id, "INFO "+username); err != nil {
		return nil, err
	}
	return []protocol.CredInfo{{Name: "default"}}, nil
}
func (f *fakeRepo) Destroy(ctx context.Context, username, passphrase, credName string) error {
	return f.c.op(f.id, "DESTROY "+username)
}
func (f *fakeRepo) ChangePassphrase(ctx context.Context, username, oldPass, newPass, credName string) error {
	return f.c.op(f.id, "CHANGE "+username)
}
func (f *fakeRepo) Store(ctx context.Context, opts core.StoreOptions) error {
	return f.c.op(f.id, "STORE "+opts.Username)
}
func (f *fakeRepo) Retrieve(ctx context.Context, opts core.RetrieveOptions) (*pki.Credential, error) {
	if err := f.c.op(f.id, "RETRIEVE "+opts.Username); err != nil {
		return nil, err
	}
	return &pki.Credential{}, nil
}

var _ core.Repository = (*fakeRepo)(nil)

func newTestClient(t *testing.T, fakes *fakeCluster, rf int, ids ...NodeID) *Client {
	t.Helper()
	nodes := make([]NodeConfig, len(ids))
	for i, id := range ids {
		nodes[i] = NodeConfig{ID: id, Addr: "unused:0"}
	}
	c, err := New(Config{
		Nodes:             nodes,
		ReplicationFactor: rf,
		NewRepoClient: func(n NodeConfig) core.Repository {
			return &fakeRepo{id: n.ID, c: fakes}
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

var errDial = errors.New("dial tcp: connection refused")

func TestClientWriteReplicatesToAllReplicas(t *testing.T) {
	fakes := newFakeCluster()
	c := newTestClient(t, fakes, 2, "a", "b", "c")
	if err := c.Put(context.Background(), core.PutOptions{Username: "alice"}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	replicas := c.Replicas("alice")
	total := 0
	for _, id := range []NodeID{"a", "b", "c"} {
		total += fakes.callCount(id)
	}
	if total != 2 {
		t.Errorf("Put fanned out to %d nodes, want 2 (replicas %v)", total, replicas)
	}
	for _, r := range replicas {
		if fakes.callCount(r) != 1 {
			t.Errorf("replica %s saw %d calls, want 1", r, fakes.callCount(r))
		}
	}
}

func TestClientReadFailsOverOnTransportFault(t *testing.T) {
	fakes := newFakeCluster()
	c := newTestClient(t, fakes, 2, "a", "b", "c")
	replicas := c.Replicas("alice")
	fakes.setFail(replicas[0], errDial)
	cred, err := c.Get(context.Background(), core.GetOptions{Username: "alice"})
	if err != nil || cred == nil {
		t.Fatalf("Get with primary down: %v", err)
	}
	if fakes.callCount(replicas[1]) != 1 {
		t.Errorf("secondary %s not used", replicas[1])
	}
	// The failed primary is on probation: the next read goes straight to
	// the secondary without re-dialing the primary... but a healed primary
	// is retried after MarkUp.
	if !c.router.Health.Suspect(replicas[0]) {
		t.Error("failed primary not marked down")
	}
}

func TestClientReadStopsOnServerVerdict(t *testing.T) {
	fakes := newFakeCluster()
	c := newTestClient(t, fakes, 2, "a", "b", "c")
	replicas := c.Replicas("alice")
	verdict := &protocol.ServerError{Code: protocol.RespError, Msgs: []string{"authorization failed"}}
	fakes.setFail(replicas[0], verdict)
	_, err := c.Get(context.Background(), core.GetOptions{Username: "alice"})
	if !protocol.IsServerVerdict(err) {
		t.Fatalf("Get: got %v, want the server verdict", err)
	}
	if fakes.callCount(replicas[1]) != 0 {
		t.Error("verdict leaked into a failover attempt on the secondary")
	}
	if c.router.Health.Suspect(replicas[0]) {
		t.Error("node that answered with a verdict was marked down")
	}
}

func TestClientReadAllReplicasDown(t *testing.T) {
	fakes := newFakeCluster()
	c := newTestClient(t, fakes, 2, "a", "b", "c")
	for _, r := range c.Replicas("alice") {
		fakes.setFail(r, errDial)
	}
	_, err := c.Get(context.Background(), core.GetOptions{Username: "alice"})
	if err == nil {
		t.Fatal("Get with all replicas down succeeded")
	}
	if !errors.Is(err, errDial) && !resilience.Unavailable(err) {
		t.Errorf("aggregate error lost the transport failure: %v", err)
	}
}

func TestClientPartialWriteIsRetrySafeAmbiguous(t *testing.T) {
	fakes := newFakeCluster()
	c := newTestClient(t, fakes, 2, "a", "b", "c")
	replicas := c.Replicas("alice")
	fakes.setFail(replicas[1], errDial)
	ctx := context.Background()

	// Every replicated write under the same partial failure is ambiguous;
	// whether it may be replayed is protocol.Command.Idempotent's answer.
	for _, tc := range []struct {
		cmd protocol.Command
		err error
	}{
		{protocol.CmdPut, c.Put(ctx, core.PutOptions{Username: "alice"})},
		{protocol.CmdStore, c.Store(ctx, core.StoreOptions{Username: "alice"})},
		{protocol.CmdDestroy, c.Destroy(ctx, "alice", "pw", "")},
		{protocol.CmdChangePassphrase, c.ChangePassphrase(ctx, "alice", "pw", "new pw", "")},
	} {
		if !resilience.IsAmbiguous(tc.err) {
			t.Fatalf("partial %s: got %v, want ambiguity", tc.cmd, tc.err)
		}
		want := tc.cmd == protocol.CmdPut || tc.cmd == protocol.CmdStore
		if got := resilience.IsRetrySafe(tc.err); got != want {
			t.Errorf("partial %s: retry-safe = %v, want %v (%v)", tc.cmd, got, want, tc.err)
		}
	}
}

func TestClientUnanimousVerdictIsPermanent(t *testing.T) {
	fakes := newFakeCluster()
	c := newTestClient(t, fakes, 2, "a", "b", "c")
	verdict := &protocol.ServerError{Code: protocol.RespError, Msgs: []string{"bad pass phrase"}}
	for _, r := range c.Replicas("alice") {
		fakes.setFail(r, verdict)
	}
	err := c.Put(context.Background(), core.PutOptions{Username: "alice"})
	if !resilience.IsPermanent(err) {
		t.Fatalf("unanimous rejection: got %v, want Permanent", err)
	}
	if resilience.IsAmbiguous(err) {
		t.Errorf("unanimous rejection misclassified as ambiguous: %v", err)
	}
}

func TestClientShardsSpreadAcrossNodes(t *testing.T) {
	fakes := newFakeCluster()
	c := newTestClient(t, fakes, 1, "a", "b", "c")
	primaries := map[NodeID]bool{}
	for i := 0; i < 50; i++ {
		primaries[c.Replicas(fmt.Sprintf("user-%d", i))[0]] = true
	}
	if len(primaries) != 3 {
		t.Errorf("50 users land on only %d of 3 nodes", len(primaries))
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no nodes succeeded")
	}
	_, err := New(Config{Nodes: []NodeConfig{{ID: "a", Addr: "x"}, {ID: "a", Addr: "y"}}})
	if err == nil {
		t.Error("New with duplicate IDs succeeded")
	}
}

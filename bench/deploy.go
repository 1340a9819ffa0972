package main

import (
	"bytes"
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/credstore"
	"repro/internal/keypool"
	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/protocol"
	"repro/internal/proxy"
)

// Fixed sizes of every deployment; bench/README.md gives the reason for each.
const (
	numUsers        = 64
	bulkEntries     = 448 // mixed_file: 64 + 448 = 512 files for FileStore.List to scan
	kdfIterations   = 1024
	keyPoolSize     = 64
	identityKeyBits = 1024
	passphrase      = "benchmark pass phrase"
	storedLifetime  = 24 * time.Hour
	getLifetime     = time.Hour
	gridPattern     = "/C=US/O=Bench Grid/*"
	serverPattern   = "/C=US/O=Bench Grid/CN=myproxy*"
)

var delegationKeys = pki.KeySpec{Algorithm: pki.AlgECDSAP256}

// workload describes one of the benchmark's traffic mixes and the
// deployment it runs against; BENCHMARK.json and README.md say why each
// exists.
type workload struct {
	name      string
	mix       mix
	workers   int
	nodes     int  // repository servers
	rf        int  // replication factor; 0 means one unclustered server
	fileStore bool // FileStore with bulk entries instead of a MemStore
	sessions  bool // GETs go over one multiplexed session per worker
}

var workloads = []*workload{
	{name: "get_exchange", workers: 2, nodes: 1, mix: mix{opGet: 1}},
	{name: "get_session", workers: 2, nodes: 1, mix: mix{opGet: 1}, sessions: true},
	{name: "mixed_file", workers: 1, nodes: 1, mix: mix{opGet: 12, opPut: 5, opInfo: 1, opDestroy: 1}, fileStore: true},
	{name: "cluster_rf2", workers: 1, nodes: 3, rf: 2, mix: mix{opGet: 4, opPut: 1}},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// getter is what a GET is issued through: a client, a cluster client or a
// session.
type getter interface {
	Get(ctx context.Context, opts core.GetOptions) (*pki.Credential, error)
}

// deployment is one workload's running system: PKI, repository servers,
// the shared key pool, seeded credentials and the clients the workers use.
// With a tracer the seams are installed; they pass calls straight through
// until the tracer is switched on.
type deployment struct {
	wl *workload
	t  *tracer // nil: no seams at all

	roots  *x509.CertPool
	users  []*pki.Credential
	names  []string
	portal *pki.Credential
	hosts  []*pki.Credential

	pool *keypool.Pool
	keys proxy.KeySource // pool, or the seam around it

	servers  []*core.Server
	addrs    []string
	backends []credstore.Backend // the stores themselves, without seams
	storeDir string
	serving  sync.WaitGroup

	// clientStats collects the clients' resilience counters (Retries).
	clientStats core.Stats

	ring           *cluster.Ring
	portalRepo     core.Repository   // long-lived portal client (cluster client when rf > 0)
	userClusters   []*cluster.Client // cluster_rf2: one long-lived cluster client per user
	sessions       []*core.Session
	tracedSessions []*tracedSession
}

// newDeployment builds and seeds the deployment for wl. Everything written
// to disk goes under dir.
func newDeployment(wl *workload, workers int, dir string, t *tracer) (d *deployment, err error) {
	d = &deployment{wl: wl, t: t}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	ca, err := pki.NewCA(pki.CAConfig{Name: pki.MustParseDN("/C=US/O=Bench Grid/CN=Bench CA"), KeyBits: identityKeyBits})
	if err != nil {
		return d, err
	}
	d.roots = x509.NewCertPool()
	d.roots.AddCert(ca.Certificate())
	base := pki.MustParseDN("/C=US/O=Bench Grid")
	for i := 0; i < numUsers; i++ {
		name := fmt.Sprintf("user%03d", i)
		cred, err := ca.IssueCredential(base.WithCN(name), 365*24*time.Hour, identityKeyBits)
		if err != nil {
			return d, err
		}
		d.users = append(d.users, cred)
		d.names = append(d.names, name)
	}
	if d.portal, err = ca.IssueHostCredential(base, "portal.bench", 365*24*time.Hour, identityKeyBits); err != nil {
		return d, err
	}

	d.pool = keypool.New(keyPoolSize, 0, delegationKeys)
	d.keys = d.pool
	if t != nil {
		d.keys = &keySeam{inner: d.pool, t: t}
	}

	if wl.fileStore {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return d, err
		}
		if d.storeDir, err = os.MkdirTemp(dir, "store-"+wl.name+"-"); err != nil {
			return d, err
		}
	}
	for i := 0; i < wl.nodes; i++ {
		if err := d.startServer(ca, base, i); err != nil {
			return d, err
		}
	}
	if err := d.buildClients(); err != nil {
		return d, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := d.seed(ctx); err != nil {
		return d, err
	}
	if t != nil && wl.rf > 0 {
		// The users' cluster clients live as long as the run and resume
		// their TLS sessions; their traced twins keep session caches of
		// their own, which one traced deposit per user warms the same way.
		t.on.Store(true)
		err := d.seedUsers(withSpan(ctx, spanRef{}))
		t.on.Store(false)
		if err != nil {
			return d, err
		}
	}
	if wl.sessions {
		portal := d.portalRepo.(interface {
			NewSession(context.Context) (*core.Session, error)
		})
		for w := 0; w < workers; w++ {
			s, err := portal.NewSession(context.Background())
			if err != nil {
				return d, fmt.Errorf("bench: open session: %w", err)
			}
			if !s.Multiplexed() {
				_ = s.Close() // a degraded session holds no connection
				return d, errors.New("bench: server refused session mode")
			}
			d.sessions = append(d.sessions, s)
		}
		d.tracedSessions = make([]*tracedSession, workers)
	}
	// The pool must be stocked before the first operation: a run that starts
	// on a cold pool measures key generation. Seeding drew it down; its
	// workers refill only once stock is at or below half, so "above half"
	// is the state every refill leaves behind.
	for d.pool.Snapshot().Ready <= keyPoolSize/2 {
		select {
		case <-ctx.Done():
			return d, fmt.Errorf("bench: key pool not stocked: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	return d, nil
}

func (d *deployment) startServer(ca *pki.CA, base pki.DN, i int) error {
	host, err := ca.IssueHostCredential(base, fmt.Sprintf("myproxy%02d.bench", i), 365*24*time.Hour, identityKeyBits)
	if err != nil {
		return err
	}
	var backend credstore.Backend = credstore.NewMemStore()
	if d.wl.fileStore {
		if backend, err = credstore.NewFileStore(d.storeDir); err != nil {
			return err
		}
	}
	store := backend
	if d.t != nil {
		store = &storeSeam{inner: backend, t: d.t}
	}
	srv, err := core.NewServer(core.ServerConfig{
		Credential:             host,
		Roots:                  d.roots,
		Store:                  store,
		AcceptedCredentials:    policy.NewACL(gridPattern),
		AuthorizedRetrievers:   policy.NewACL(gridPattern),
		KDFIterations:          kdfIterations,
		DelegationKeyAlgorithm: delegationKeys.Algorithm,
		KeySource:              d.keys,
		DrainTimeout:           5 * time.Second,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close() // nothing served yet
		return err
	}
	addr := ln.Addr().String()
	if d.t != nil {
		ln = &countingListener{Listener: ln, t: d.t}
	}
	d.hosts = append(d.hosts, host)
	d.backends = append(d.backends, backend)
	d.servers = append(d.servers, srv)
	d.addrs = append(d.addrs, addr)
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		_ = srv.Serve(ln) // returns net.ErrClosed once Close closes the listener
	}()
	return nil
}

// client returns a repository client for cred against addr: a core.Client,
// or — when seams are installed — its traced twin, which behaves as the
// core.Client until a context carries a span.
func (d *deployment) client(cred *pki.Credential, addr string) core.Repository {
	c := &core.Client{
		Credential:     cred,
		Roots:          d.roots,
		Addr:           addr,
		ExpectedServer: serverPattern,
		KeyAlgorithm:   delegationKeys.Algorithm,
		KeySource:      d.keys,
		Stats:          &d.clientStats,
	}
	if d.t == nil {
		return c
	}
	c.DialContext = d.t.dial
	return &tracedClient{Client: c, t: d.t}
}

// clusterClient returns a cluster client authenticating as cred.
func (d *deployment) clusterClient(cred *pki.Credential) (*cluster.Client, error) {
	cfg := cluster.Config{
		ReplicationFactor: d.wl.rf,
		Credential:        cred,
		Roots:             d.roots,
		ExpectedServer:    serverPattern,
		KeyAlgorithm:      delegationKeys.Algorithm,
		KeySource:         d.keys,
		Stats:             &d.clientStats,
	}
	for i, addr := range d.addrs {
		cfg.Nodes = append(cfg.Nodes, cluster.NodeConfig{ID: nodeID(i), Addr: addr})
	}
	if d.t != nil {
		cfg.NewRepoClient = func(n cluster.NodeConfig) core.Repository {
			return &nodeSeam{tracedClient: d.client(cred, n.Addr).(*tracedClient), node: int8(slices.Index(d.addrs, n.Addr))}
		}
	}
	return cluster.New(cfg)
}

func nodeID(i int) cluster.NodeID { return cluster.NodeID(fmt.Sprintf("node%02d", i)) }

func (d *deployment) buildClients() error {
	if d.wl.rf == 0 {
		d.portalRepo = d.client(d.portal, d.addrs[0])
		return nil
	}
	portal, err := d.clusterClient(d.portal)
	if err != nil {
		return err
	}
	d.portalRepo = portal
	d.ring = portal.Ring()
	for _, cred := range d.users {
		c, err := d.clusterClient(cred)
		if err != nil {
			return err
		}
		d.userClusters = append(d.userClusters, c)
	}
	return nil
}

// userRepo returns what user u's own operations go through: on a cluster
// the user's long-lived cluster client, otherwise a new client per call —
// the one-shot CLI tools start cold (full handshake, empty verify cache).
func (d *deployment) userRepo(u int) core.Repository {
	if d.wl.rf > 0 {
		return d.userClusters[u]
	}
	return d.client(d.users[u], d.addrs[0])
}

// seed deposits every user's default credential through the protocol and,
// for a file store, clones bulk entries in underneath it.
func (d *deployment) seed(ctx context.Context) error {
	if err := d.seedUsers(ctx); err != nil || !d.wl.fileStore {
		return err
	}
	e, err := d.backends[0].Get(d.names[0], "")
	if err != nil {
		return err
	}
	for i := 0; i < bulkEntries; i++ {
		c := e.Clone()
		c.Username = fmt.Sprintf("bulk%03d", i)
		if err := d.backends[0].Put(c); err != nil {
			return err
		}
	}
	return nil
}

func (d *deployment) seedUsers(ctx context.Context) error {
	for u := range d.users {
		if err := d.put(ctx, u); err != nil {
			return fmt.Errorf("bench: seed %s: %w", d.names[u], err)
		}
	}
	return nil
}

func (d *deployment) put(ctx context.Context, u int) error {
	return d.userRepo(u).Put(ctx, core.PutOptions{Username: d.names[u], Passphrase: passphrase, Lifetime: storedLifetime})
}

// session returns worker w's session: the core.Session opened at set-up
// or, under a span, the traced one, opened on first use (tracing is on by
// then, so its connection is counted).
func (d *deployment) session(ctx context.Context, w int) (getter, error) {
	if _, traced := spanFrom(ctx); !traced {
		return d.sessions[w], nil
	}
	if d.tracedSessions[w] == nil {
		s, err := d.portalRepo.(*tracedClient).newSession(ctx)
		if err != nil {
			return nil, err
		}
		d.tracedSessions[w] = s
	}
	return d.tracedSessions[w], nil
}

// outcome is what an operation returned, for check to look at.
type outcome struct {
	cred  *pki.Credential
	infos []protocol.CredInfo
}

// exec issues one operation. Expected refusals are part of no workload, so
// every error is a failure.
func (d *deployment) exec(ctx context.Context, w int, o op) (out outcome, err error) {
	u := int(o.user)
	switch o.kind {
	case opGet:
		var g getter = d.portalRepo
		if d.wl.sessions {
			if g, err = d.session(ctx, w); err != nil {
				return out, err
			}
		}
		out.cred, err = g.Get(ctx, core.GetOptions{Username: d.names[u], Passphrase: passphrase, Lifetime: getLifetime})
	case opPut:
		err = d.put(ctx, u)
	case opInfo:
		out.infos, err = d.userRepo(u).Info(ctx, d.names[u], passphrase)
	case opDestroy:
		err = d.userRepo(u).Destroy(ctx, d.names[u], passphrase, "")
	}
	return out, err
}

// check is the per-operation output check, run outside the timed call.
func (d *deployment) check(o op, out outcome) error {
	switch o.kind {
	case opGet:
		return d.checkDelegated(out.cred, int(o.user))
	case opInfo:
		if len(out.infos) != 1 {
			return fmt.Errorf("check: INFO returned %d entries, want 1", len(out.infos))
		}
	}
	return nil
}

// checkDelegated verifies a GET's result: the credential carries user u's
// identity and lives no longer than asked for. The client library has
// already verified the chain.
func (d *deployment) checkDelegated(cred *pki.Credential, u int) error {
	var eec *x509.Certificate
	for _, c := range cred.CertChain() {
		if !proxy.IsProxy(c) {
			eec = c
			break
		}
	}
	if eec == nil {
		return errors.New("check: delegated chain has no end-entity certificate")
	}
	if !bytes.Equal(eec.RawSubject, d.users[u].Certificate.RawSubject) {
		return fmt.Errorf("check: delegated identity %q, want %q", eec.Subject, d.users[u].Subject())
	}
	if left := cred.TimeLeft(); left > getLifetime+time.Minute {
		return fmt.Errorf("check: delegated lifetime %v exceeds the requested %v", left, getLifetime)
	}
	return nil
}

// serverStats sums one counter set over all nodes.
func (d *deployment) serverStats() map[string]int64 {
	sum := make(map[string]int64)
	for _, srv := range d.servers {
		for k, v := range srv.Stats().Snapshot() {
			sum[k] += v
		}
	}
	return sum
}

// checkFinal runs the end-of-run checks: the servers counted exactly the
// operations the clients saw succeed since base was taken (PUTs once per
// replica), and the stores hold what they should.
func (d *deployment) checkFinal(base map[string]int64, done [numOps]int64) []error {
	var errs []error
	now := d.serverStats()
	replicas := int64(1)
	if d.wl.rf > 0 {
		replicas = int64(d.wl.rf)
	}
	for _, c := range []struct {
		key  string
		want int64
	}{
		{"gets", done[opGet]}, {"puts", done[opPut] * replicas}, {"infos", done[opInfo]}, {"destroys", done[opDestroy]},
	} {
		if got := now[c.key] - base[c.key]; got != c.want {
			errs = append(errs, fmt.Errorf("check: servers counted %d %s, clients saw %d succeed", got, c.key, c.want))
		}
	}
	if d.wl.fileStore {
		names, err := d.backends[0].Usernames()
		if err != nil {
			errs = append(errs, err)
		} else if len(names) != numUsers+bulkEntries {
			errs = append(errs, fmt.Errorf("check: file store ends with %d entries, want %d", len(names), numUsers+bulkEntries))
		}
	}
	if d.wl.rf > 0 {
		for _, name := range d.names {
			for i, b := range d.backends {
				_, err := b.Get(name, "")
				if has, want := err == nil, d.ring.Owns(nodeID(i), name, d.wl.rf); has != want {
					errs = append(errs, fmt.Errorf("check: %s on node %d: present=%v, ring says %v", name, i, has, want))
				}
			}
		}
	}
	return errs
}

// fileBytesPerEntry is the mean size of the file store's entry files.
func (d *deployment) fileBytesPerEntry() float64 {
	if d.storeDir == "" {
		return 0
	}
	files, err := filepath.Glob(filepath.Join(d.storeDir, "*.json"))
	if err != nil || len(files) == 0 {
		return 0
	}
	var total int64
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			total += fi.Size()
		}
	}
	return float64(total) / float64(len(files))
}

// Close stops everything the deployment started and removes what it wrote.
func (d *deployment) Close() {
	for _, s := range d.sessions {
		_ = s.Close() // tearing down; the servers are closed next
	}
	for _, s := range d.tracedSessions {
		if s != nil {
			_ = s.Close() // as above
		}
	}
	for _, srv := range d.servers {
		_ = srv.Close() // always nil
	}
	d.serving.Wait()
	d.pool.Close()
	if d.storeDir != "" {
		_ = os.RemoveAll(d.storeDir) // scratch data under the output directory
	}
}

// nodeSeam is the cluster.Config.NewRepoClient seam: one node's client as
// a cluster client sees it, with a span around each routed call.
type nodeSeam struct {
	*tracedClient
	node int8
}

func (n *nodeSeam) call(ctx context.Context, kind opKind, fn func(ctx context.Context) error) error {
	parent, traced := spanFrom(ctx)
	if !traced {
		return fn(ctx)
	}
	sp := n.t.start(parent, spNodeCall)
	sp.s.kind, sp.s.node = kind, n.node
	err := fn(withSpan(ctx, sp.ref()))
	sp.end(err)
	return err
}

func (n *nodeSeam) Get(ctx context.Context, opts core.GetOptions) (cred *pki.Credential, err error) {
	err = n.call(ctx, opGet, func(ctx context.Context) error {
		cred, err = n.tracedClient.Get(ctx, opts)
		return err
	})
	return cred, err
}

func (n *nodeSeam) Put(ctx context.Context, opts core.PutOptions) error {
	return n.call(ctx, opPut, func(ctx context.Context) error { return n.tracedClient.Put(ctx, opts) })
}

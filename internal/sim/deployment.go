package sim

import (
	"context"
	"crypto/x509"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/credstore"
	"repro/internal/faultnet"
	"repro/internal/gram"
	"repro/internal/gsi"
	"repro/internal/keypool"
	"repro/internal/mss"
	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/proxy"
)

// Config sizes a simulated Grid deployment.
type Config struct {
	// Repos is the number of MyProxy repositories (paper §3.3: "a portal
	// should be able to use multiple systems"). Default 1.
	Repos int
	// Portals is the number of portal identities (§3.3: "multiple portals
	// should be able to use a single system"). Default 1.
	Portals int
	// Users is the number of user identities. Default 1.
	Users int
	// KeyBits sizes all RSA keys; default 1024 for measurement speed (the
	// 2001 deployment used comparable sizes). Ignored for delegation keys
	// when KeyAlgorithm is non-RSA.
	KeyBits int
	// KeyAlgorithm selects the delegation key algorithm for clients, the
	// shared keypair pool, and server-side generation. The zero value is
	// RSA, the paper-fidelity default; identity and CA keys stay RSA
	// regardless so the algorithm sweep isolates the hot path.
	KeyAlgorithm pki.KeyAlgorithm
	// KDFIterations for repository sealing; default 1024 (benchmarks
	// sweep this; production default is pki.DefaultKDFIterations).
	KDFIterations int
	// KeyPoolSize sizes the deployment-wide background keypair pool
	// shared by repositories and clients. Default 16; benchmarks that
	// measure warm-pool hot-path latency set it to cover their iteration
	// count (see Deployment.WarmKeys).
	KeyPoolSize int
	// ReplicationFactor configures ClusterClient: how many repositories
	// hold each username's credentials (0 selects the cluster default).
	ReplicationFactor int
	// Probation is the cluster clients' node-probation window (0 selects
	// the cluster default); failover tests shorten it so healing happens
	// within the test.
	Probation time.Duration
	// WithGRAM/WithMSS add those services.
	WithGRAM bool
	WithMSS  bool
}

// Deployment is a running simulated Grid.
type Deployment struct {
	CA    *pki.CA
	Roots *x509.CertPool

	Users     []*pki.Credential // long-term user credentials
	UserNames []string          // MyProxy account names, index-aligned
	Portals   []*pki.Credential // portal host credentials
	// Repos holds the running repository servers, index-aligned with
	// RepoAddrs. KillRepo/RestartRepo replace entries in place; concurrent
	// readers should go through Repo(i).
	Repos      []*core.Server
	RepoAddrs  []string
	GRAM       *gram.Server
	GRAMAddr   string
	MSS        *mss.Server
	MSSAddr    string
	Gridmap    *gsi.Gridmap
	Passphrase string

	keyBits       int
	keyAlg        pki.KeyAlgorithm
	kdfIterations int
	replication   int
	probation     time.Duration
	keys          *keypool.Pool
	listeners     []net.Listener
	closers       []func() error

	// Per-repository state kept so a repo can be killed and restarted in
	// place: the host credential and the store survive the process, exactly
	// like a repository host rebooting with its disk intact.
	repoHosts  []*pki.Credential
	repoStores []credstore.Backend

	// repoMu serializes kill/restart transitions and guards the listener
	// slice those transitions replace.
	repoMu sync.Mutex
	//myproxy:guardedby repoMu
	repoLns []net.Listener

	// partitioned marks repository addresses whose traffic the simulated
	// network drops at connect time (faultnet-style injected failures) —
	// the process is up, the network path is not.
	partMu sync.Mutex
	//myproxy:guardedby partMu
	partitioned map[string]bool

	// clients memoizes one core.Client per (credential, repo) pair so the
	// per-client TLS session cache and verification cache persist across
	// repeated Get/Put calls — the deployment then measures the steady
	// state a long-running portal actually sees.
	clientsMu sync.Mutex
	clients   map[clientKey]*core.Client //myproxy:guardedby clientsMu
	//myproxy:guardedby clientsMu
	clusterClients map[int]*cluster.Client
}

type clientKey struct {
	portal bool
	id     int
	repo   int
}

// NewDeployment builds and starts the deployment.
func NewDeployment(cfg Config) (*Deployment, error) {
	if cfg.Repos <= 0 {
		cfg.Repos = 1
	}
	if cfg.Portals <= 0 {
		cfg.Portals = 1
	}
	if cfg.Users <= 0 {
		cfg.Users = 1
	}
	if cfg.KeyBits <= 0 {
		cfg.KeyBits = 1024
	}
	if cfg.KDFIterations <= 0 {
		cfg.KDFIterations = 1024
	}
	if cfg.KeyPoolSize <= 0 {
		cfg.KeyPoolSize = 16
	}
	ca, err := pki.NewCA(pki.CAConfig{
		Name:    pki.MustParseDN("/C=US/O=Sim Grid/CN=Sim CA"),
		KeyBits: cfg.KeyBits,
	})
	if err != nil {
		return nil, err
	}
	roots := x509.NewCertPool()
	roots.AddCert(ca.Certificate())

	d := &Deployment{
		CA:             ca,
		Roots:          roots,
		Gridmap:        gsi.NewGridmap(),
		Passphrase:     "simulation pass phrase",
		keyBits:        cfg.KeyBits,
		keyAlg:         cfg.KeyAlgorithm,
		kdfIterations:  cfg.KDFIterations,
		replication:    cfg.ReplicationFactor,
		probation:      cfg.Probation,
		keys:           keypool.New(cfg.KeyPoolSize, 0, pki.KeySpec{Algorithm: cfg.KeyAlgorithm, Bits: cfg.KeyBits}),
		partitioned:    make(map[string]bool),
		clients:        make(map[clientKey]*core.Client),
		clusterClients: make(map[int]*cluster.Client),
	}
	base := pki.MustParseDN("/C=US/O=Sim Grid")

	for i := 0; i < cfg.Users; i++ {
		cred, err := ca.IssueCredential(base.WithCN(fmt.Sprintf("user%03d", i)), 365*24*time.Hour, cfg.KeyBits)
		if err != nil {
			d.Close()
			return nil, err
		}
		d.Users = append(d.Users, cred)
		d.UserNames = append(d.UserNames, fmt.Sprintf("user%03d", i))
		d.Gridmap.Add(cred.Subject(), fmt.Sprintf("acct%03d", i))
	}
	for i := 0; i < cfg.Portals; i++ {
		cred, err := ca.IssueHostCredential(base, fmt.Sprintf("portal%02d.sim", i), 365*24*time.Hour, cfg.KeyBits)
		if err != nil {
			d.Close()
			return nil, err
		}
		d.Portals = append(d.Portals, cred)
	}
	for i := 0; i < cfg.Repos; i++ {
		host, err := ca.IssueHostCredential(base, fmt.Sprintf("myproxy%02d.sim", i), 365*24*time.Hour, cfg.KeyBits)
		if err != nil {
			d.Close()
			return nil, err
		}
		// Each repository gets a persistent store that survives KillRepo/
		// RestartRepo — the host's disk, as opposed to its process.
		d.repoHosts = append(d.repoHosts, host)
		d.repoStores = append(d.repoStores, credstore.NewMemStore())
		d.Repos = append(d.Repos, nil)
		d.RepoAddrs = append(d.RepoAddrs, "")
		d.repoLns = append(d.repoLns, nil)
		if err := d.startRepo(i, "127.0.0.1:0"); err != nil {
			d.Close()
			return nil, err
		}
	}
	if cfg.WithGRAM {
		host, err := ca.IssueHostCredential(base, "gram.sim", 365*24*time.Hour, cfg.KeyBits)
		if err != nil {
			d.Close()
			return nil, err
		}
		srv, err := gram.NewServer(gram.Config{Credential: host, Roots: roots, Gridmap: d.Gridmap})
		if err != nil {
			d.Close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.Close()
			return nil, err
		}
		go srv.Serve(ln)
		d.GRAM, d.GRAMAddr = srv, ln.Addr().String()
		d.listeners = append(d.listeners, ln)
		d.closers = append(d.closers, srv.Close)
	}
	if cfg.WithMSS {
		host, err := ca.IssueHostCredential(base, "mss.sim", 365*24*time.Hour, cfg.KeyBits)
		if err != nil {
			d.Close()
			return nil, err
		}
		srv, err := mss.NewServer(mss.Config{Credential: host, Roots: roots, Gridmap: d.Gridmap})
		if err != nil {
			d.Close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.Close()
			return nil, err
		}
		go srv.Serve(ln)
		d.MSS, d.MSSAddr = srv, ln.Addr().String()
		d.listeners = append(d.listeners, ln)
		d.closers = append(d.closers, srv.Close)
	}
	return d, nil
}

// startRepo builds and serves repository i from its persistent identity and
// store, listening on addr. Restart passes the repo's previous address so
// clients reconnect without reconfiguration.
func (d *Deployment) startRepo(i int, addr string) error {
	srv, err := core.NewServer(core.ServerConfig{
		Credential:             d.repoHosts[i],
		Roots:                  d.Roots,
		Store:                  d.repoStores[i],
		AcceptedCredentials:    policy.NewACL("/C=US/O=Sim Grid/*"),
		AuthorizedRetrievers:   policy.NewACL("/C=US/O=Sim Grid/*"),
		AuthorizedRenewers:     policy.NewACL("/C=US/O=Sim Grid/*"),
		KDFIterations:          d.kdfIterations,
		DelegationKeyAlgorithm: d.keyAlg,
		DelegationKeyBits:      d.keyBits,
		KeySource:              d.keys,
		// A short drain makes KillRepo behave like a crash: in-flight
		// sessions are cut, which is exactly the fault failover must absorb.
		DrainTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	d.repoMu.Lock()
	d.Repos[i] = srv
	d.repoLns[i] = ln
	d.repoMu.Unlock()
	d.RepoAddrs[i] = ln.Addr().String()
	return nil
}

// Repo returns repository i's current server, safe against a concurrent
// KillRepo/RestartRepo.
func (d *Deployment) Repo(i int) *core.Server {
	d.repoMu.Lock()
	defer d.repoMu.Unlock()
	return d.Repos[i]
}

// KillRepo stops repository i like a host crash: the listener closes, and
// in-flight sessions are severed after a token drain. The repo's store and
// identity survive for RestartRepo.
func (d *Deployment) KillRepo(i int) {
	d.repoMu.Lock()
	srv, ln := d.Repos[i], d.repoLns[i]
	d.repoLns[i] = nil
	d.repoMu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if srv != nil {
		srv.Close()
	}
}

// RestartRepo brings a killed repository back on its previous address with
// its previous store — a reboot with the disk intact.
func (d *Deployment) RestartRepo(i int) error {
	return d.startRepo(i, d.RepoAddrs[i])
}

// PartitionRepo cuts (or, with false, restores) the network path to
// repository i: the process keeps running, but every new connection from the
// deployment's clients fails at connect time.
func (d *Deployment) PartitionRepo(i int, cut bool) {
	d.partMu.Lock()
	defer d.partMu.Unlock()
	if cut {
		d.partitioned[d.RepoAddrs[i]] = true
	} else {
		delete(d.partitioned, d.RepoAddrs[i])
	}
}

// dialContext is the deployment-wide client dialer; it enforces simulated
// partitions with faultnet's injected connect failure.
func (d *Deployment) dialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	d.partMu.Lock()
	cut := d.partitioned[addr]
	d.partMu.Unlock()
	if cut {
		return nil, fmt.Errorf("sim: partitioned %s: %w", addr, faultnet.ErrInjectedConnect)
	}
	var dialer net.Dialer
	return dialer.DialContext(ctx, network, addr)
}

// Close tears everything down.
func (d *Deployment) Close() {
	for _, ln := range d.listeners {
		ln.Close()
	}
	for _, c := range d.closers {
		c()
	}
	d.repoMu.Lock()
	repos := append([]*core.Server(nil), d.Repos...)
	lns := append([]net.Listener(nil), d.repoLns...)
	d.repoMu.Unlock()
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
	for _, srv := range repos {
		if srv != nil {
			srv.Close()
		}
	}
	if d.keys != nil {
		d.keys.Close()
	}
}

// Keys exposes the deployment-wide keypair pool (stocked at the
// deployment's KeyBits).
func (d *Deployment) Keys() *keypool.Pool { return d.keys }

// WarmKeys blocks until the pool holds at least n warm keys (or ctx
// expires). Benchmarks call it before their timed region so they measure
// the pooled hot path, not cold-start generation.
func (d *Deployment) WarmKeys(ctx context.Context, n int) error {
	for d.keys.Snapshot().Ready < n {
		select {
		case <-ctx.Done():
			return fmt.Errorf("sim: keypool warmed %d/%d keys: %w", d.keys.Snapshot().Ready, n, ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
	return nil
}

func (d *Deployment) client(key clientKey, cred *pki.Credential) *core.Client {
	d.clientsMu.Lock()
	defer d.clientsMu.Unlock()
	if c, ok := d.clients[key]; ok {
		return c
	}
	c := &core.Client{
		Credential:     cred,
		Roots:          d.Roots,
		Addr:           d.RepoAddrs[key.repo],
		ExpectedServer: "/C=US/O=Sim Grid/CN=myproxy*",
		KeyAlgorithm:   d.keyAlg,
		KeyBits:        d.keyBits,
		KeySource:      d.keys,
		DialContext:    d.dialContext,
	}
	d.clients[key] = c
	return c
}

// ClusterClient returns a memoized cluster client authenticating as portal p
// across ALL the deployment's repositories, with the configured replication
// factor. It shards usernames over the repos, replicates writes, and fails
// reads over — the client side of DESIGN.md §12.
func (d *Deployment) ClusterClient(p int) (*cluster.Client, error) {
	d.clientsMu.Lock()
	defer d.clientsMu.Unlock()
	if c, ok := d.clusterClients[p]; ok {
		return c, nil
	}
	c, err := cluster.New(d.clusterConfig(d.Portals[p]))
	if err != nil {
		return nil, err
	}
	d.clusterClients[p] = c
	return c, nil
}

// ClusterUserClient returns a cluster client authenticating as user u (for
// seeding deposits through the ring).
func (d *Deployment) ClusterUserClient(u int) (*cluster.Client, error) {
	return cluster.New(d.clusterConfig(d.Users[u]))
}

// clusterConfig is the deployment's cluster client configuration for cred.
func (d *Deployment) clusterConfig(cred *pki.Credential) cluster.Config {
	nodes := make([]cluster.NodeConfig, len(d.RepoAddrs))
	for i, addr := range d.RepoAddrs {
		nodes[i] = cluster.NodeConfig{ID: cluster.NodeID(fmt.Sprintf("repo%02d", i)), Addr: addr}
	}
	return cluster.Config{
		Nodes:             nodes,
		ReplicationFactor: d.replication,
		Probation:         d.probation,
		Credential:        cred,
		Roots:             d.Roots,
		ExpectedServer:    "/C=US/O=Sim Grid/CN=myproxy*",
		KeyAlgorithm:      d.keyAlg,
		KeyBits:           d.keyBits,
		KeySource:         d.keys,
		DialContext:       d.dialContext,
	}
}

// UserClient returns a repository client authenticating as user u against
// repository r. Clients are memoized so their TLS session and verification
// caches persist across calls.
func (d *Deployment) UserClient(u, r int) *core.Client {
	return d.client(clientKey{portal: false, id: u, repo: r}, d.Users[u])
}

// PortalClient returns a repository client authenticating as portal p
// against repository r. Clients are memoized so their TLS session and
// verification caches persist across calls.
func (d *Deployment) PortalClient(p, r int) *core.Client {
	return d.client(clientKey{portal: true, id: p, repo: r}, d.Portals[p])
}

// SeedCredentials runs myproxy-init for every user on every repository.
func (d *Deployment) SeedCredentials(ctx context.Context, lifetime time.Duration) error {
	if lifetime <= 0 {
		lifetime = 24 * time.Hour
	}
	for r := range d.Repos {
		for u := range d.Users {
			if err := d.UserClient(u, r).Put(ctx, core.PutOptions{
				Username:   d.UserNames[u],
				Passphrase: d.Passphrase,
				Lifetime:   lifetime,
			}); err != nil {
				return fmt.Errorf("sim: seed user %d repo %d: %w", u, r, err)
			}
		}
	}
	return nil
}

// Get performs one myproxy-get-delegation as portal p for user u against
// repository r (the Fig. 2 operation, the core unit of portal load).
func (d *Deployment) Get(ctx context.Context, p, u, r int, lifetime time.Duration) (*pki.Credential, error) {
	return d.PortalClient(p, r).Get(ctx, core.GetOptions{
		Username:   d.UserNames[u],
		Passphrase: d.Passphrase,
		Lifetime:   lifetime,
	})
}

// UserProxy creates a local short-term proxy for user u, as
// grid-proxy-init would (paper §2.5).
func (d *Deployment) UserProxy(u int, lifetime time.Duration) (*pki.Credential, error) {
	return proxy.New(d.Users[u], proxy.Options{Lifetime: lifetime, KeyAlgorithm: d.keyAlg, KeyBits: d.keyBits, KeySource: d.keys})
}

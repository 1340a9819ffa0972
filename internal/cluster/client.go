package cluster

import (
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/pki"
	"repro/internal/protocol"
	"repro/internal/proxy"
	"repro/internal/resilience"
)

// NodeConfig names one repository node and where to reach it.
type NodeConfig struct {
	ID   NodeID
	Addr string
}

// Config parameterizes a cluster Client.
type Config struct {
	// Nodes lists the cluster members. IDs default to the address when
	// empty, which is adequate as long as nodes never move hosts.
	Nodes []NodeConfig
	// ReplicationFactor is how many nodes hold each username's credentials
	// (0 selects DefaultReplicationFactor).
	ReplicationFactor int
	// WriteQuorum is the acknowledgements a mutation needs (0 selects a
	// majority of the replication factor).
	WriteQuorum int
	// VnodesPerNode tunes ring granularity (0 selects DefaultVnodes).
	VnodesPerNode int
	// Probation is how long a failed node is deprioritized before being
	// retried (0 selects DefaultProbation).
	Probation time.Duration

	// NewRepoClient, when non-nil, builds the per-node repository client
	// (tests and simulation inject fakes or pre-built clients here). nil
	// builds a *core.Client from the template fields below and holds one
	// multiplexed session to the node on it (core.Session).
	NewRepoClient func(node NodeConfig) core.Repository

	// Template fields for the default per-node core.Client; see the
	// matching fields on core.Client for semantics.
	Credential     *pki.Credential
	Roots          *x509.CertPool
	ExpectedServer string
	KeyAlgorithm   pki.KeyAlgorithm
	KeyBits        int
	KeySource      proxy.KeySource
	ProxyType      proxy.Type
	Timeout        time.Duration
	DialContext    func(ctx context.Context, network, addr string) (net.Conn, error)
	Retry          resilience.Policy
	Stats          *core.Stats
}

// DefaultReplicationFactor keeps every credential on two nodes: the smallest
// RF that survives a single node failure, and the paper's deployment sweet
// spot (a handful of repository hosts per virtual organization).
const DefaultReplicationFactor = 2

// Client is a sharded, replicated repository client: a drop-in
// core.Repository whose operations route to the username's replica set on a
// consistent-hash ring. Reads fail over between replicas; writes replicate
// to all of them under a quorum. It holds one multiplexed session per node
// (dialed by the first call routed there, re-dialed when it dies), so Close
// it when done. It is safe for concurrent use.
type Client struct {
	router *Router
	addrs  map[NodeID]string
	// clients is fixed at New: the node list does not change.
	clients map[NodeID]core.Repository
}

var _ core.Repository = (*Client)(nil)

// New builds a cluster client over cfg.Nodes.
func New(cfg Config) (*Client, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes configured")
	}
	if cfg.ReplicationFactor == 0 {
		cfg.ReplicationFactor = DefaultReplicationFactor
	}
	if cfg.ReplicationFactor < 1 {
		return nil, fmt.Errorf("cluster: replication factor %d < 1", cfg.ReplicationFactor)
	}
	ring := NewRing(cfg.VnodesPerNode)
	addrs := make(map[NodeID]string, len(cfg.Nodes))
	clients := make(map[NodeID]core.Repository, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		if n.ID == "" {
			n.ID = NodeID(n.Addr)
		}
		if _, dup := addrs[n.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate node id %q", n.ID)
		}
		addrs[n.ID] = n.Addr
		ring.Add(n.ID)
		clients[n.ID] = cfg.nodeClient(n, true)
	}
	return &Client{
		addrs: addrs,
		router: &Router{
			Ring:        ring,
			Health:      NewHealth(cfg.Probation),
			RF:          cfg.ReplicationFactor,
			WriteQuorum: cfg.WriteQuorum,
		},
		clients: clients,
	}, nil
}

// Close closes the node clients that hold something open — the sessions
// New built, and whatever NewRepoClient built that is an io.Closer.
func (c *Client) Close() error {
	var errs []error
	for _, cl := range c.clients {
		if closer, ok := cl.(io.Closer); ok {
			errs = append(errs, closer.Close())
		}
	}
	return errors.Join(errs...)
}

// Ring exposes the placement ring (admin tooling, tests).
func (c *Client) Ring() *Ring { return c.router.Ring }

// Replicas returns the replica set for username, primary first.
func (c *Client) Replicas(username string) []NodeID { return c.router.Replicas(username) }

// SplitAddrs parses a comma-separated address list, dropping empties.
func SplitAddrs(spec string) []string {
	var out []string
	for _, a := range strings.Split(spec, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Open returns the repository client for a comma-separated address list:
// one address is served by the plain per-exchange client, several by a
// cluster Client over them (cfg.Nodes is taken from the list). Every tool
// that accepts "host:port[,host:port...]" decides here.
func Open(spec string, cfg Config) (core.Repository, error) {
	addrs := SplitAddrs(spec)
	if len(addrs) < 2 {
		return cfg.nodeClient(NodeConfig{Addr: strings.Join(addrs, "")}, false), nil // the one address, or none
	}
	cfg.Nodes = make([]NodeConfig, len(addrs))
	for i, a := range addrs {
		cfg.Nodes[i] = NodeConfig{Addr: a}
	}
	return New(cfg)
}

// nodeClient builds the repository client for one node: NewRepoClient's, or
// a core.Client from the template fields — held: one multiplexed session on
// it, for a caller that stays; otherwise a connection per operation.
func (cfg *Config) nodeClient(n NodeConfig, held bool) core.Repository {
	if cfg.NewRepoClient != nil {
		return cfg.NewRepoClient(n)
	}
	c := &core.Client{
		Credential:     cfg.Credential,
		Roots:          cfg.Roots,
		Addr:           n.Addr,
		ExpectedServer: cfg.ExpectedServer,
		KeyAlgorithm:   cfg.KeyAlgorithm,
		KeyBits:        cfg.KeyBits,
		KeySource:      cfg.KeySource,
		ProxyType:      cfg.ProxyType,
		Timeout:        cfg.Timeout,
		DialContext:    cfg.DialContext,
		Retry:          cfg.Retry,
		Stats:          cfg.Stats,
	}
	if held {
		return c.Session()
	}
	return c
}

// Put delegates a proxy to every replica of opts.Username under the write
// quorum. Each replica performs its own delegation handshake, so the stored
// proxies are distinct certificates over the same identity and policy —
// semantically one credential, as required for failover.
func (c *Client) Put(ctx context.Context, opts core.PutOptions) error {
	return c.router.Write(ctx, opts.Username, protocol.CmdPut, func(ctx context.Context, node NodeID) error {
		return c.clients[node].Put(ctx, opts)
	})
}

// Get retrieves a delegation from the first reachable replica.
func (c *Client) Get(ctx context.Context, opts core.GetOptions) (*pki.Credential, error) {
	var cred *pki.Credential
	err := c.router.Read(ctx, opts.Username, func(ctx context.Context, node NodeID) error {
		var err error
		cred, err = c.clients[node].Get(ctx, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return cred, nil
}

// Info lists credentials from the first reachable replica.
func (c *Client) Info(ctx context.Context, username, passphrase string) ([]protocol.CredInfo, error) {
	var infos []protocol.CredInfo
	err := c.router.Read(ctx, username, func(ctx context.Context, node NodeID) error {
		var err error
		infos, err = c.clients[node].Info(ctx, username, passphrase)
		return err
	})
	if err != nil {
		return nil, err
	}
	return infos, nil
}

// Destroy removes the credential from every replica. DESTROY is not
// idempotent, so a partial quorum surfaces as plain ambiguity for the caller
// to inspect.
func (c *Client) Destroy(ctx context.Context, username, passphrase, credName string) error {
	return c.router.Write(ctx, username, protocol.CmdDestroy, func(ctx context.Context, node NodeID) error {
		return c.clients[node].Destroy(ctx, username, passphrase, credName)
	})
}

// ChangePassphrase re-seals the credential on every replica; like DESTROY, a
// partial commit is never replayed.
func (c *Client) ChangePassphrase(ctx context.Context, username, oldPass, newPass, credName string) error {
	return c.router.Write(ctx, username, protocol.CmdChangePassphrase, func(ctx context.Context, node NodeID) error {
		return c.clients[node].ChangePassphrase(ctx, username, oldPass, newPass, credName)
	})
}

// Store deposits a client-sealed credential on every replica.
func (c *Client) Store(ctx context.Context, opts core.StoreOptions) error {
	return c.router.Write(ctx, opts.Username, protocol.CmdStore, func(ctx context.Context, node NodeID) error {
		return c.clients[node].Store(ctx, opts)
	})
}

// Retrieve downloads a deposit from the first reachable replica.
func (c *Client) Retrieve(ctx context.Context, opts core.RetrieveOptions) (*pki.Credential, error) {
	var cred *pki.Credential
	err := c.router.Read(ctx, opts.Username, func(ctx context.Context, node NodeID) error {
		var err error
		cred, err = c.clients[node].Retrieve(ctx, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return cred, nil
}

// Nodes returns the configured members sorted by ID.
func (c *Client) Nodes() []NodeConfig {
	out := make([]NodeConfig, 0, len(c.addrs))
	for id, addr := range c.addrs {
		out = append(out, NodeConfig{ID: id, Addr: addr})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

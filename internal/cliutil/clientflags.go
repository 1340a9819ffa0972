package cliutil

import (
	"flag"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pki"
	"repro/internal/resilience"
)

// ClientFlags bundles the flags every myproxy-* client tool shares.
type ClientFlags struct {
	Server     *string
	Cred       *string
	CAFile     *string
	ServerDN   *string
	Username   *string
	TimeoutSec *int
	// Retries is the number of re-attempts after a transient failure
	// (0 disables retrying); RetryBackoff seeds the exponential backoff.
	Retries      *int
	RetryBackoff *time.Duration
	// Replication is the cluster replication factor when -s names several
	// nodes (0 selects the cluster default).
	Replication *int
	// KeyAlg names the delegation key algorithm (rsa-2048, ecdsa-p256,
	// ed25519); empty selects the paper-fidelity RSA default.
	KeyAlg *string
}

// RegisterClientFlags installs the shared client flags on fs. defaultCred
// is the tool's default credential path (the user proxy for myproxy-init,
// etc.).
func RegisterClientFlags(fs *flag.FlagSet, defaultCred string) *ClientFlags {
	return &ClientFlags{
		Server:       fs.String("s", "localhost:7512", "myproxy server address (host:port); a comma-separated list selects a replicated cluster"),
		Cred:         fs.String("cred", defaultCred, "credential file used to authenticate to the server"),
		CAFile:       fs.String("ca", "grid-ca/ca-cert.pem", "trusted CA certificate bundle"),
		ServerDN:     fs.String("serverdn", "*", "expected server identity (DN pattern)"),
		Username:     fs.String("l", "", "MyProxy user identity (required)"),
		TimeoutSec:   fs.Int("timeout", 30, "operation timeout in seconds"),
		Retries:      fs.Int("retries", 2, "retries after transient failures (0 disables)"),
		RetryBackoff: fs.Duration("retry-backoff", 200*time.Millisecond, "initial retry backoff (doubles per retry, jittered)"),
		Replication:  fs.Int("replication", 0, "replication factor for a clustered -s list (0 = cluster default)"),
		KeyAlg:       fs.String("key-alg", "rsa-2048", "delegation key algorithm (rsa-2048, ecdsa-p256, ed25519)"),
	}
}

// BuildClient loads the credential and roots and assembles the repository
// client. A single -s address builds the classic single-node client; a
// comma-separated list builds a cluster client that shards usernames across
// the nodes, replicates writes under a quorum, and fails reads over between
// replicas (DESIGN.md §12).
func (cf *ClientFlags) BuildClient(keyPrompt string) (core.Repository, error) {
	cred, err := LoadCredential(*cf.Cred, keyPrompt)
	if err != nil {
		return nil, err
	}
	roots, err := LoadRoots(*cf.CAFile)
	if err != nil {
		return nil, err
	}
	alg, err := pki.ParseKeyAlgorithm(*cf.KeyAlg)
	if err != nil {
		return nil, err
	}
	var retry resilience.Policy
	if *cf.Retries > 0 {
		retry = resilience.Policy{
			MaxAttempts: *cf.Retries + 1,
			BaseDelay:   *cf.RetryBackoff,
		}
	}
	return cluster.Open(*cf.Server, cluster.Config{
		ReplicationFactor: *cf.Replication,
		Credential:        cred,
		Roots:             roots,
		ExpectedServer:    *cf.ServerDN,
		KeyAlgorithm:      alg,
		Timeout:           time.Duration(*cf.TimeoutSec) * time.Second,
		Retry:             retry,
	})
}

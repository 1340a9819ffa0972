// Command myproxy-server runs the MyProxy online credential repository
// (paper §4): it accepts delegated credentials from users, holds them
// sealed under the user's pass phrase, and delegates short-lived proxies
// back to authorized clients such as Grid portals.
package main

import (
	"errors"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/credstore"
	"repro/internal/keypool"
	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/proxy"
)

func main() {
	listen := flag.String("listen", ":7512", "listen address (7512 is the MyProxy port)")
	credFile := flag.String("cred", "myproxy-host.pem", "repository host credential")
	caFile := flag.String("ca", "grid-ca/ca-cert.pem", "trusted CA certificate bundle")
	storeDir := flag.String("store", "myproxy-store", "credential store directory")
	backendSpec := flag.String("backend", "", "storage backend spec (\"mem\" or \"file:<dir>\"); overrides -store")
	acceptedFile := flag.String("accepted", "", "accepted_credentials ACL file (who may deposit); required")
	retrieversFile := flag.String("retrievers", "", "authorized_retrievers ACL file (who may retrieve); required")
	renewersFile := flag.String("renewers", "", "authorized_renewers ACL file (who may renew); optional")
	maxStoredHours := flag.Int("max-cred-hours", 168, "maximum stored credential lifetime (default one week, paper §4.3)")
	maxDelegHours := flag.Int("max-proxy-hours", 12, "maximum delegated proxy lifetime")
	minPass := flag.Int("min-passphrase", policy.DefaultMinPassphraseLength, "minimum pass phrase length")
	kdfIter := flag.Int("kdf-iter", pki.DefaultKDFIterations, "PBKDF2 iterations for sealing stored keys")
	legacyProxies := flag.Bool("legacy-proxies", false, "delegate legacy (CN=proxy) style proxies instead of RFC 3820")
	crlFile := flag.String("crl", "", "PEM CRL bundle; listed certificates are refused (optional)")
	maxConns := flag.Int("max-conns", 0, "maximum concurrent sessions (0 = unlimited)")
	msgTimeout := flag.Duration("message-timeout", 0, "per-message I/O deadline, evicts stalled peers (0 = session timeout)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight sessions on shutdown (0 = wait forever)")
	statsFile := flag.String("stats-file", "", "stats snapshot file for myproxy-admin stats (default <store>/server.stats)")
	keypoolSize := flag.Int("keypool", keypool.DefaultSize, "background keypair pool size for deposits (0 disables)")
	keyAlg := flag.String("key-alg", "rsa-2048", "key algorithm for server-generated deposit keys (rsa-2048, ecdsa-p256, ed25519)")
	sessionTimeout := flag.Duration("session-timeout", 0, "multiplexed session lifetime cap (0 = 5m)")
	noSessions := flag.Bool("no-sessions", false, "refuse multiplexed SESSION requests (legacy one-exchange mode)")
	flag.Parse()

	alg, err := pki.ParseKeyAlgorithm(*keyAlg)
	if err != nil {
		cliutil.Fatalf("myproxy-server: %v", err)
	}

	logger := log.New(os.Stderr, "myproxy-server: ", log.LstdFlags)

	cred, err := cliutil.LoadCredential(*credFile, "host key pass phrase")
	if err != nil {
		cliutil.Fatalf("myproxy-server: %v", err)
	}
	caCerts, roots, err := cliutil.LoadRootCerts(*caFile)
	if err != nil {
		cliutil.Fatalf("myproxy-server: %v", err)
	}
	loadACL := func(path, what string, required bool) *policy.ACL {
		if path == "" {
			if required {
				cliutil.Fatalf("myproxy-server: -%s is required (the repository is deny-by-default, paper §5.1)", what)
			}
			return policy.NewACL()
		}
		data, err := os.ReadFile(path)
		if err != nil {
			cliutil.Fatalf("myproxy-server: %v", err)
		}
		acl, err := policy.ParseACLFile(data)
		if err != nil {
			cliutil.Fatalf("myproxy-server: %s: %v", path, err)
		}
		return acl
	}
	accepted := loadACL(*acceptedFile, "accepted", true)
	retrievers := loadACL(*retrieversFile, "retrievers", true)
	renewers := loadACL(*renewersFile, "renewers", false)

	// -backend selects the storage engine; the default remains a file store
	// rooted at -store.
	spec := *backendSpec
	if spec == "" {
		spec = "file:" + *storeDir
	}
	store, err := credstore.Open(spec)
	if err != nil {
		cliutil.Fatalf("myproxy-server: %v", err)
	}

	cfg := core.ServerConfig{
		Credential:           cred,
		Roots:                roots,
		Store:                store,
		AcceptedCredentials:  accepted,
		AuthorizedRetrievers: retrievers,
		AuthorizedRenewers:   renewers,
		Passphrase:           policy.PassphrasePolicy{MinLength: *minPass},
		Lifetimes: policy.LifetimePolicy{
			MaxStored:    time.Duration(*maxStoredHours) * time.Hour,
			MaxDelegated: time.Duration(*maxDelegHours) * time.Hour,
		},
		KDFIterations:          *kdfIter,
		Logger:                 logger,
		MaxConcurrent:          *maxConns,
		MessageTimeout:         *msgTimeout,
		DrainTimeout:           *drainTimeout,
		StatsFile:              *statsFile,
		DelegationKeyAlgorithm: alg,
		SessionTimeout:         *sessionTimeout,
		DisableSessions:        *noSessions,
	}
	if cfg.StatsFile == "" {
		// Note: not a .json name — the store treats every *.json in its
		// directory as a credential entry.
		cfg.StatsFile = filepath.Join(*storeDir, "server.stats")
	}
	if *legacyProxies {
		cfg.DelegationProxyType = proxy.Legacy
	}
	if *keypoolSize > 0 {
		pool := keypool.New(*keypoolSize, 0, pki.KeySpec{Algorithm: alg})
		defer pool.Close()
		cfg.KeySource = pool
	}
	if *crlFile != "" {
		crls, err := pki.LoadCRLs(*crlFile)
		if err != nil {
			cliutil.Fatalf("myproxy-server: %v", err)
		}
		checker, err := pki.NewRevocationChecker(crls, caCerts, time.Now())
		if err != nil {
			cliutil.Fatalf("myproxy-server: %v", err)
		}
		cfg.IsRevoked = checker.IsRevoked
		logger.Printf("loaded CRL bundle %s (%d revocation(s))", *crlFile, checker.Count())
	}
	srv, err := core.NewServer(cfg)
	if err != nil {
		cliutil.Fatalf("myproxy-server: %v", err)
	}
	// SIGINT/SIGTERM trigger a graceful drain: stop accepting, let
	// in-flight delegations finish (bounded by -drain-timeout), flush stats.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		logger.Printf("received %v, draining", s)
		srv.Close()
	}()

	logger.Printf("repository %s listening on %s (store %s)", srv.Identity(), *listen, *storeDir)
	err = srv.ListenAndServe(*listen)
	if errors.Is(err, net.ErrClosed) {
		logger.Printf("drained, exiting")
		return
	}
	if err != nil {
		cliutil.Fatalf("myproxy-server: %v", err)
	}
}

// Package testpki provides shared, lazily built PKI fixtures for tests and
// benchmarks. RSA key generation dominates test runtime, so fixtures (CA,
// user credentials, host credentials, raw keys) are created once per process
// and reused; tests must treat them as read-only.
package testpki

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/pki"
)

var (
	mu    sync.Mutex
	ca    *pki.CA
	keys  []*rsa.PrivateKey
	users = map[string]*pki.Credential{}
	hosts = map[string]*pki.Credential{}
)

// BaseDN is the organizational prefix for all test identities.
var BaseDN = pki.MustParseDN("/C=US/O=Test Grid/OU=Testing")

// CA returns the shared test certificate authority.
func CA(t testing.TB) *pki.CA {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	if ca == nil {
		var err error
		ca, err = pki.NewCA(pki.CAConfig{
			Name: pki.MustParseDN("/C=US/O=Test Grid/CN=Test CA"),
			Key:  newKeyLocked(t),
		})
		if err != nil {
			t.Fatalf("testpki: create CA: %v", err)
		}
	}
	return ca
}

// Key returns the i-th shared RSA test key, generating it on first use.
// Distinct indexes return distinct keys.
func Key(t testing.TB, i int) *rsa.PrivateKey {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	for len(keys) <= i {
		keys = append(keys, newKeyLocked(t))
	}
	return keys[i]
}

func newKeyLocked(t testing.TB) *rsa.PrivateKey {
	t.Helper()
	k, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatalf("testpki: generate key: %v", err)
	}
	return k
}

// User returns a long-term user credential for /…/CN=name signed by the
// shared CA, cached per name, valid for one year.
func User(t testing.TB, name string) *pki.Credential {
	t.Helper()
	authority := CA(t)
	mu.Lock()
	defer mu.Unlock()
	if cred, ok := users[name]; ok {
		return cred
	}
	key := newKeyLocked(t)
	cert, err := authority.Issue(pki.IssueRequest{
		Subject:   BaseDN.WithCN(name),
		PublicKey: &key.PublicKey,
		Lifetime:  365 * 24 * time.Hour,
	})
	if err != nil {
		t.Fatalf("testpki: issue user %q: %v", name, err)
	}
	cred := &pki.Credential{Certificate: cert, PrivateKey: key}
	users[name] = cred
	return cred
}

// Host returns a host/service credential for the given hostname, cached per
// name, valid for one year. The DNS SAN covers hostname and "localhost".
func Host(t testing.TB, hostname string) *pki.Credential {
	t.Helper()
	authority := CA(t)
	mu.Lock()
	defer mu.Unlock()
	if cred, ok := hosts[hostname]; ok {
		return cred
	}
	key := newKeyLocked(t)
	cert, err := authority.Issue(pki.IssueRequest{
		Subject:   BaseDN.WithCN(hostname),
		PublicKey: &key.PublicKey,
		Lifetime:  365 * 24 * time.Hour,
		IsHost:    true,
		DNSNames:  []string{hostname, "localhost", "127.0.0.1"},
	})
	if err != nil {
		t.Fatalf("testpki: issue host %q: %v", hostname, err)
	}
	cred := &pki.Credential{Certificate: cert, PrivateKey: key}
	hosts[hostname] = cred
	return cred
}

// UniqueName returns a name unlikely to collide across test cases that need
// fresh identities within the shared CA namespace.
var nameCounter int

// FreshName returns "prefix-N" with a process-unique N.
func FreshName(prefix string) string {
	mu.Lock()
	defer mu.Unlock()
	nameCounter++
	return fmt.Sprintf("%s-%d", prefix, nameCounter)
}

// PoolOf builds a CertPool containing the given certificates.
func PoolOf(certs ...*x509.Certificate) *x509.CertPool {
	pool := x509.NewCertPool()
	for _, c := range certs {
		if c != nil {
			pool.AddCert(c)
		}
	}
	return pool
}

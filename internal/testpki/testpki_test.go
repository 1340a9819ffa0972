package testpki

import (
	"crypto/x509"
	"testing"
)

func TestPoolOf(t *testing.T) {
	ca := CA(t).Certificate()
	pool := PoolOf(ca, nil)
	if pool == nil {
		t.Fatal("nil pool")
	}
	// The pool must actually contain the certificate: a chain signed by
	// the CA verifies against it.
	user := User(t, "poolof-user")
	opts := x509.VerifyOptions{Roots: pool, KeyUsages: []x509.ExtKeyUsage{x509.ExtKeyUsageAny}}
	if _, err := user.Certificate.Verify(opts); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if empty := PoolOf(); empty == nil {
		t.Error("empty PoolOf returned nil")
	}
}

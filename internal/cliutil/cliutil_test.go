package cliutil

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pki"
	"repro/internal/testpki"
)

func TestLoadRoots(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ca.pem")
	if err := os.WriteFile(path, pki.EncodeCertPEM(testpki.CA(t).Certificate()), 0o644); err != nil {
		t.Fatal(err)
	}
	pool, err := LoadRoots(path)
	if err != nil || pool == nil {
		t.Fatalf("LoadRoots: %v", err)
	}
	if _, err := LoadRoots(filepath.Join(dir, "missing.pem")); err == nil {
		t.Error("missing file loaded")
	}
	bad := filepath.Join(dir, "bad.pem")
	os.WriteFile(bad, []byte("not pem"), 0o644)
	if _, err := LoadRoots(bad); err == nil {
		t.Error("garbage loaded as roots")
	}
}

func TestLoadCredentialPlain(t *testing.T) {
	cred := testpki.User(t, "cli-alice")
	dir := t.TempDir()
	path := filepath.Join(dir, "cred.pem")
	if err := cred.SaveCredential(path, nil); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCredential(path, "unused prompt")
	if err != nil {
		t.Fatalf("LoadCredential: %v", err)
	}
	if back.Subject() != cred.Subject() {
		t.Error("subject mismatch")
	}
}

func TestLoadCredentialEncryptedPrompts(t *testing.T) {
	cred := testpki.User(t, "cli-alice")
	dir := t.TempDir()
	path := filepath.Join(dir, "cred.pem")
	if err := cred.SaveCredential(path, []byte("prompted pass")); err != nil {
		t.Fatal(err)
	}
	SetPromptInput(strings.NewReader("prompted pass\n"))
	back, err := LoadCredential(path, "key pass phrase")
	if err != nil {
		t.Fatalf("LoadCredential (encrypted): %v", err)
	}
	if !pki.PublicKeysEqual(back.PrivateKey.Public(), cred.PrivateKey.Public()) {
		t.Error("key mismatch")
	}
	// Wrong pass phrase from the prompt fails.
	SetPromptInput(strings.NewReader("wrong\n"))
	if _, err := LoadCredential(path, "key pass phrase"); err == nil {
		t.Error("wrong prompted pass phrase accepted")
	}
}

func TestLoadCertKeySplitFiles(t *testing.T) {
	cred := testpki.User(t, "cli-alice")
	dir := t.TempDir()
	certPath := filepath.Join(dir, "cert.pem")
	keyPath := filepath.Join(dir, "key.pem")
	if err := os.WriteFile(certPath, pki.EncodeCertPEM(cred.Certificate), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyPath, pki.EncodeKeyPEM(cred.PrivateKey), 0o600); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCertKey(certPath, keyPath, "unused")
	if err != nil {
		t.Fatalf("LoadCertKey: %v", err)
	}
	if back.Subject() != cred.Subject() {
		t.Error("subject mismatch")
	}
	if _, err := LoadCertKey(certPath, filepath.Join(dir, "no.pem"), "x"); err == nil {
		t.Error("missing key file accepted")
	}
	if _, err := LoadCertKey(filepath.Join(dir, "no.pem"), keyPath, "x"); err == nil {
		t.Error("missing cert file accepted")
	}
}

func TestPromptNewPassphraseMismatch(t *testing.T) {
	SetPromptInput(strings.NewReader("first\nsecond\n"))
	if _, err := PromptNewPassphrase("p"); err == nil {
		t.Error("mismatched pass phrases accepted")
	}
	SetPromptInput(strings.NewReader("same pass\nsame pass\n"))
	got, err := PromptNewPassphrase("p")
	if err != nil || got != "same pass" {
		t.Errorf("got %q, %v", got, err)
	}
}

func TestDefaultPaths(t *testing.T) {
	if !strings.Contains(DefaultProxyPath(), "x509up_u") {
		t.Errorf("proxy path = %q", DefaultProxyPath())
	}
	if !strings.HasSuffix(DefaultUserCertPath(), filepath.Join(".globus", "usercert.pem")) {
		t.Errorf("cert path = %q", DefaultUserCertPath())
	}
	if !strings.HasSuffix(DefaultUserKeyPath(), filepath.Join(".globus", "userkey.pem")) {
		t.Errorf("key path = %q", DefaultUserKeyPath())
	}
}

func TestClientFlags(t *testing.T) {
	cred := testpki.User(t, "cli-alice")
	dir := t.TempDir()
	credPath := filepath.Join(dir, "cred.pem")
	if err := cred.SaveCredential(credPath, nil); err != nil {
		t.Fatal(err)
	}
	caPath := filepath.Join(dir, "ca.pem")
	if err := os.WriteFile(caPath, pki.EncodeCertPEM(testpki.CA(t).Certificate()), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cf := RegisterClientFlags(fs, credPath)
	if err := fs.Parse([]string{"-s", "example:7512", "-l", "jdoe", "-ca", caPath, "-timeout", "5"}); err != nil {
		t.Fatal(err)
	}
	repo, err := cf.BuildClient("unused")
	if err != nil {
		t.Fatalf("BuildClient: %v", err)
	}
	client, ok := repo.(*core.Client)
	if !ok {
		t.Fatalf("single -s address built %T, want *core.Client", repo)
	}
	if client.Addr != "example:7512" || client.Timeout != 5*time.Second {
		t.Errorf("client = %+v", client)
	}
	if *cf.Username != "jdoe" {
		t.Errorf("username = %q", *cf.Username)
	}
}

func TestClientFlagsClusterAddress(t *testing.T) {
	cred := testpki.User(t, "cli-alice")
	dir := t.TempDir()
	credPath := filepath.Join(dir, "cred.pem")
	if err := cred.SaveCredential(credPath, nil); err != nil {
		t.Fatal(err)
	}
	caPath := filepath.Join(dir, "ca.pem")
	if err := os.WriteFile(caPath, pki.EncodeCertPEM(testpki.CA(t).Certificate()), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cf := RegisterClientFlags(fs, credPath)
	if err := fs.Parse([]string{"-s", "a:7512, b:7512,c:7512", "-ca", caPath}); err != nil {
		t.Fatal(err)
	}
	if got := cluster.SplitAddrs(*cf.Server); len(got) != 3 || got[1] != "b:7512" {
		t.Fatalf("SplitAddrs = %v", got)
	}
	repo, err := cf.BuildClient("unused")
	if err != nil {
		t.Fatalf("BuildClient: %v", err)
	}
	cc, ok := repo.(*cluster.Client)
	if !ok {
		t.Fatalf("comma-separated -s built %T, want *cluster.Client", repo)
	}
	if got := cc.Nodes(); len(got) != 3 {
		t.Errorf("cluster nodes = %v, want 3", got)
	}
}

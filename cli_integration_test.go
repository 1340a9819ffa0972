package repro

import (
	"bytes"
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/httpgate"
	"repro/internal/pki"
)

// TestCLIEndToEnd exercises the command-line tools as a user would
// (paper §2.5, §4 and §6.1): create a CA and credentials with grid-ca, make
// a proxy with grid-proxy-init, run myproxy-server and, on the same store,
// myproxy-http-gateway; deposit with myproxy-init, retrieve with
// myproxy-get-delegation from a different identity and through the gateway,
// inspect with myproxy-info and grid-proxy-info, keep a long-term credential
// with myproxy-store and myproxy-retrieve, re-seal with
// myproxy-change-passphrase, and clean up with myproxy-destroy.
func TestCLIEndToEnd(t *testing.T) {
	c := newTools(t)

	// CA and credentials.
	c.run(t, "", "grid-ca", "init", "-dir", "ca", "-name", "/C=US/O=CLI Grid/CN=CLI CA", "-bits", "1024")
	c.run(t, "", "grid-ca", "user", "-dir", "ca", "-cn", "Alice CLI", "-out", "alice.pem", "-bits", "1024")
	c.run(t, "", "grid-ca", "host", "-dir", "ca", "-hostname", "localhost", "-out", "myproxy-host.pem", "-bits", "1024")
	c.run(t, "", "grid-ca", "host", "-dir", "ca", "-hostname", "portal.cli", "-out", "portal.pem", "-bits", "1024")
	if out := c.run(t, "", "grid-ca", "show", "-dir", "ca"); !strings.Contains(out, "CLI CA") {
		t.Fatalf("grid-ca show: %s", out)
	}

	// grid-proxy-init + grid-proxy-info.
	c.run(t, "", "grid-proxy-init", "-cred", "alice.pem", "-out", "alice-proxy.pem", "-hours", "4", "-bits", "1024")
	info := c.run(t, "", "grid-proxy-info", "-file", "alice-proxy.pem")
	if !strings.Contains(info, "identity : /C=US/O=CLI Grid/CN=Alice CLI") ||
		!strings.Contains(info, "RFC 3820 proxy") {
		t.Fatalf("grid-proxy-info:\n%s", info)
	}

	// ACL files.
	mustWrite(t, filepath.Join(c.work, "accepted"), "/C=US/O=CLI Grid/*\n")
	mustWrite(t, filepath.Join(c.work, "retrievers"), "\"/C=US/O=CLI Grid/CN=portal.cli\"\n")

	// The repository and the HTTP gateway on private ports, over one store.
	addr, gateway := freeAddr(t), freeAddr(t)
	repoFlags := []string{
		"-cred", "myproxy-host.pem",
		"-ca", filepath.Join("ca", "ca-cert.pem"),
		"-store", "store",
		"-accepted", "accepted",
		"-retrievers", "retrievers",
		"-kdf-iter", "1024",
	}
	c.serve(t, "myproxy-server", addr, repoFlags...)
	c.serve(t, "myproxy-http-gateway", gateway, append(repoFlags, "-keypool", "0")...)

	common := []string{"-s", addr, "-ca", filepath.Join("ca", "ca-cert.pem"), "-serverdn", "*/CN=localhost"}
	as := func(user, cred string, args ...string) []string {
		return append(append([]string{"-l", user, "-cred", cred}, args...), common...)
	}

	// myproxy-init as alice (pass phrase prompted twice).
	out := c.run(t, "cli pass phrase\ncli pass phrase\n", "myproxy-init", as("alice", "alice-proxy.pem", "-c", "24")...)
	if !strings.Contains(out, "now exists") {
		t.Fatalf("myproxy-init: %s", out)
	}

	// myproxy-info.
	out = c.run(t, "cli pass phrase\n", "myproxy-info", as("alice", "alice-proxy.pem")...)
	if !strings.Contains(out, "owner:      /C=US/O=CLI Grid/CN=Alice CLI") {
		t.Fatalf("myproxy-info: %s", out)
	}

	// myproxy-get-delegation as the portal.
	out = c.run(t, "cli pass phrase\n", "myproxy-get-delegation", as("alice", "portal.pem", "-o", "retrieved.pem", "-t", "1")...)
	if !strings.Contains(out, "A proxy has been received") {
		t.Fatalf("myproxy-get-delegation: %s", out)
	}
	info = c.run(t, "", "grid-proxy-info", "-file", "retrieved.pem")
	if !strings.Contains(info, "identity : /C=US/O=CLI Grid/CN=Alice CLI") ||
		!strings.Contains(info, "depth    : 3") {
		t.Fatalf("retrieved proxy info:\n%s", info)
	}

	// The gateway serves the credential myproxy-init deposited through
	// myproxy-server: INFO and GET over HTTPS+JSON, as the portal (§6.4).
	gw := gatewayClient(t, c, gateway, "portal.pem")
	ctx := context.Background()
	listed, err := gw.Info(ctx, "alice", "cli pass phrase")
	if err != nil {
		t.Fatalf("gateway INFO: %v", err)
	}
	if len(listed.Credentials) != 1 || listed.Credentials[0].Owner != "/C=US/O=CLI Grid/CN=Alice CLI" {
		t.Fatalf("gateway INFO: %+v", listed.Credentials)
	}
	got, err := gw.Get(ctx, httpgate.GetRequest{Username: "alice", Passphrase: "cli pass phrase", LifetimeSeconds: 3600})
	if err != nil {
		t.Fatalf("gateway GET: %v", err)
	}
	if subject := got.Subject(); !strings.HasPrefix(subject, "/C=US/O=CLI Grid/CN=Alice CLI/CN=") {
		t.Fatalf("gateway GET delegated a proxy of %s", subject)
	}

	// myproxy-store keeps alice's long-term credential (§6.1); the portal,
	// an authorized retriever, takes it back with myproxy-retrieve, which
	// seals the key on disk under the pass phrase.
	out = c.run(t, "store pass phrase\nstore pass phrase\n", "myproxy-store",
		as("alice", "alice-proxy.pem", "-k", "longterm", "-in", "alice.pem")...)
	if !strings.Contains(out, "stored for user alice") {
		t.Fatalf("myproxy-store: %s", out)
	}
	out = c.run(t, "store pass phrase\n", "myproxy-retrieve", as("alice", "portal.pem", "-k", "longterm", "-o", "longterm.pem")...)
	if !strings.Contains(out, "retrieved to longterm.pem") {
		t.Fatalf("myproxy-retrieve: %s", out)
	}
	info = c.run(t, "store pass phrase\n", "grid-proxy-info", "-file", "longterm.pem")
	if !strings.Contains(info, "identity : /C=US/O=CLI Grid/CN=Alice CLI") {
		t.Fatalf("retrieved credential info:\n%s", info)
	}

	// Wrong pass phrase is refused.
	c.refuse(t, "wrong pass\n", "myproxy-get-delegation", as("alice", "portal.pem", "-o", "nope.pem")...)

	// myproxy-change-passphrase: the old phrase stops working, the new one
	// delegates.
	out = c.run(t, "cli pass phrase\nnew cli phrase\nnew cli phrase\n", "myproxy-change-passphrase", as("alice", "alice-proxy.pem")...)
	if !strings.Contains(out, "Pass phrase changed") {
		t.Fatalf("myproxy-change-passphrase: %s", out)
	}
	c.refuse(t, "cli pass phrase\n", "myproxy-get-delegation", as("alice", "portal.pem", "-o", "nope.pem")...)
	c.run(t, "new cli phrase\n", "myproxy-get-delegation", as("alice", "portal.pem", "-o", "renewed.pem", "-t", "1")...)

	// myproxy-destroy, then retrieval fails.
	c.run(t, "new cli phrase\n", "myproxy-destroy", as("alice", "alice-proxy.pem")...)
	c.refuse(t, "new cli phrase\n", "myproxy-get-delegation", as("alice", "portal.pem", "-o", "nope.pem")...)
}

// TestEveryBinaryRunsInTier1 holds the tools README names to the tier-1
// tests: each cmd/ binary is launched by a root test, which is to say its
// name is a string argument of a call in a root _test.go file.
func TestEveryBinaryRunsInTier1(t *testing.T) {
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	launched := make(map[string]bool)
	fset := token.NewFileSet()
	for _, name := range files {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if s, err := strconv.Unquote(lit.Value); err == nil {
							launched[s] = true
						}
					}
				}
			}
			return true
		})
	}
	var idle []string
	for _, d := range dirs {
		if d.IsDir() && !launched[d.Name()] {
			idle = append(idle, d.Name())
		}
	}
	if len(idle) > 0 {
		t.Errorf("no root test launches %s: run each from builtBinaries in a tier-1 test", strings.Join(idle, ", "))
	}
}

// gatewayClient is an httpgate.Client for the gateway at addr, with the
// credential file cred from the work directory and the test CA as roots.
func gatewayClient(t *testing.T, c tools, addr, cred string) *httpgate.Client {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(c.work, cred))
	if err != nil {
		t.Fatal(err)
	}
	credential, err := pki.DecodeCredentialPEM(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	roots, err := cliutil.LoadRoots(filepath.Join(c.work, "ca", "ca-cert.pem"))
	if err != nil {
		t.Fatal(err)
	}
	return &httpgate.Client{
		Credential: credential,
		Roots:      roots,
		BaseURL:    "https://" + addr,
		ServerName: "localhost",
		KeyBits:    pki.DemoKeyBits,
	}
}

// tools runs the binaries builtBinaries compiled, in one work directory.
type tools struct{ bin, work string }

// newTools builds the binaries (once per test process) and gives t a fresh
// work directory; the CLI tests skip under -short.
func newTools(t *testing.T) tools {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the full CLI suite")
	}
	return tools{bin: builtBinaries(t), work: t.TempDir()}
}

// command prepares the binary name with args, run in the work directory
// with stdin (if any) as its input.
func (c tools) command(stdin, name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(c.bin, name), args...)
	cmd.Dir = c.work
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	return cmd
}

// run runs name to completion and returns its output; a nonzero exit
// fails t.
func (c tools) run(t *testing.T, stdin, name string, args ...string) string {
	t.Helper()
	out, err := c.command(stdin, name, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

// refuse runs name to completion and returns its output; a zero exit
// fails t.
func (c tools) refuse(t *testing.T, stdin, name string, args ...string) string {
	t.Helper()
	out, err := c.command(stdin, name, args...).CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v unexpectedly succeeded:\n%s", name, args, out)
	}
	return string(out)
}

// serve starts the daemon name listening on addr and waits until it
// accepts connections. The daemon is killed when t ends, and its log is
// shown if t failed.
func (c tools) serve(t *testing.T, name, addr string, args ...string) {
	t.Helper()
	cmd := c.command("", name, append([]string{"-listen", addr}, args...)...)
	var log bytes.Buffer
	cmd.Stderr = &log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
		if t.Failed() {
			t.Logf("%s log:\n%s", name, log.String())
		}
	})
	waitForListen(t, addr)
}

var (
	binOnce sync.Once
	binDir  string
	binErr  error
)

// TestMain removes what builtBinaries compiled (≈ 120 MB of binaries).
func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// builtBinaries compiles cmd/... once per test process.
func builtBinaries(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		binDir, binErr = os.MkdirTemp("", "repro-bin-")
		if binErr != nil {
			return
		}
		build := exec.Command("go", "build", "-o", binDir, "./cmd/...")
		build.Stderr = os.Stderr
		binErr = build.Run()
	})
	if binErr != nil {
		t.Fatalf("go build ./cmd/...: %v", binErr)
	}
	return binDir
}

func mustWrite(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitForListen(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal(fmt.Errorf("server never listened on %s", addr))
}

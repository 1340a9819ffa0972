package repro

import (
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestStatsCLIEndToEnd checks the operator loop for resilience counters:
// the server persists a stats snapshot on graceful shutdown (SIGTERM →
// drain → flush) and myproxy-admin stats renders it offline.
func TestStatsCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the full CLI suite")
	}
	bin := builtBinaries(t)
	work := t.TempDir()

	run := func(t *testing.T, stdin string, name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Dir = work
		if stdin != "" {
			cmd.Stdin = strings.NewReader(stdin)
		}
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	run(t, "", "grid-ca", "init", "-dir", "ca", "-name", "/C=US/O=Stats Grid/CN=Stats CA", "-bits", "1024")
	run(t, "", "grid-ca", "user", "-dir", "ca", "-cn", "Alice Stats", "-out", "alice.pem", "-bits", "1024")
	run(t, "", "grid-ca", "host", "-dir", "ca", "-hostname", "localhost", "-out", "myproxy-host.pem", "-bits", "1024")
	mustWrite(t, filepath.Join(work, "accepted"), "/C=US/O=Stats Grid/*\n")
	mustWrite(t, filepath.Join(work, "retrievers"), "/C=US/O=Stats Grid/*\n")

	// The snapshot lands beside the credentials whichever flag named their
	// directory: -store, or a file backend spec that overrides it.
	for _, tc := range []struct {
		name, dir string
		flags     []string
	}{
		{"store", "store", []string{"-store", "store"}},
		{"backend", "elsewhere", []string{"-backend", "file:elsewhere"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := freeAddr(t)
			server := exec.Command(filepath.Join(bin, "myproxy-server"), append([]string{
				"-listen", addr,
				"-cred", "myproxy-host.pem",
				"-ca", filepath.Join("ca", "ca-cert.pem"),
				"-accepted", "accepted",
				"-retrievers", "retrievers",
				"-kdf-iter", "1024",
				"-drain-timeout", "10s",
			}, tc.flags...)...)
			server.Dir = work
			if err := server.Start(); err != nil {
				t.Fatal(err)
			}
			killed := false
			defer func() {
				if !killed {
					server.Process.Kill()
					server.Wait()
				}
			}()
			waitForListen(t, addr)

			common := []string{"-s", addr, "-ca", filepath.Join("ca", "ca-cert.pem"), "-serverdn", "*/CN=localhost"}
			run(t, "stats pass phrase\nstats pass phrase\n", "myproxy-init",
				append([]string{"-l", "alice", "-cred", "alice.pem", "-c", "24"}, common...)...)

			// Graceful shutdown persists the final snapshot.
			if err := server.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- server.Wait() }()
			select {
			case err := <-done:
				killed = true
				if err != nil {
					t.Fatalf("server did not exit cleanly on SIGTERM: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("server did not drain after SIGTERM")
			}

			out := run(t, "", "myproxy-admin", "stats", "-store", tc.dir)
			for _, want := range []string{"stats written at", "puts", "connections", "retries", "timeouts", "drain_refusals"} {
				if !strings.Contains(out, want) {
					t.Fatalf("stats output missing %q:\n%s", want, out)
				}
			}
			// The one deposit is visible in the counters.
			found := false
			for _, line := range strings.Split(out, "\n") {
				fields := strings.Fields(line)
				if len(fields) == 2 && fields[0] == "puts" && fields[1] == "1" {
					found = true
				}
			}
			if !found {
				t.Fatalf("stats did not record the deposit:\n%s", out)
			}
		})
	}
}

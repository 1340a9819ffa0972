package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var killMatrixFlag = flag.Bool("killmatrix", false, "apply every kill-matrix mutation to a copy of the module and check its recorded catcher (minutes; `make lint` sets it)")

// The kill matrix decides which passes exist. Each row is one fixed edit
// that plants the defect a pass was written for at the real site in this
// repository, and records the cheapest thing that catches it: an existing
// test, else a pass, else nothing. A pass stays in the suite only while
// some row names it — i.e. the defect compiles, passes its package's tests
// and would merge without it. Rows recorded as "none" are the gaps, written
// down (DESIGN.md "Static-analysis gate" lists them).
//
// TestKillMatrix applies each row to one temp copy of the module and runs
// the copy's own `myproxy-vet -json ./...`; for a row whose catcher is a
// test it runs that test (for a "race" row under -race, and once more
// without it, which must pass: the defect is a data race no plain run can
// see), for a row whose catcher is a pass the mutated
// package's tests (which must still pass, or the pass is not the cheapest
// catcher). It fails when a recorded catcher no longer catches, when a pass
// starts firing on a row recorded as a gap, when a registered pass is no
// row's catcher, or — checked on every `go test`, without the flag — when a
// row's `old` text has drifted away from the file or its catcher is no
// longer a registered pass or a test function of the named package.

// edit replaces the single occurrence of old in file (module-relative).
type edit struct{ file, old, new string }

type mutation struct {
	n     int
	what  string
	edits []edit
	// caughtBy is "pass <name>", "test <package dir> <TestName>", "race
	// <package dir> <TestName>" (the test fails only under -race) or "none".
	caughtBy string
	// why explains a "none" row.
	why string
}

func one(file, old, new string) []edit { return []edit{{file, old, new}} }

var killMatrix = []mutation{
	{n: 1, what: "the audit function builds the escaped line and prints the raw event",
		edits: one("internal/core/config.go",
			`l.Print(line.String())`, `l.Print(event)`),
		caughtBy: "test internal/core TestAuditWritesOneLinePerEvent"},
	{n: 2, what: "the DESTROY refusal formats the pass phrase into the audit log",
		edits: one("internal/core/service.go",
			`"DESTROY %q/%q: bad pass phrase", req.Username, req.CredName)`,
			`"DESTROY %q/%q: bad pass phrase %s", req.Username, req.CredName, req.Passphrase)`),
		caughtBy: "pass logtaint"},
	{n: 3, what: "DESTROY no longer wipes its pass-phrase copy",
		edits: one("internal/core/service.go",
			"\tpassphrase := []byte(req.Passphrase)\n\tdefer pki.WipeBytes(passphrase)\n\tif err := entry.CheckPassphrase(passphrase); err != nil {\n\t\treturn s.refuse(VerdictBadPassphrase, peer, badPhraseMsg, \"DESTROY",
			"\tpassphrase := []byte(req.Passphrase)\n\tif err := entry.CheckPassphrase(passphrase); err != nil {\n\t\treturn s.refuse(VerdictBadPassphrase, peer, badPhraseMsg, \"DESTROY"),
		caughtBy: "none",
		why:      "zeroize tracks secret-typed results, not a []byte conversion of a request field; a Secret type that owns its wipe is ROADMAP 13(d)"},
	{n: 4, what: "the seal key derived from the pass phrase is not wiped",
		edits: one("internal/pki/encrypt.go",
			"\t\treturn nil, nil, fmt.Errorf(\"pki: salt: %w\", err)\n\t}\n\tkey := kdf.Key(passphrase, salt, iter, sealKeyLen, sha256.New)\n\tdefer WipeBytes(key) // the cipher keeps its own schedule; drop ours\n",
			"\t\treturn nil, nil, fmt.Errorf(\"pki: salt: %w\", err)\n\t}\n\tkey := kdf.Key(passphrase, salt, iter, sealKeyLen, sha256.New)\n"),
		caughtBy: "pass zeroize"},
	{n: 5, what: "the derived pass-phrase verifier is not wiped",
		edits: one("internal/credstore/store.go",
			"\tpki.WipeBytes(got) // the derived verifier is pass-phrase-equivalent\n", ""),
		caughtBy: "pass zeroize"},
	{n: 6, what: "the wallet keeps the on-disk credential image after decoding it",
		edits: one("internal/wallet/wallet.go",
			"\t\tpki.WipeBytes(credData) // decoded; drop the on-disk credential image\n", ""),
		caughtBy: "none",
		why:      "os.ReadFile's result carries no secret label; same follow-up as row 3"},
	{n: 7, what: "the command table calls DESTROY idempotent",
		edits: one("internal/protocol/protocol.go",
			"CmdDestroy:          false,", "CmdDestroy:          true,"),
		caughtBy: "test internal/cluster TestClientPartialWriteIsRetrySafeAmbiguous"},
	{n: 8, what: "the OTP response is compared with != on strings",
		edits: []edit{
			{"internal/otp/otp.go", "\t\"crypto/subtle\"\n", ""},
			{"internal/otp/otp.go", `subtle.ConstantTimeCompare(next[:], st.last[:]) != 1`, `string(next[:]) != string(st.last[:])`},
		},
		caughtBy: "pass consttime"},
	{n: 9, what: "a failed handshake leaves the raw connection open",
		edits: one("internal/gsi/conn.go",
			"\t\t\t_ = raw.Close() // already failing; close is best-effort\n", "\t\t\t_ = raw\n"),
		caughtBy: "test internal/gsi TestDialClosesTheTransportWhenThePeerIsNotTheExpectedOne"},
	{n: 10, what: "the handshake runs without its deadline",
		edits: one("internal/gsi/conn.go",
			"\tif err := tc.SetDeadline(time.Now().Add(orDefault(opts.HandshakeTimeout))); err != nil {\n\t\treturn nil, err\n\t}\n", ""),
		caughtBy: "test internal/gsi TestStalledHandshakeIsReleasedAfterTheTimeout"},
	{n: 11, what: "ReadFrame allocates whatever length the peer announces",
		edits: one("internal/gsi/framing.go",
			"\tif n > uint32(max) {\n\t\treturn nil, fmt.Errorf(\"%w: %d > %d\", ErrFrameTooLarge, n, max)\n\t}\n\tpayload := make([]byte, n)\n\tif _, err := io.ReadFull(r, payload); err != nil {\n\t\treturn nil, fmt.Errorf(\"gsi: read frame body",
			"\tpayload := make([]byte, n)\n\tif _, err := io.ReadFull(r, payload); err != nil {\n\t\treturn nil, fmt.Errorf(\"gsi: read frame body"),
		caughtBy: "test internal/gsi TestReadFrameTooLarge"},
	{n: 12, what: "FileStore.path joins the raw wire username and credential name",
		edits: one("internal/credstore/filestore.go",
			`filepath.Join(s.dir, ownerPrefix(username)+sha256sum(name)[:nameHashLen]+".json")`,
			`filepath.Join(s.dir, username+"-"+name+".json")`),
		caughtBy: "test internal/credstore TestConformanceListOrderAndIsolation"},
	{n: 13, what: "RSA keys are generated from a math/rand source",
		edits: []edit{
			{"internal/pki/keys.go", "\t\"crypto/rand\"\n", "\t\"crypto/rand\"\n\tmrand \"math/rand\"\n"},
			{"internal/pki/keys.go", `rsa.GenerateKey(rand.Reader, bits)`, `rsa.GenerateKey(mrand.New(mrand.NewSource(1)), bits)`},
		},
		caughtBy: "pass weakrand"},
	{n: 14, what: "the client flattens the final confirmation's read error with %v, losing its retry class",
		edits: one("internal/core/client.go",
			`fmt.Errorf("core: read final response: %w", err)`, `fmt.Errorf("core: read final response: %v", err)`),
		caughtBy: "pass errwrap"},
	{n: 15, what: "Sessions.Len reads the table without its lock",
		edits: one("internal/portal/session.go",
			"func (s *Sessions) Len() int {\n\ts.mu.Lock()\n\tdefer s.mu.Unlock()\n", "func (s *Sessions) Len() int {\n"),
		caughtBy: "race internal/portal TestSessionsLenUnderConcurrentCreate"},
	{n: 16, what: "Sessions.Len returns with the lock held",
		edits: one("internal/portal/session.go",
			"func (s *Sessions) Len() int {\n\ts.mu.Lock()\n\tdefer s.mu.Unlock()\n", "func (s *Sessions) Len() int {\n\ts.mu.Lock()\n"),
		caughtBy: "test internal/portal TestSessionsLenUnderConcurrentCreate"},
	{n: 17, what: "the HTTP gateway forgets VerdictConflict",
		edits: one("internal/httpgate/httpgate.go",
			"\tcase core.VerdictConflict:\n\t\tstatus = http.StatusConflict\n", ""),
		caughtBy: "test internal/httpgate TestSharedStoreBetweenFrontends"},
	{n: 18, what: "Router.Write's fan-out goroutine never calls Done",
		edits: one("internal/cluster/router.go",
			"\t\t\tdefer wg.Done()\n\t\t\terrs[i] = op(ctx, node)\n", "\t\t\terrs[i] = op(ctx, node)\n"),
		caughtBy: "test internal/cluster TestClientWriteReplicatesToAllReplicas"},
	{n: 19, what: "Router.Write calls wg.Add inside the goroutine",
		edits: one("internal/cluster/router.go",
			"\t\twg.Add(1)\n\t\tgo func(i int, node NodeID) {\n\t\t\tdefer wg.Done()\n", "\t\tgo func(i int, node NodeID) {\n\t\t\twg.Add(1)\n\t\t\tdefer wg.Done()\n"),
		caughtBy: "test internal/cluster TestClientWriteReplicatesToAllReplicas"},
	{n: 20, what: "the portal download formats Content-Disposition itself, quoting the stored name with %q",
		edits: []edit{
			{"internal/portal/portal.go", "\t\"mime\"\n", ""},
			{"internal/portal/portal.go", `mime.FormatMediaType("attachment", map[string]string{"filename": name})`, `fmt.Sprintf("attachment; filename=%q", name)`},
		},
		caughtBy: "test internal/portal TestFileDownloadNamesRoundTrip"},
	{n: 21, what: "ReadFrame gains one fmt.Sprintf per frame",
		edits: one("internal/gsi/framing.go",
			"\tvar hdr [4]byte\n\tif _, err := io.ReadFull(r, hdr[:]); err != nil {\n\t\treturn nil, err\n\t}\n\tn := binary.BigEndian.Uint32(hdr[:])\n\tif n > uint32(max) {",
			"\tvar hdr [4]byte\n\tif _, err := io.ReadFull(r, hdr[:]); err != nil {\n\t\treturn nil, err\n\t}\n\t_ = fmt.Sprintf(\"frame max %d\", max)\n\tn := binary.BigEndian.Uint32(hdr[:])\n\tif n > uint32(max) {"),
		caughtBy: "test internal/gsi TestOversizedPrefixRejectedBeforeAllocation"},
	{n: 22, what: "the entry temp file's Close error is dropped behind a defer",
		edits: one("internal/credstore/filestore.go",
			"\t\treturn fmt.Errorf(\"credstore: sync entry: %w\", err)\n\t}\n\treturn tmp.Close()\n",
			"\t\treturn fmt.Errorf(\"credstore: sync entry: %w\", err)\n\t}\n\tdefer tmp.Close()\n\treturn nil\n"),
		caughtBy: "none",
		why:      "the data is already fsynced when Close runs, so no test can observe the dropped error without a failing file system"},
	{n: 23, what: "the fallback key generator sends on an unbuffered channel nobody may read",
		edits: one("internal/keypool/keypool.go",
			"\tch := make(chan result, 1)\n", "\tch := make(chan result)\n"),
		caughtBy: "test internal/keypool TestCancelledFallbackGeneratorExits"},
	{n: 24, what: "the client's INFO reads the response before looking at the error",
		edits: one("internal/core/client.go",
			"\t}, \"\")\n\tif err != nil {\n\t\treturn nil, err\n\t}\n\treturn resp.Infos, nil\n",
			"\t}, \"\")\n\treturn resp.Infos, err\n"),
		caughtBy: "test internal/core TestInfoFromAVanishingRepositoryIsAnError"},
	{n: 25, what: "the session's unseal cache hashes the sealed key under its mutex",
		edits: one("internal/core/handlers.go",
			"\tk := unsealKey(e, passphrase)\n\tc.mu.Lock()\n\tdefer c.mu.Unlock()\n\treturn c.m[k]\n",
			"\tc.mu.Lock()\n\tdefer c.mu.Unlock()\n\treturn c.m[unsealKey(e, passphrase)]\n"),
		caughtBy: "pass hotblock"},
	{n: 26, what: "the unseal-cache key is hashed from a string copy of the pass phrase",
		edits: one("internal/core/handlers.go",
			"\th.Write(e.SealedKey)\n\th.Write([]byte{0})\n\th.Write(passphrase)\n",
			"\th.Write([]byte(string(e.SealedKey) + \"\\x00\" + string(passphrase)))\n"),
		caughtBy: "pass secretescape"},
	{n: 27, what: "the GSI TLS configuration lets crypto/tls verify the client chain",
		edits: one("internal/gsi/conn.go",
			"ClientAuth:         tls.RequireAnyClientCert,", "ClientAuth:         tls.RequireAndVerifyClientCert,"),
		caughtBy: "test internal/gsi TestProxyCredentialAuthenticatesAsUser"},
	{n: 28, what: "the command table calls CHANGE_PASSPHRASE idempotent",
		edits: one("internal/protocol/protocol.go",
			"CmdChangePassphrase: false,", "CmdChangePassphrase: true,"),
		caughtBy: "test internal/protocol TestCommandIdempotenceTable"},
	{n: 29, what: "a tenth VerdictKind is declared and the gateway's status switch does not know it",
		edits: one("internal/core/service.go",
			"\tVerdictInternal                             // the repository or the transport failed\n",
			"\tVerdictInternal                             // the repository or the transport failed\n\tVerdictThrottled                            // the peer is over its request budget\n"),
		caughtBy: "test internal/httpgate TestRefuseMapsEveryVerdictKind"},
	{n: 30, what: "the stretched key the pass-phrase verifier is derived from is not wiped",
		edits: one("internal/pki/encrypt.go",
			"\tWipeBytes(key) // K opens the container; only its one-way image leaves\n", ""),
		caughtBy: "pass zeroize"},
	// Rows 31-35 plant the defects of the deleted guardedby, lockcheck,
	// goroleak, nilness and verdict passes at a second site where each pass
	// fired, to show that a test, not the pass, was the cheapest catcher
	// beyond its birthplace too.
	{n: 31, what: "a handler's exit takes its connection out of the drain set without the lock",
		edits: one("internal/gsi/acceptor.go",
			"\t\ta.mu.Lock()\n\t\tdelete(a.active, raw)\n\t\ta.mu.Unlock()\n", "\t\tdelete(a.active, raw)\n"),
		caughtBy: "race internal/gsi TestDrainTimeoutForceClosesAndReports"},
	{n: 32, what: "Health.Suspect returns with the lock held",
		edits: one("internal/cluster/health.go",
			"func (h *Health) Suspect(node NodeID) bool {\n\th.mu.Lock()\n\tdefer h.mu.Unlock()\n",
			"func (h *Health) Suspect(node NodeID) bool {\n\th.mu.Lock()\n"),
		caughtBy: "test internal/cluster TestHealthProbationExpiresAndHeals"},
	{n: 33, what: "the server's purge and stats loops never end",
		edits: one("internal/core/server.go",
			"\t\tcase <-s.acceptor.Done():\n\t\t\treturn\n", "\t\tcase <-s.acceptor.Done():\n"),
		caughtBy: "test internal/core TestServerBackgroundLoopsEndOnClose"},
	{n: 34, what: "the client's RETRIEVE opens the blob before looking at the error",
		edits: one("internal/core/client.go",
			"\t\tOTP:        opts.OTP,\n\t}, \"\")\n\tif err != nil {\n\t\treturn nil, err\n\t}\n\tplain, err := pki.OpenBytes(resp.Blob,",
			"\t\tOTP:        opts.OTP,\n\t}, \"\")\n\tplain, err := pki.OpenBytes(resp.Blob,"),
		caughtBy: "test internal/core TestOTPGatesRetrieve"},
	{n: 35, what: "KeySpec.Normalize forgets Ed25519, which keeps the Bits it was spelled with",
		edits: one("internal/pki/keys.go",
			"\tcase AlgECDSAP256, AlgEd25519:\n\t\ts.Bits = 0\n\tdefault:\n\t\ts.Bits = 0\n",
			"\tcase AlgECDSAP256:\n\t\ts.Bits = 0\n"),
		caughtBy: "test internal/pki TestNormalizeDropsBitsFromFixedStrengthAlgorithms"},
}

func TestKillMatrix(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	// Cheap enough for every `go test`: each row still applies to the tree
	// and its catcher still exists under the recorded name.
	for _, m := range killMatrix {
		if _, err := mutate(root, m); err != nil {
			t.Errorf("row %d: %v", m.n, err)
		}
		if err := catcherExists(root, m.caughtBy); err != nil {
			t.Errorf("row %d: %v", m.n, err)
		}
	}
	if t.Failed() {
		return
	}
	if !*killMatrixFlag {
		t.Log("rows apply; mutations not run (-killmatrix, set by `make lint`, runs them)")
		return
	}
	work := t.TempDir()
	copyModule(t, root, work)
	if fired := firingPasses(t, work); len(fired) > 0 {
		t.Fatalf("the unmutated tree has findings from %v: `myproxy-vet ./...` must be clean first", keys(fired))
	}

	for _, m := range killMatrix {
		mutated, err := mutate(work, m)
		if err != nil {
			t.Fatalf("row %d: %v", m.n, err)
		}
		original := make(map[string][]byte, len(mutated))
		for file, data := range mutated {
			if original[file], err = os.ReadFile(file); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		fired := firingPasses(t, work)
		kind, arg, _ := strings.Cut(m.caughtBy, " ")
		caught := ""
		switch kind {
		case "pass":
			if !fired[arg] {
				t.Errorf("row %d (%s): %s no longer fires (fired: %v)", m.n, m.what, arg, keys(fired))
			}
			pkg := filepath.ToSlash(filepath.Dir(m.edits[0].file))
			if out, failed := runTest(work, pkg, ".*", false); failed {
				t.Errorf("row %d (%s): %s's own tests catch it now, cheaper than %s: record the test\n%s", m.n, m.what, pkg, arg, out)
			}
		case "test", "race":
			pkg, name, _ := strings.Cut(arg, " ")
			out, failed := runTest(work, pkg, name, kind == "race")
			if !failed {
				t.Errorf("row %d (%s): %s %s still passes:\n%s", m.n, m.what, pkg, name, out)
			}
			caught = firstFailure(out)
			if kind == "race" {
				if out, failed := runTest(work, pkg, name, false); failed {
					t.Errorf("row %d (%s): %s %s fails without -race too, which is cheaper: record it as a test\n%s", m.n, m.what, pkg, name, out)
				}
			}
		case "none":
			if m.why == "" {
				t.Errorf("row %d: a gap needs its reason", m.n)
			}
			if len(fired) > 0 {
				t.Errorf("row %d (%s) is recorded as %q but %v fires now: record it", m.n, m.what, m.caughtBy, keys(fired))
			}
		default:
			t.Errorf("row %d: unknown catcher %q", m.n, m.caughtBy)
		}
		t.Logf("row %2d: caught by %-70s passes firing: %v %s", m.n, m.caughtBy, keys(fired), caught)
		for file, data := range original {
			if err := os.WriteFile(file, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The rule itself: every registered pass is some row's cheapest catcher.
	named := make(map[string]bool)
	for _, m := range killMatrix {
		if pass, ok := strings.CutPrefix(m.caughtBy, "pass "); ok {
			named[pass] = true
		}
	}
	for _, p := range Passes {
		if !named[p.Name] {
			t.Errorf("pass %s is no row's catcher: add the row it alone catches or delete it", p.Name)
		}
	}
}

// catcherExists checks a recorded catcher by name: a registered pass, or a
// test function declared in the named package directory. A renamed test or
// a deleted pass fails here, on every `go test`, not only under -killmatrix.
func catcherExists(root, caughtBy string) error {
	kind, arg, _ := strings.Cut(caughtBy, " ")
	switch kind {
	case "pass":
		for _, p := range Passes {
			if p.Name == arg {
				return nil
			}
		}
		return fmt.Errorf("catcher %q is not a registered pass", caughtBy)
	case "test", "race":
		pkg, name, _ := strings.Cut(arg, " ")
		files, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(pkg), "*_test.go"))
		if err != nil {
			return err
		}
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				return err
			}
			if bytes.Contains(data, []byte("\nfunc "+name+"(")) {
				return nil
			}
		}
		return fmt.Errorf("catcher %q: no func %s( in %s/*_test.go", caughtBy, name, pkg)
	}
	return nil // "none" and unknown kinds are the slow half's to judge
}

// copyModule copies the module's files, skipping dot-directories.
func copyModule(t *testing.T, root, dst string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && rel != "." {
				return fs.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy module: %v", err)
	}
}

// mutate returns the contents of the files a row touches, after its edits.
func mutate(root string, m mutation) (map[string][]byte, error) {
	out := make(map[string][]byte)
	for _, e := range m.edits {
		file := filepath.Join(root, filepath.FromSlash(e.file))
		data, ok := out[file]
		if !ok {
			var err error
			if data, err = os.ReadFile(file); err != nil {
				return nil, err
			}
		}
		if c := bytes.Count(data, []byte(e.old)); c != 1 {
			return nil, fmt.Errorf("%q occurs %d times in %s, want exactly 1: the row has drifted from the code", e.old, c, e.file)
		}
		out[file] = bytes.Replace(data, []byte(e.old), []byte(e.new), 1)
	}
	return out, nil
}

// firingPasses runs the copy's analyzer over the copy and names the passes
// with an unsuppressed finding.
func firingPasses(t *testing.T, work string) map[string]bool {
	t.Helper()
	cmd := exec.Command("go", "run", "./cmd/myproxy-vet", "-json", "./...")
	cmd.Dir = work
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1 && len(out) > 0) {
		t.Fatalf("myproxy-vet on the mutated copy (does the mutation compile?): %v\n%s", err, stderr.String())
	}
	var rep struct {
		Findings []Diagnostic `json:"findings"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("decode myproxy-vet -json: %v\n%s", err, out)
	}
	fired := make(map[string]bool)
	for _, d := range rep.Findings {
		fired[d.Pass] = true
	}
	return fired
}

func runTest(work, pkg, name string, race bool) (string, bool) {
	args := []string{"test", "-count=1", "-timeout=60s"}
	if race {
		args = append(args, "-race")
	}
	args = append(args, "-run", "^"+name+"$", "./"+pkg)
	cmd := exec.Command("go", args...)
	cmd.Dir = work
	out, err := cmd.CombinedOutput()
	return string(out), err != nil
}

// firstFailure picks the line of a failed test run that says how it failed,
// for the -killmatrix log.
func firstFailure(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "--- FAIL") || strings.HasPrefix(line, "panic:") || strings.Contains(line, "DATA RACE") {
			return "(" + strings.TrimSpace(line) + ")"
		}
	}
	return ""
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

package repro

import (
	"bytes"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var killMatrixFlag = flag.Bool("killmatrix", false, "apply every kill-matrix mutation to a copy of the module and run its recorded catcher (minutes; `make killmatrix` sets it)")

// The kill matrix is a mutation harness. Each row is one fixed edit that
// plants a defect at a real site of this repository, and records the test
// that catches it. A row recorded as "none" is a gap, written down with its
// reason; a "retired" row names a defect the code can no longer express.
//
// On every `go test`, TestKillMatrix checks that each row's `old` text
// still occurs exactly once and that its catcher is still a test function
// of the named package, so a drifted row or a renamed test fails tier-1.
// Under -killmatrix it copies the module once and, row by row, applies the
// edit and runs the catcher, which must fail. A "race" catcher runs under
// -race, and once more without it, which must pass: the defect is a data
// race no plain run can see. A gap's edit must still build.

// edit replaces the single occurrence of old in file (module-relative).
type edit struct{ file, old, new string }

type mutation struct {
	n     int
	what  string
	edits []edit
	// caughtBy is "test <package dir> <TestName>", "race <package dir>
	// <TestName>" (the test fails only under -race), "none" or "retired".
	caughtBy string
	// why explains a "none" or "retired" row.
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
		caughtBy: "test internal/httpgate TestSharedStoreBetweenFrontends"},
	{n: 3, what: "DESTROY no longer wipes its pass-phrase copy",
		edits: one("internal/core/service.go",
			"\tpassphrase := pki.Transient([]byte(req.Passphrase))\n\tdefer pki.WipeBytes(passphrase)\n\tif err := entry.CheckPassphrase(passphrase); err != nil {\n\t\treturn s.refuse(VerdictBadPassphrase, peer, badPhraseMsg, \"DESTROY",
			"\tpassphrase := pki.Transient([]byte(req.Passphrase))\n\tif err := entry.CheckPassphrase(passphrase); err != nil {\n\t\treturn s.refuse(VerdictBadPassphrase, peer, badPhraseMsg, \"DESTROY"),
		caughtBy: "test internal/httpgate TestSharedStoreBetweenFrontends"},
	{n: 4, what: "the seal key derived from the pass phrase is not wiped",
		edits: one("internal/pki/encrypt.go",
			"\t\treturn nil, nil, fmt.Errorf(\"pki: salt: %w\", err)\n\t}\n\tkey := Transient(kdf.Key(passphrase, salt, iter, sealKeyLen, sha256.New))\n\tdefer WipeBytes(key) // the cipher keeps its own schedule; drop ours\n",
			"\t\treturn nil, nil, fmt.Errorf(\"pki: salt: %w\", err)\n\t}\n\tkey := Transient(kdf.Key(passphrase, salt, iter, sealKeyLen, sha256.New))\n"),
		caughtBy: "test internal/httpgate TestSharedStoreBetweenFrontends"},
	{n: 5, what: "the derived pass-phrase verifier is not wiped",
		edits: one("internal/credstore/store.go",
			"\tpki.WipeBytes(got) // the derived verifier is pass-phrase-equivalent\n", ""),
		caughtBy: "test internal/httpgate TestSharedStoreBetweenFrontends"},
	{n: 6, what: "RETRIEVE keeps the unsealed credential PEM after decoding it",
		edits: one("internal/core/client.go",
			"\tpki.WipeBytes(plain) // decoded into cred; drop the plaintext PEM\n", ""),
		caughtBy: "test internal/httpgate TestSharedStoreBetweenFrontends"},
	{n: 7, what: "the command table calls DESTROY idempotent",
		edits: one("internal/protocol/protocol.go",
			"CmdDestroy:          false,", "CmdDestroy:          true,"),
		caughtBy: "test internal/cluster TestClientPartialWriteIsRetrySafeAmbiguous"},
	{n: 8, what: "the OTP response is compared with != on strings",
		edits: []edit{
			{"internal/otp/otp.go", "\t\"crypto/subtle\"\n", ""},
			{"internal/otp/otp.go", `subtle.ConstantTimeCompare(next[:], st.last[:]) != 1`, `string(next[:]) != string(st.last[:])`},
		},
		caughtBy: "test . TestSecretsCompareInConstantTime"},
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
		caughtBy: "test . TestMathRandOnlyWhereAllowed"},
	{n: 14, what: "the client flattens the final confirmation's read error with %v, losing its retry class",
		edits: one("internal/core/client.go",
			`fmt.Errorf("core: read final response: %w", err)`, `fmt.Errorf("core: read final response: %v", err)`),
		caughtBy: "test internal/core TestPutFinalResponseCutKeepsTheTransportError"},
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
		caughtBy: "retired",
		why:      "lookup and add take the key Service.Get hashed once, outside the mutex; the defect can no longer be written in place"},
	{n: 26, what: "the unseal-cache key is hashed from a string copy of the pass phrase",
		edits: one("internal/core/handlers.go",
			"\th.Write(e.SealedKey)\n\th.Write([]byte{0})\n\th.Write(passphrase)\n",
			"\th.Write([]byte(string(e.SealedKey) + \"\\x00\" + string(passphrase)))\n"),
		caughtBy: "test internal/core TestUnsealKeyDoesNotAllocate"},
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
		caughtBy: "test internal/httpgate TestSharedStoreBetweenFrontends"},
	// Rows 31-35 plant the defects of the analyzer passes guardedby,
	// lockcheck, goroleak, nilness and verdict at a second site where each
	// pass fired: a test caught every one, and the passes were deleted.
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
	for _, m := range killMatrix {
		if _, err := mutate(".", m); err != nil {
			t.Errorf("row %d: %v", m.n, err)
		}
		if err := catcherExists(m); err != nil {
			t.Errorf("row %d: %v", m.n, err)
		}
	}
	if t.Failed() {
		return
	}
	if !*killMatrixFlag {
		t.Log("rows apply; mutations not run (-killmatrix, set by `make killmatrix`, runs them)")
		return
	}
	work := t.TempDir()
	copyModule(t, ".", work)
	for _, m := range killMatrix {
		if m.caughtBy == "retired" {
			continue
		}
		t.Run(fmt.Sprintf("row %d", m.n), func(t *testing.T) {
			mutated, err := mutate(work, m)
			if err != nil {
				t.Fatal(err)
			}
			for file, data := range mutated {
				original, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(file, data, 0o644); err != nil {
					t.Fatal(err)
				}
				defer os.WriteFile(file, original, 0o644)
			}
			kind, arg, _ := strings.Cut(m.caughtBy, " ")
			pkg, name, _ := strings.Cut(arg, " ")
			if kind == "none" {
				if out, err := goIn(work, "build", "./"+filepath.Dir(m.edits[0].file)); err != nil {
					t.Errorf("%s: the gap's edit does not build:\n%s", m.what, out)
				}
				return
			}
			out, err := goIn(work, "test", "-count=1", "-timeout=120s", "-race="+fmt.Sprint(kind == "race"), "-run", "^"+name+"$", "./"+pkg)
			if err == nil {
				t.Fatalf("%s: %s %s still passes:\n%s", m.what, pkg, name, out)
			}
			caught := firstFailure(out)
			if caught == "" {
				t.Fatalf("%s: %s %s failed, but no test did (does the edit build?):\n%s", m.what, pkg, name, out)
			}
			if kind == "race" {
				if out, err := goIn(work, "test", "-count=1", "-timeout=120s", "-run", "^"+name+"$", "./"+pkg); err != nil {
					t.Errorf("%s: %s %s fails without -race too, which is cheaper: record it as a test\n%s", m.what, pkg, name, out)
				}
			}
			t.Logf("caught by %s (%s)", m.caughtBy, caught)
		})
	}
}

// catcherExists checks a row's record: a gap or a retired row states its
// reason; a catcher is a test function declared in the named package
// directory.
func catcherExists(m mutation) error {
	kind, arg, _ := strings.Cut(m.caughtBy, " ")
	switch kind {
	case "none", "retired":
		if m.why == "" {
			return fmt.Errorf("a %s row needs its reason", kind)
		}
		if (kind == "retired") != (len(m.edits) == 0) {
			return fmt.Errorf("a retired row, and only a retired row, has no edit")
		}
		return nil
	case "test", "race":
		pkg, name, _ := strings.Cut(arg, " ")
		files, err := filepath.Glob(filepath.Join(filepath.FromSlash(pkg), "*_test.go"))
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
		return fmt.Errorf("catcher %q: no func %s( in %s/*_test.go", m.caughtBy, name, pkg)
	}
	return fmt.Errorf("unknown catcher %q", m.caughtBy)
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

// goIn runs the go tool in dir.
func goIn(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// firstFailure picks the lines of a failed test run that say how it
// failed, for the -killmatrix log: the innermost failing test and its first
// message, or the panic or race report; "" when no test failed.
func firstFailure(out string) string {
	failed := ""
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "--- FAIL"):
			failed = line
		case failed != "" && strings.Contains(line, "_test.go:"):
			return failed + " " + line
		case strings.HasPrefix(line, "panic:") || strings.Contains(line, "DATA RACE"):
			return line
		}
	}
	return failed
}

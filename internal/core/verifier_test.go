package core

import (
	"context"
	"encoding/binary"
	"encoding/pem"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/credstore"
	"repro/internal/pki"
	"repro/internal/policy"
	"repro/internal/protocol"
	"repro/internal/testpki"
)

// TestOfflineGuessCostsTheConfiguredStretch reads what a store dump holds
// after each way an entry is written — PUT, CHANGE_PASSPHRASE, STORE and a
// renewable PUT — and checks that nothing in it confirms a pass-phrase
// guess for less than the configured KDF cost (paper §5.1: an intruder
// "would still need to decrypt the keys individually"), and that for a
// delegated entry the verifier and the seal agree on every guess.
func TestOfflineGuessCostsTheConfiguredStretch(t *testing.T) {
	const cost = pki.DefaultKDFIterations
	dir := t.TempDir()
	store, err := credstore.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, func(cfg *ServerConfig) {
		cfg.Store = store
		cfg.KDFIterations = cost
	})
	alice := testpki.User(t, "core-alice")
	cli := newClient(t, alice, addr)
	ctx := context.Background()
	const newPass = "a brand new pass phrase"
	mustPut(t, cli, PutOptions{CredName: "put"})
	mustPut(t, cli, PutOptions{CredName: "changed"})
	if err := cli.ChangePassphrase(ctx, testUser, testPass, newPass, "changed"); err != nil {
		t.Fatalf("ChangePassphrase: %v", err)
	}
	if err := cli.Put(ctx, PutOptions{Username: testUser, CredName: "renewable", Renewable: true}); err != nil {
		t.Fatalf("renewable Put: %v", err)
	}
	if err := cli.Store(ctx, StoreOptions{Username: testUser, Passphrase: testPass, CredName: "stored", Credential: alice}); err != nil {
		t.Fatalf("Store: %v", err)
	}

	dump, err := credstore.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := dump.List(testUser)
	if err != nil || len(entries) != 4 {
		t.Fatalf("List = %d entries, %v; want 4", len(entries), err)
	}
	right := map[string]string{"put": testPass, "changed": newPass, "renewable": "", "stored": testPass}
	for _, e := range entries {
		container := e.SealedKey
		if e.Kind == credstore.KindDelegated {
			block, _ := pem.Decode(e.SealedKey)
			if block == nil {
				t.Fatalf("%s: sealed key is not PEM", e.Name)
			}
			container = block.Bytes
		}
		if iter := binary.BigEndian.Uint32(container[8:12]); iter < cost {
			t.Errorf("%s: seal stretched %d times, want >= %d", e.Name, iter, cost)
		}
		switch {
		case e.VerifierFromSeal:
			// The verifier costs the seal's own stretch; no second set of
			// KDF parameters sits beside it to undercut that.
			if e.VerifierSalt != nil || e.VerifierIter != 0 {
				t.Errorf("%s: seal-derived verifier carries its own salt/count %x/%d", e.Name, e.VerifierSalt, e.VerifierIter)
			}
		case e.VerifierIter < cost:
			t.Errorf("%s: verifier stretched %d times, want >= %d", e.Name, e.VerifierIter, cost)
		}
		if e.Kind != credstore.KindDelegated {
			continue
		}
		good := right[e.Name]
		nearMiss := good[:max(len(good)-1, 0)] + "!"
		for _, guess := range []string{good, nearMiss, ""} {
			checked := e.CheckPassphrase([]byte(guess)) == nil
			_, err := credstore.UnsealDelegated(e, []byte(guess))
			if checked != (err == nil) || checked != (guess == good) {
				t.Errorf("%s, guess %q: verifier accepts = %v, unseal error = %v", e.Name, guess, checked, err)
			}
		}
	}
}

// TestParentWrittenStoreKeepsWorking serves testdata/legacy-store, a file
// store written before verifiers were derived from the seal (see its
// README): every command gives the verdict it gave then, and
// CHANGE_PASSPHRASE and a re-PUT rewrite the entry in the seal-derived
// scheme.
func TestParentWrittenStoreKeepsWorking(t *testing.T) {
	const (
		user    = "legacy"
		oldPass = "legacy pass phrase"
		newPass = "a brand new pass phrase"
		badPass = "wrong wrong"
	)
	fixture := filepath.Join("testdata", "legacy-store")
	dir := t.TempDir()
	files, err := filepath.Glob(filepath.Join(fixture, "store", "*.json"))
	if err != nil || len(files) != 3 {
		t.Fatalf("fixture files = %v, %v", files, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	store, err := credstore.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "renewable", "blob"} {
		e, err := store.Get(user, name)
		if err != nil {
			t.Fatalf("fixture entry %q: %v", name, err)
		}
		if e.VerifierFromSeal || e.VerifierIter != 4096 {
			t.Fatalf("fixture entry %q is not in the PBKDF2-4096 verifier scheme", name)
		}
	}
	caPEM, err := os.ReadFile(filepath.Join(fixture, "ca.pem"))
	if err != nil {
		t.Fatal(err)
	}
	fixtureCA, err := pki.DecodeCertsPEM(caPEM)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture's owner has the DN of testpki's "legacy-owner" under the
	// fixture CA: the server authenticates the testpki twin, and clients
	// verify delegations from the stored chain against the fixture CA.
	roots := testRoots(t)
	roots.AddCert(fixtureCA[0])
	_, addr := startServer(t, func(cfg *ServerConfig) {
		cfg.Store = store
		cfg.Roots = roots
		cfg.AuthorizedRenewers = policy.NewACL("/C=US/O=Test Grid/*")
	})
	owner := newClient(t, testpki.User(t, "legacy-owner"), addr)
	portal := newClient(t, testpki.Host(t, "portal.test"), addr)
	owner.Roots, portal.Roots = roots, roots
	ctx := context.Background()

	steps := []struct {
		what string
		run  func() error
		want string // "" = success, else a substring of the refusal
	}{
		{"GET with a wrong pass phrase", func() error {
			_, err := portal.Get(ctx, GetOptions{Username: user, Passphrase: badPass})
			return err
		}, "bad pass phrase"},
		{"GET", func() error {
			_, err := portal.Get(ctx, GetOptions{Username: user, Passphrase: oldPass})
			return err
		}, ""},
		{"INFO with a wrong pass phrase", func() error {
			_, err := owner.Info(ctx, user, badPass)
			return err
		}, "no credentials"},
		{"INFO", func() error { return listed("", "blob")(owner.Info(ctx, user, oldPass)) }, ""},
		{"RENEWAL of the renewable entry", func() error {
			_, err := owner.Get(ctx, GetOptions{Username: user, CredName: "renewable", Renewal: true})
			return err
		}, ""},
		{"RETRIEVE with a wrong pass phrase", func() error {
			_, err := owner.Retrieve(ctx, RetrieveOptions{Username: user, Passphrase: badPass, CredName: "blob"})
			return err
		}, "bad pass phrase"},
		{"RETRIEVE", func() error {
			_, err := owner.Retrieve(ctx, RetrieveOptions{Username: user, Passphrase: oldPass, CredName: "blob"})
			return err
		}, ""},
		{"DESTROY of the blob with a wrong pass phrase", func() error { return owner.Destroy(ctx, user, badPass, "blob") }, "bad pass phrase"},
		{"DESTROY of the blob", func() error { return owner.Destroy(ctx, user, oldPass, "blob") }, ""},
		{"DESTROY with a wrong pass phrase", func() error { return owner.Destroy(ctx, user, badPass, "") }, "bad pass phrase"},
		{"CHANGE_PASSPHRASE with a wrong pass phrase", func() error {
			return owner.ChangePassphrase(ctx, user, badPass, newPass, "")
		}, "bad pass phrase"},
		{"CHANGE_PASSPHRASE", func() error { return owner.ChangePassphrase(ctx, user, oldPass, newPass, "") }, ""},
		{"GET under the old pass phrase", func() error {
			_, err := portal.Get(ctx, GetOptions{Username: user, Passphrase: oldPass})
			return err
		}, "bad pass phrase"},
		{"GET under the new pass phrase", func() error {
			_, err := portal.Get(ctx, GetOptions{Username: user, Passphrase: newPass})
			return err
		}, ""},
		{"INFO under the new pass phrase", func() error { return listed("")(owner.Info(ctx, user, newPass)) }, ""},
		{"DESTROY under the old pass phrase", func() error { return owner.Destroy(ctx, user, oldPass, "") }, "bad pass phrase"},
		{"re-PUT of the renewable entry", func() error {
			return owner.Put(ctx, PutOptions{Username: user, CredName: "renewable", Renewable: true})
		}, ""},
		{"RENEWAL of the re-PUT entry", func() error {
			_, err := owner.Get(ctx, GetOptions{Username: user, CredName: "renewable", Renewal: true})
			return err
		}, ""},
	}
	for _, s := range steps {
		err := s.run()
		switch {
		case s.want == "" && err != nil:
			t.Fatalf("%s: %v", s.what, err)
		case s.want != "" && (err == nil || !strings.Contains(err.Error(), s.want)):
			t.Fatalf("%s = %v, want a refusal containing %q", s.what, err, s.want)
		}
	}

	for _, name := range []string{"", "renewable"} {
		e, err := store.Get(user, name)
		if err != nil {
			t.Fatal(err)
		}
		if !e.VerifierFromSeal || e.VerifierSalt != nil || e.VerifierIter != 0 {
			t.Errorf("rewritten entry %q not in the seal-derived scheme: from seal %v, salt %x, count %d",
				name, e.VerifierFromSeal, e.VerifierSalt, e.VerifierIter)
		}
	}
	if err := owner.Destroy(ctx, user, newPass, ""); err != nil {
		t.Errorf("DESTROY under the new pass phrase: %v", err)
	}
}

// listed returns a check that an INFO answer names exactly names, in order.
func listed(names ...string) func([]protocol.CredInfo, error) error {
	return func(infos []protocol.CredInfo, err error) error {
		if err != nil {
			return err
		}
		var got []string
		for _, in := range infos {
			got = append(got, in.Name)
		}
		if strings.Join(got, "\x00") != strings.Join(names, "\x00") {
			return fmt.Errorf("INFO listed %q, want %q", got, names)
		}
		return nil
	}
}

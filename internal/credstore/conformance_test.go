package credstore

// The backend conformance suite: every Backend implementation must pass the
// same behavioral assertions, because cluster replicas are interchangeable
// only if a credential reads back identically — same bytes, same error
// shapes, same ordering — regardless of the engine underneath. A new backend
// gets a case in Open and an entry in conformanceBackends, nothing else.

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// conformanceBackends enumerates the implementations under test, each with
// a fresh, empty store per invocation.
func conformanceBackends(t *testing.T) map[string]func(t *testing.T) Backend {
	newFileStore := func(t *testing.T) *FileStore {
		s, err := NewFileStore(t.TempDir())
		if err != nil {
			t.Fatalf("NewFileStore: %v", err)
		}
		return s
	}
	return map[string]func(t *testing.T) Backend{
		"mem":  func(t *testing.T) Backend { return NewMemStore() },
		"file": func(t *testing.T) Backend { return newFileStore(t) },
		"file-legacy": func(t *testing.T) Backend {
			return &legacyFileStore{FileStore: newFileStore(t), tb: t}
		},
	}
}

func forEachBackend(t *testing.T, run func(t *testing.T, s Backend)) {
	for name, mk := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) { run(t, mk(t)) })
	}
}

// testEntry builds a fully populated entry; CreatedAt uses an explicit UTC
// wall time because backends that round-trip through an encoding cannot
// preserve Go's monotonic clock reading.
func testEntry(username, name string) *Entry {
	return &Entry{
		Username:         username,
		Name:             name,
		Owner:            "/C=US/O=Test/CN=owner",
		Kind:             KindDelegated,
		CertsPEM:         []byte("-----BEGIN CERTIFICATE-----\nAA==\n-----END CERTIFICATE-----\n"),
		SealedKey:        []byte("sealed-key-bytes"),
		Verifier:         []byte{1, 2, 3},
		VerifierSalt:     []byte{4, 5, 6},
		VerifierIter:     4096,
		VerifierFromSeal: true,
		Description:      "conformance entry",
		Retrievers:       "/C=US/O=Test/*",
		MaxDelegation:    2 * time.Hour,
		TaskTags:         []string{"alpha", "beta"},
		NotBefore:        time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:         time.Date(2026, 12, 31, 0, 0, 0, 0, time.UTC),
		CreatedAt:        time.Date(2026, 6, 1, 12, 0, 0, 0, time.UTC),
	}
}

func TestConformanceRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Backend) {
		want := testEntry("alice", "job")
		if err := s.Put(want); err != nil {
			t.Fatalf("Put: %v", err)
		}
		got, err := s.Get("alice", "job")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	})
}

// TestConformanceEmptySliceShape is the divergence that motivated
// Entry.normalize: an entry deposited with empty-but-non-nil slices must
// read back identically from every backend (the in-memory store's Clone
// drops empties to nil; a JSON round trip used to resurrect them non-nil).
func TestConformanceEmptySliceShape(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Backend) {
		e := testEntry("alice", "")
		e.CertsPEM = []byte{}
		e.TaskTags = []string{}
		e.Verifier = []byte{}
		e.VerifierSalt = []byte{}
		if err := s.Put(e); err != nil {
			t.Fatalf("Put: %v", err)
		}
		got, err := s.Get("alice", "")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got.CertsPEM != nil || got.TaskTags != nil || got.Verifier != nil || got.VerifierSalt != nil {
			t.Errorf("empty slices not canonicalized to nil: %+v", got)
		}
	})
}

func TestConformanceMissingUser(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Backend) {
		if _, err := s.Get("ghost", ""); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get missing: got %v, want ErrNotFound", err)
		}
		if err := s.Delete("ghost", ""); !errors.Is(err, ErrNotFound) {
			t.Errorf("Delete missing: got %v, want ErrNotFound", err)
		}
		entries, err := s.List("ghost")
		if err != nil {
			t.Errorf("List missing user: got error %v, want empty list", err)
		}
		if len(entries) != 0 {
			t.Errorf("List missing user: got %d entries", len(entries))
		}
	})
}

func TestConformanceEmptyUsernameRejected(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Backend) {
		if err := s.Put(testEntry("", "")); err == nil {
			t.Error("Put with empty username succeeded")
		}
	})
}

func TestConformanceListOrderAndIsolation(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Backend) {
		for _, name := range []string{"zeta", "", "alpha"} {
			if err := s.Put(testEntry("alice", name)); err != nil {
				t.Fatalf("Put %q: %v", name, err)
			}
		}
		if err := s.Put(testEntry("bob", "")); err != nil {
			t.Fatalf("Put bob: %v", err)
		}
		entries, err := s.List("alice")
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name)
		}
		if want := []string{"", "alpha", "zeta"}; !reflect.DeepEqual(names, want) {
			t.Errorf("List order: got %v, want %v", names, want)
		}
		// Mutating a returned entry must not affect the store.
		entries[0].Description = "mutated"
		entries[0].TaskTags[0] = "mutated"
		again, err := s.Get("alice", "")
		if err != nil {
			t.Fatalf("Get after mutation: %v", err)
		}
		if again.Description == "mutated" || again.TaskTags[0] == "mutated" {
			t.Error("mutating a returned entry leaked into the store")
		}
	})
}

func TestConformanceOverwriteAndDelete(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Backend) {
		if err := s.Put(testEntry("alice", "")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		repl := testEntry("alice", "")
		repl.Description = "replaced"
		if err := s.Put(repl); err != nil {
			t.Fatalf("Put overwrite: %v", err)
		}
		got, err := s.Get("alice", "")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got.Description != "replaced" {
			t.Errorf("overwrite did not replace: %q", got.Description)
		}
		if err := s.Delete("alice", ""); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if _, err := s.Get("alice", ""); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get after delete: got %v, want ErrNotFound", err)
		}
		// A second delete of the same key is the missing-entry shape again.
		if err := s.Delete("alice", ""); !errors.Is(err, ErrNotFound) {
			t.Errorf("double Delete: got %v, want ErrNotFound", err)
		}
	})
}

func TestConformanceUsernames(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Backend) {
		empty, err := s.Usernames()
		if err != nil {
			t.Fatalf("Usernames empty: %v", err)
		}
		if empty != nil {
			t.Errorf("Usernames on empty store: got %v, want nil", empty)
		}
		for _, u := range []string{"carol", "alice", "bob", "alice"} {
			if err := s.Put(testEntry(u, "x")); err != nil {
				t.Fatalf("Put %s: %v", u, err)
			}
		}
		got, err := s.Usernames()
		if err != nil {
			t.Fatalf("Usernames: %v", err)
		}
		if want := []string{"alice", "bob", "carol"}; !reflect.DeepEqual(got, want) {
			t.Errorf("Usernames: got %v, want %v", got, want)
		}
	})
}

func TestOpenBackendRegistry(t *testing.T) {
	if _, err := Open("mem"); err != nil {
		t.Errorf("Open mem: %v", err)
	}
	if _, err := Open("file:" + t.TempDir()); err != nil {
		t.Errorf("Open file: %v", err)
	}
	if _, err := Open("file"); err == nil {
		t.Error("Open file without dir succeeded")
	}
	if _, err := Open("mem:extra"); err == nil {
		t.Error("Open mem with dsn succeeded")
	}
	if _, err := Open("bogus"); err == nil {
		t.Error("Open bogus succeeded")
	}
}

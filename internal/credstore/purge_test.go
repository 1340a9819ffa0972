package credstore

import (
	"errors"
	"testing"
	"time"
)

func TestPurgeExpired(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		live := sampleEntry(t, "alice", "live")
		live.NotAfter = time.Now().Add(time.Hour)
		dead := sampleEntry(t, "alice", "dead")
		dead.NotAfter = time.Now().Add(-time.Hour)
		deadBob := sampleEntry(t, "bob", "")
		deadBob.NotAfter = time.Now().Add(-time.Minute)
		for _, e := range []*Entry{live, dead, deadBob} {
			if err := s.Put(e); err != nil {
				t.Fatal(err)
			}
		}
		// Dry run reports but removes nothing.
		n, err := PurgeExpired(s, time.Now(), true)
		if err != nil || n != 2 {
			t.Fatalf("dry run = %d, %v", n, err)
		}
		if _, err := s.Get("alice", "dead"); err != nil {
			t.Fatal("dry run deleted an entry")
		}
		// Real purge removes the two expired entries only.
		n, err = PurgeExpired(s, time.Now(), false)
		if err != nil || n != 2 {
			t.Fatalf("purge = %d, %v", n, err)
		}
		if _, err := s.Get("alice", "live"); err != nil {
			t.Error("live entry purged")
		}
		if _, err := s.Get("alice", "dead"); !errors.Is(err, ErrNotFound) {
			t.Error("expired entry survived")
		}
		if _, err := s.Get("bob", ""); !errors.Is(err, ErrNotFound) {
			t.Error("bob's expired entry survived")
		}
	})
}

// PurgeExpired lists every user after enumerating them. Over a FileStore
// that must stay a constant number of reads per entry — one for Usernames,
// one for the owner's List — not a scan of the store per user.
func TestPurgeExpiredReadsLinearInEntries(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const entries = 512
	fillForeign(t, fs, entries)
	reads := countReads(fs)
	n, err := PurgeExpired(fs, testEntry("", "").NotAfter.Add(time.Hour), false)
	if err != nil || n != entries {
		t.Fatalf("purge = %d, %v; want %d", n, err, entries)
	}
	if got := reads.files.Load(); got > 3*entries {
		t.Errorf("purging %d entries opened %d entry files, want at most %d", entries, got, 3*entries)
	}
}

func TestPurgeExpiredEmptyStore(t *testing.T) {
	n, err := PurgeExpired(NewMemStore(), time.Now(), false)
	if err != nil || n != 0 {
		t.Fatalf("empty purge = %d, %v", n, err)
	}
}

// Entries with zero NotAfter (e.g. opaque stored blobs without parsed
// validity) must never be purged.
func TestPurgeSkipsZeroNotAfter(t *testing.T) {
	s := NewMemStore()
	e := sampleEntry(t, "alice", "blob")
	e.NotAfter = time.Time{}
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	n, err := PurgeExpired(s, time.Now(), false)
	if err != nil || n != 0 {
		t.Fatalf("purge = %d, %v", n, err)
	}
}

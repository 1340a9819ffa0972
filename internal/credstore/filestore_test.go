package credstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// plantEntry writes e's file body at path without going through Put (no
// fsync, any file name): how tests lay down legacy-named, misnamed and bulk
// files.
func plantEntry(tb testing.TB, path string, e *Entry) {
	tb.Helper()
	data, err := encodeEntry(e)
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o600); err != nil {
		tb.Fatal(err)
	}
}

// legacyPath is where the layout before owner-addressed names kept a key.
func legacyPath(dir, username, name string) string {
	return filepath.Join(dir, sha256sum(username, name)+".json")
}

// legacyFileStore is a FileStore whose every deposit arrives the way the
// previous layout left it on disk: Put plants the entry under its legacy
// name and reopens the directory. The conformance suite run over it shows
// that a store written before the rename opens, serves and lists alike.
type legacyFileStore struct {
	*FileStore
	tb testing.TB
}

func (l *legacyFileStore) Put(e *Entry) error {
	if e.Username == "" {
		return errEmptyUsername
	}
	plantEntry(l.tb, legacyPath(l.Dir(), e.Username, e.Name), e)
	fs, err := NewFileStore(l.Dir())
	if err != nil {
		return err
	}
	l.FileStore = fs
	return nil
}

// readCount is what countReads tallies.
type readCount struct{ files, bytes atomic.Int64 }

// countReads makes fs count the entry files it opens and their sizes.
func countReads(fs *FileStore) *readCount {
	n := new(readCount)
	fs.readFile = func(path string) ([]byte, error) {
		data, err := os.ReadFile(path)
		n.files.Add(1)
		n.bytes.Add(int64(len(data)))
		return data, err
	}
	return n
}

func jsonFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	return files
}

// A directory written under the legacy names — here with one entry already
// renamed, as a crash part-way through an earlier sweep leaves it — is
// renamed on open and then behaves like any other store; a second sweep
// finds nothing to read or rename.
func TestFileStoreLegacyNamesRenamedOnOpen(t *testing.T) {
	dir := t.TempDir()
	users, names := []string{"alice", "bob", "carol"}, []string{"", "job"}
	for _, u := range users {
		for _, n := range names {
			plantEntry(t, legacyPath(dir, u, n), testEntry(u, n))
		}
	}
	fresh := &FileStore{dir: dir}
	if err := os.Rename(legacyPath(dir, "bob", "job"), fresh.path("bob", "job")); err != nil {
		t.Fatal(err)
	}

	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatalf("open legacy store: %v", err)
	}
	after := jsonFiles(t, dir)
	if len(after) != len(users)*len(names) {
		t.Fatalf("%d entry files after open, want %d", len(after), len(users)*len(names))
	}
	for _, f := range after {
		if isLegacyName(filepath.Base(f)) {
			t.Errorf("%s still carries a legacy name", filepath.Base(f))
		}
	}
	for _, u := range users {
		for _, n := range names {
			got, err := fs.Get(u, n)
			if err != nil {
				t.Fatalf("Get(%q, %q): %v", u, n, err)
			}
			if want := testEntry(u, n); !reflect.DeepEqual(got, want) {
				t.Errorf("Get(%q, %q) = %+v, want %+v", u, n, got, want)
			}
		}
		list, err := fs.List(u)
		if err != nil || len(list) != 2 || list[0].Name != "" || list[1].Name != "job" {
			t.Errorf("List(%q) = %v, %v", u, list, err)
		}
	}
	if got, err := fs.Usernames(); err != nil || !reflect.DeepEqual(got, users) {
		t.Errorf("Usernames = %v, %v", got, err)
	}
	if err := fs.Delete("alice", "job"); err != nil {
		t.Errorf("Delete: %v", err)
	}
	if _, err := fs.Get("alice", "job"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after Delete: %v", err)
	}

	before := jsonFiles(t, dir)
	reads := countReads(fs)
	if err := fs.sweep(); err != nil {
		t.Fatalf("second sweep: %v", err)
	}
	if n := reads.files.Load(); n != 0 {
		t.Errorf("second sweep read %d files, want 0", n)
	}
	if again := jsonFiles(t, dir); !reflect.DeepEqual(again, before) {
		t.Errorf("second sweep changed the directory:\n was %v\n now %v", before, again)
	}
}

// A legacy file whose body does not decode cannot be given its new name;
// the open fails naming it rather than leaving an entry no key reaches.
func TestFileStoreCorruptLegacyFileFailsOpen(t *testing.T) {
	dir := t.TempDir()
	bad := legacyPath(dir, "alice", "")
	if err := os.WriteFile(bad, []byte("{corrupt"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileStore(dir); err == nil {
		t.Error("store with a corrupt legacy file opened")
	} else if !strings.Contains(err.Error(), filepath.Base(bad)) {
		t.Errorf("error does not name the corrupt file: %v", err)
	}
}

// Another process (myproxy-admin purge beside a live server) may delete a
// file between a scan's directory read and its file read. That is an entry
// gone, not a store error.
func TestFileStoreScanSkipsVanishedFile(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"keep", "doomed"} {
		if err := fs.Put(testEntry("alice", n)); err != nil {
			t.Fatal(err)
		}
	}
	other, err := NewFileStore(fs.Dir())
	if err != nil {
		t.Fatal(err)
	}
	doomed := fs.path("alice", "doomed")
	fs.readFile = func(path string) ([]byte, error) {
		if path == doomed {
			if err := other.Delete("alice", "doomed"); err != nil {
				t.Errorf("Delete from the second store: %v", err)
			}
		}
		return os.ReadFile(path)
	}
	list, err := fs.List("alice")
	if err != nil {
		t.Fatalf("List over a vanished file: %v", err)
	}
	if len(list) != 1 || list[0].Name != "keep" {
		t.Errorf("List = %v, want only %q", list, "keep")
	}
	if err := fs.Put(testEntry("alice", "doomed")); err != nil {
		t.Fatal(err)
	}
	if users, err := fs.Usernames(); err != nil || !reflect.DeepEqual(users, []string{"alice"}) {
		t.Errorf("Usernames over a vanished file = %v, %v", users, err)
	}
}

// The file name locates an entry; the key recorded in the body decides
// whose it is. A body copied onto another key's path is refused by Get,
// and a body sitting under another owner's prefix is not listed for them.
func TestFileStoreNameIsNotAuthority(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(testEntry("alice", "")); err != nil {
		t.Fatal(err)
	}
	planted := fs.path("mallory", "")
	plantEntry(t, planted, testEntry("alice", ""))
	if _, err := fs.Get("mallory", ""); err == nil {
		t.Error("Get served alice's entry under mallory's key")
	} else if !strings.Contains(err.Error(), filepath.Base(planted)) {
		t.Errorf("error does not name the planted file: %v", err)
	}
	list, err := fs.List("mallory")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(list) != 0 {
		t.Errorf("List(mallory) returned %d entries recorded for %q", len(list), list[0].Username)
	}
	if list, err := fs.List("alice"); err != nil || len(list) != 1 {
		t.Errorf("List(alice) = %v, %v", list, err)
	}
}

// One owner's corrupt file breaks that owner's listing and the whole-store
// scan, loudly and by name, and nobody else's reads.
func TestFileStoreCorruptEntryIsolatedToOwner(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"alice", "bob"} {
		if err := fs.Put(testEntry(u, "")); err != nil {
			t.Fatal(err)
		}
	}
	bad := fs.path("alice", "")
	if err := os.WriteFile(bad, []byte("{corrupt"), 0o600); err != nil {
		t.Fatal(err)
	}
	if list, err := fs.List("bob"); err != nil || len(list) != 1 {
		t.Errorf("List(bob) = %v, %v", list, err)
	}
	if _, err := fs.Get("bob", ""); err != nil {
		t.Errorf("Get(bob): %v", err)
	}
	_, listErr := fs.List("alice")
	_, usersErr := fs.Usernames()
	for op, err := range map[string]error{"List(alice)": listErr, "Usernames": usersErr} {
		if err == nil {
			t.Errorf("%s succeeded over a corrupt entry", op)
		} else if !strings.Contains(err.Error(), filepath.Base(bad)) {
			t.Errorf("%s error does not name the corrupt file: %v", op, err)
		}
	}
}

// Writers put and delete overlapping keys while readers get and list them,
// with no lock anywhere: every List must be sorted and owner-pure, and
// every entry a reader sees must be exactly what some Put wrote. Run under
// -race.
func TestFileStoreConcurrentReadersAndWriters(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	users, names := []string{"u0", "u1", "u2"}, []string{"", "a", "b"}
	want := func(u, n string) *Entry {
		e := testEntry(u, n)
		e.Description = u + "/" + n
		return e
	}
	check := func(e *Entry, u string) {
		if e.Username != u {
			t.Errorf("entry of %q returned for %q", e.Username, u)
		} else if !reflect.DeepEqual(e, want(u, e.Name)) {
			t.Errorf("entry %q/%q does not round-trip: %+v", u, e.Name, e)
		}
	}

	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 150; i++ {
				u, n := users[(i+w)%len(users)], names[(i/2+w)%len(names)]
				if i%3 == 2 {
					if err := fs.Delete(u, n); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("Delete: %v", err)
					}
				} else if err := fs.Put(want(u, n)); err != nil {
					t.Errorf("Put: %v", err)
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := users[(i+r)%len(users)]
				list, err := fs.List(u)
				if err != nil {
					t.Errorf("List: %v", err)
				}
				sorted := make([]*Entry, len(list))
				copy(sorted, list)
				sortEntries(sorted)
				for j, e := range list {
					if e != sorted[j] {
						t.Errorf("List(%q) not sorted", u)
					}
					check(e, u)
				}
				n := names[i%len(names)]
				if e, err := fs.Get(u, n); err == nil {
					check(e, u)
				} else if !errors.Is(err, ErrNotFound) {
					t.Errorf("Get: %v", err)
				}
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if left, _ := filepath.Glob(filepath.Join(fs.Dir(), ".put-*")); len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

// fillForeign plants n entries of n distinct other users in fs's directory.
func fillForeign(tb testing.TB, fs *FileStore, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("other-%04d", i)
		plantEntry(tb, fs.path(u, ""), testEntry(u, ""))
	}
}

var listSink []*Entry

// BenchmarkFileStoreList lists a one-entry owner beside 64, 512 and 4096
// other owners' entries. files_read/op and bytes_read/op must stay at one
// entry whatever the store holds; ns/op keeps only the directory read.
func BenchmarkFileStoreList(b *testing.B) {
	for _, foreign := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("foreign=%d", foreign), func(b *testing.B) {
			fs, err := NewFileStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			fillForeign(b, fs, foreign)
			plantEntry(b, fs.path("alice", ""), testEntry("alice", ""))
			reads := countReads(fs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if listSink, err = fs.List("alice"); err != nil || len(listSink) != 1 {
					b.Fatalf("List = %d entries, %v", len(listSink), err)
				}
			}
			b.ReportMetric(float64(reads.files.Load())/float64(b.N), "files_read/op")
			b.ReportMetric(float64(reads.bytes.Load())/float64(b.N), "bytes_read/op")
		})
	}
}

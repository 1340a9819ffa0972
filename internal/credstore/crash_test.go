package credstore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestStaleTempFilesSweptOnOpen simulates a server that crashed mid-Put:
// the temp file exists, the rename never happened. Reopening the store must
// clean the leftovers and leave committed entries untouched.
func TestStaleTempFilesSweptOnOpen(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	entry := &Entry{
		Username:  "jdoe",
		Owner:     "/C=US/O=Test/CN=jdoe",
		Kind:      KindStored,
		SealedKey: []byte("sealed"),
		NotAfter:  time.Now().Add(time.Hour),
		CreatedAt: time.Now(),
	}
	if err := entry.SetPassphrase([]byte("a long test pass phrase"), 64); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(entry); err != nil {
		t.Fatal(err)
	}

	// Crash leftovers: two aborted deposits.
	for _, name := range []string{".put-1234", ".put-dead"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o600); err != nil {
			t.Fatal(err)
		}
	}

	// Reopen: leftovers swept, committed entry intact.
	store2, err := NewFileStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	dirents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range dirents {
		if strings.HasPrefix(de.Name(), ".put-") {
			t.Errorf("stale temp file %s survived reopen", de.Name())
		}
	}
	got, err := store2.Get("jdoe", "")
	if err != nil {
		t.Fatalf("entry lost after sweep: %v", err)
	}
	if string(got.SealedKey) != "sealed" {
		t.Errorf("entry corrupted: %q", got.SealedKey)
	}
}

// TestPutLeavesNoTempFiles checks the happy path cleans up after itself.
func TestPutLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := &Entry{Username: "u", NotAfter: time.Now().Add(time.Hour)}
	if err := store.Put(e); err != nil {
		t.Fatal(err)
	}
	dirents, _ := os.ReadDir(dir)
	for _, de := range dirents {
		if strings.HasPrefix(de.Name(), ".put-") {
			t.Errorf("temp file %s left behind", de.Name())
		}
	}
}

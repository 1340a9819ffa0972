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

	// Crash leftovers: two aborted deposits, older than any deposit in
	// flight.
	for _, name := range []string{".put-1234", ".put-dead"} {
		writeTempFile(t, dir, name, staleTempAge+time.Minute)
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

// TestSweepSparesDepositInFlight: a server or gateway sharing the store
// directory may be between writing a deposit's temp file and renaming it
// when another one opens the store. A fresh temp file survives that open;
// an aged one is a crashed deposit and goes.
func TestSweepSparesDepositInFlight(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewFileStore(dir); err != nil {
		t.Fatal(err)
	}
	writeTempFile(t, dir, ".put-inflight", 0)
	writeTempFile(t, dir, ".put-crashed", staleTempAge+time.Minute)
	if _, err := NewFileStore(dir); err != nil {
		t.Fatalf("second open: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ".put-inflight")); err != nil {
		t.Errorf("the in-flight deposit's temp file did not survive a second open: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ".put-crashed")); !os.IsNotExist(err) {
		t.Errorf("the aged temp file survived a second open: %v", err)
	}
}

// writeTempFile leaves a deposit temp file named name in dir, last
// modified age ago.
func writeTempFile(t *testing.T, dir, name string, age time.Duration) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte("partial"), 0o600); err != nil {
		t.Fatal(err)
	}
	then := time.Now().Add(-age)
	if err := os.Chtimes(path, then, then); err != nil {
		t.Fatal(err)
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

package credstore

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

var errEmptyUsername = errors.New("credstore: empty username")

// FileStore persists entries as one JSON document per credential inside a
// directory, mirroring the C implementation's per-user files under
// /var/myproxy. Private keys inside the files are sealed; the files
// themselves are additionally created owner-only (0600, directory 0700)
// because the repository host must be tightly secured (paper §5.1).
//
// A FileStore holds no lock: Put publishes a whole file by atomic rename
// and Delete unlinks one, so a reader sees each entry file entirely old,
// entirely new or absent — from this process or from another one working
// in the same directory (myproxy-admin beside a live server).
type FileStore struct {
	dir string
	// readFile is os.ReadFile; tests substitute it to count the entry
	// files an operation opens and to interleave a delete with a scan.
	readFile func(string) ([]byte, error)
}

// NewFileStore creates (if needed) and opens a directory-backed store.
// Two kinds of leftover are swept on open. An unrenamed ".put-*" file is an
// aborted deposit (the rename never happened, so the previous entry — if
// any — is still intact) and is deleted rather than left to accumulate. An
// entry file still carrying the name earlier versions gave it is renamed
// to the one path() gives its recorded key.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("credstore: create store dir: %w", err)
	}
	s := &FileStore{dir: dir, readFile: os.ReadFile}
	if err := s.sweep(); err != nil {
		return nil, err
	}
	return s, nil
}

// sweep removes ".put-*" leftovers from crashed writes and renames
// legacy-named entry files. Each rename is atomic, so a crash part-way
// leaves every entry under its old or its new name and the next open
// finishes the job; a file that vanishes under the sweep was renamed (or
// deleted) by another process opening the same directory.
func (s *FileStore) sweep() error {
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("credstore: sweep store dir: %w", err)
	}
	renamed := false
	for _, de := range dirents {
		old := filepath.Join(s.dir, de.Name())
		switch {
		case de.IsDir():
		case strings.HasPrefix(de.Name(), ".put-"):
			if err := os.Remove(old); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("credstore: sweep %s: %w", de.Name(), err)
			}
		case isLegacyName(de.Name()):
			e, err := s.decode(old)
			if errors.Is(err, ErrNotFound) {
				continue
			}
			if err != nil {
				return err
			}
			if err := os.Rename(old, s.path(e.Username, e.Name)); err == nil {
				renamed = true
			} else if !os.IsNotExist(err) {
				return fmt.Errorf("credstore: rename legacy %s: %w", de.Name(), err)
			}
		}
	}
	if renamed {
		return syncDir(s.dir)
	}
	return nil
}

// isLegacyName reports whether name has the shape earlier versions gave
// entry files: sha256sum(username, name) + ".json", 64 hex digits, no dash.
func isLegacyName(name string) bool {
	digits, ok := strings.CutSuffix(name, ".json")
	if !ok || len(digits) != 2*nameHashLen {
		return false
	}
	_, err := hex.DecodeString(digits)
	return err == nil
}

// Dir returns the backing directory.
func (s *FileStore) Dir() string { return s.dir }

// fileEntry wraps Entry with an explicit index of its key, so a scan can
// recover usernames without trusting file names.
type fileEntry struct {
	Username string `json:"username"`
	Name     string `json:"name"`
	Entry    *Entry `json:"entry"`
}

// encodeEntry renders the body of e's entry file.
func encodeEntry(e *Entry) ([]byte, error) {
	return json.MarshalIndent(fileEntry{Username: e.Username, Name: e.Name, Entry: e}, "", " ")
}

// nameHashLen is how many hex digits of each SHA-256 go into a file name:
// 128 bits apiece, so a collision is not a practical event, and the recorded
// key inside the file settles one anyway.
const nameHashLen = 32

// ownerPrefix is what the names of all of username's entry files start
// with, so List finds them from the directory listing alone.
func ownerPrefix(username string) string {
	return sha256sum(username)[:nameHashLen] + "-"
}

// path names the entry file for a key: owner hash, name hash, ".json".
// Only hashes reach the file system, never a wire-supplied string, and the
// name is a locator, not an authority: the key recorded inside the file is
// what Get and List match against.
func (s *FileStore) path(username, name string) string {
	return filepath.Join(s.dir, ownerPrefix(username)+sha256sum(name)[:nameHashLen]+".json")
}

// Put implements Store with a crash-safe atomic write: the entry is written
// to a temp file, fsynced, renamed over the target, and the directory is
// fsynced so the rename itself survives a power loss. Without the syncs a
// crash between rename and writeback could leave a zero-length or torn
// credential file — losing a deposited credential the client believes is
// safely stored (paper §3: the repository is the availability anchor).
// The rename is also the publication point readers rely on.
func (s *FileStore) Put(e *Entry) error {
	if e.Username == "" {
		return errEmptyUsername
	}
	data, err := encodeEntry(e)
	if err != nil {
		return fmt.Errorf("credstore: encode entry: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("credstore: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if err := writeAndSync(tmp, data); err != nil {
		os.Remove(tmpName)
		return err
	}
	// Once renamed the temp name is free for a concurrent Put to draw
	// again, so it is removed on the failure paths only.
	if err := os.Rename(tmpName, s.path(e.Username, e.Name)); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(s.dir)
}

// writeAndSync fills, fsyncs and closes an entry's temp file.
func writeAndSync(tmp *os.File, data []byte) error {
	if err := tmp.Chmod(0o600); err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("credstore: write entry: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("credstore: sync entry: %w", err)
	}
	return tmp.Close()
}

// syncDir fsyncs a directory so a just-completed rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("credstore: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("credstore: sync dir: %w", err)
	}
	return nil
}

// Get implements Store. The file at the key's path must also record that
// key: a file copied or renamed onto another key's path is refused, not
// served under the key it was planted at.
func (s *FileStore) Get(username, name string) (*Entry, error) {
	path := s.path(username, name)
	e, err := s.decode(path)
	if err != nil {
		return nil, err
	}
	if e.Username != username || e.Name != name {
		return nil, fmt.Errorf("credstore: %s records a different key than its name", filepath.Base(path))
	}
	return e, nil
}

// decode reads one entry file, ErrNotFound if it does not exist.
func (s *FileStore) decode(path string) (*Entry, error) {
	data, err := s.readFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("credstore: read entry: %w", err)
	}
	var fe fileEntry
	if err := json.Unmarshal(data, &fe); err != nil {
		return nil, fmt.Errorf("credstore: decode %s: %w", filepath.Base(path), err)
	}
	if fe.Entry == nil {
		return nil, fmt.Errorf("credstore: %s has no entry body", filepath.Base(path))
	}
	fe.Entry.Username, fe.Entry.Name = fe.Username, fe.Name
	fe.Entry.normalize() // JSON resurrects empty slices as non-nil
	return fe.Entry, nil
}

// List implements Store by reading the files whose names carry username's
// prefix. The prefix only narrows the scan: entries are kept by the
// username they record, so a misnamed file or a prefix collision cannot
// put another owner's entry in the result.
func (s *FileStore) List(username string) ([]*Entry, error) {
	entries, err := s.scan(ownerPrefix(username))
	if err != nil {
		return nil, err
	}
	var own []*Entry
	for _, e := range entries {
		if e.Username == username {
			own = append(own, e)
		}
	}
	sortEntries(own)
	return own, nil
}

// Delete implements Store.
func (s *FileStore) Delete(username, name string) error {
	err := os.Remove(s.path(username, name))
	if os.IsNotExist(err) {
		return ErrNotFound
	}
	return err
}

// Usernames implements Store.
func (s *FileStore) Usernames() ([]string, error) {
	entries, err := s.scan("")
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	for _, e := range entries {
		if !seen[e.Username] {
			seen[e.Username] = true
			out = append(out, e.Username)
		}
	}
	sort.Strings(out)
	return out, nil
}

// scan decodes every entry file whose name starts with prefix. A file that
// is gone by the time it is read was deleted after the directory listing —
// by this process or another — and is skipped; a file that is there but
// does not decode fails the scan, naming it.
func (s *FileStore) scan(prefix string) ([]*Entry, error) {
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("credstore: scan: %w", err)
	}
	var out []*Entry
	for _, de := range dirents {
		if de.IsDir() || !strings.HasPrefix(de.Name(), prefix) || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		e, err := s.decode(filepath.Join(s.dir, de.Name()))
		if errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

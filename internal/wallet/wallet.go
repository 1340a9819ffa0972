// Package wallet implements the paper's "electronic wallet" (§6.2): "a
// storage mechanism for all of a user's credentials. This wallet would be
// able, when given information about the task a user wishes to undertake,
// to correctly select credentials for the task ... and then return the
// credentials to the user."
//
// The wallet manages multiple credentials (possibly from multiple CAs),
// tags each with the tasks it serves, selects by task, and synchronizes
// with a MyProxy repository so the same selection works remotely
// (internal/core implements the matching server-side selection).
package wallet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pki"
)

// Entry is one wallet credential.
type Entry struct {
	// Name identifies the credential within the wallet and on the
	// repository.
	Name string
	// Credential is the full credential (certificate, key, chain).
	Credential *pki.Credential
	// Tags list the tasks this credential serves, e.g. "job-submit".
	Tags []string
	// Description is free text.
	Description string
}

// Wallet is a concurrency-safe credential collection.
type Wallet struct {
	mu      sync.RWMutex
	entries map[string]*Entry
}

// New creates an empty wallet.
func New() *Wallet {
	return &Wallet{entries: make(map[string]*Entry)}
}

// Add inserts or replaces an entry.
func (w *Wallet) Add(e *Entry) error {
	if e == nil || e.Name == "" {
		return errors.New("wallet: entry requires a name")
	}
	if e.Credential == nil || e.Credential.Certificate == nil || e.Credential.PrivateKey == nil {
		return errors.New("wallet: entry requires a complete credential")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	cp := *e
	cp.Tags = append([]string(nil), e.Tags...)
	sort.Strings(cp.Tags)
	w.entries[e.Name] = &cp
	return nil
}

// Remove deletes an entry; it reports whether it existed.
func (w *Wallet) Remove(name string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.entries[name]
	delete(w.entries, name)
	return ok
}

// Get returns an entry by name.
func (w *Wallet) Get(name string) (*Entry, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	e, ok := w.entries[name]
	return e, ok
}

// Names lists entry names, sorted.
func (w *Wallet) Names() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	names := make([]string, 0, len(w.entries))
	for n := range w.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len reports the number of entries.
func (w *Wallet) Len() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.entries)
}

// ErrNoCredential is returned when selection finds nothing suitable.
var ErrNoCredential = errors.New("wallet: no credential suits the task")

// SelectForTask picks the credential for a task: among unexpired entries
// tagged with the task, the one with the fewest tags (most specific
// purpose), ties broken by longest remaining validity, then name. This is
// the same policy the repository's server-side wallet applies (§6.2).
func (w *Wallet) SelectForTask(task string, now time.Time) (*Entry, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var best *Entry
	for _, e := range sortedEntries(w.entries) {
		if e.Credential.TimeLeftAt(now) <= 0 || !slices.Contains(e.Tags, task) {
			continue
		}
		if best == nil ||
			len(e.Tags) < len(best.Tags) ||
			(len(e.Tags) == len(best.Tags) &&
				e.Credential.Certificate.NotAfter.After(best.Credential.Certificate.NotAfter)) {
			best = e
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoCredential, task)
	}
	return best, nil
}

func sortedEntries(m map[string]*Entry) []*Entry {
	out := make([]*Entry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// UploadAll deposits every wallet entry in the repository under the given
// account, labeled with its tags so server-side task selection works
// (§6.2). Each credential is delegated (the wallet's long-term keys stay
// local); lifetime 0 selects the client default.
func (w *Wallet) UploadAll(ctx context.Context, newClient func(cred *pki.Credential) *core.Client, username, passphrase string, lifetime time.Duration) error {
	w.mu.RLock()
	entries := sortedEntries(w.entries)
	w.mu.RUnlock()
	if len(entries) == 0 {
		return errors.New("wallet: nothing to upload")
	}
	for _, e := range entries {
		client := newClient(e.Credential)
		if err := client.Put(ctx, core.PutOptions{
			Username:    username,
			Passphrase:  passphrase,
			CredName:    e.Name,
			Description: e.Description,
			TaskTags:    e.Tags,
			Lifetime:    lifetime,
		}); err != nil {
			return fmt.Errorf("wallet: upload %q: %w", e.Name, err)
		}
	}
	return nil
}

// manifest is the on-disk wallet index.
type manifest struct {
	Entries []manifestEntry `json:"entries"`
}

type manifestEntry struct {
	Name        string   `json:"name"`
	File        string   `json:"file"`
	Tags        []string `json:"tags,omitempty"`
	Description string   `json:"description,omitempty"`
}

// Save writes the wallet to a directory: one pass-phrase-sealed credential
// file per entry plus a manifest.json index.
func (w *Wallet) Save(dir string, passphrase []byte) error {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return fmt.Errorf("wallet: create dir: %w", err)
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	var m manifest
	for _, e := range sortedEntries(w.entries) {
		file := fmt.Sprintf("cred-%s.pem", sanitize(e.Name))
		data, err := e.Credential.EncodeEncryptedPEM(passphrase, 0)
		if err != nil {
			return fmt.Errorf("wallet: seal %q: %w", e.Name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, file), data, 0o600); err != nil {
			return fmt.Errorf("wallet: write %q: %w", e.Name, err)
		}
		m.Entries = append(m.Entries, manifestEntry{
			Name: e.Name, File: file, Tags: e.Tags, Description: e.Description,
		})
	}
	data, err := json.MarshalIndent(&m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o600)
}

// Load reads a wallet saved with Save.
func Load(dir string, passphrase []byte) (*Wallet, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("wallet: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("wallet: decode manifest: %w", err)
	}
	w := New()
	for _, me := range m.Entries {
		credData, err := os.ReadFile(filepath.Join(dir, me.File))
		if err != nil {
			return nil, fmt.Errorf("wallet: read %q: %w", me.Name, err)
		}
		cred, err := pki.DecodeCredentialPEM(credData, passphrase)
		pki.WipeBytes(credData) // decoded; drop the on-disk credential image
		if err != nil {
			return nil, fmt.Errorf("wallet: open %q: %w", me.Name, err)
		}
		if err := w.Add(&Entry{
			Name: me.Name, Credential: cred, Tags: me.Tags, Description: me.Description,
		}); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func sanitize(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

package core

import (
	"fmt"
	"slices"

	"repro/internal/credstore"
)

// selectEntry resolves which stored credential a request addresses.
//
// With an explicit credential name the choice is exact. Otherwise the
// repository acts as the paper's "electronic wallet" (§6.2): given a task
// hint it selects, among the user's unexpired credentials, one tagged for
// that task — preferring the most specific tag set, then the longest
// remaining validity; with no hint it returns the default credential, or
// the only credential if exactly one exists.
func (s *Service) selectEntry(username, credName, taskHint string) (*credstore.Entry, error) {
	if credName != "" {
		return s.cfg.Store.Get(username, credName)
	}
	if taskHint == "" {
		// Default credential, falling back to a sole named credential.
		if e, err := s.cfg.Store.Get(username, ""); err == nil {
			return e, nil
		}
		entries, err := s.cfg.Store.List(username)
		if err != nil {
			return nil, err
		}
		if len(entries) == 1 {
			return entries[0], nil
		}
		if len(entries) == 0 {
			return nil, credstore.ErrNotFound
		}
		return nil, fmt.Errorf("%w: %d credentials; specify a name or task", credstore.ErrNotFound, len(entries))
	}
	entries, err := s.cfg.Store.List(username)
	if err != nil {
		return nil, err
	}
	now := s.cfg.now()
	var best *credstore.Entry
	bestSpecificity := -1
	for _, e := range entries {
		if e.Expired(now) || !slices.Contains(e.TaskTags, taskHint) {
			continue
		}
		// Prefer fewer tags (more specific purpose); break ties with the
		// longest remaining validity so renewals favor fresh credentials.
		spec := len(e.TaskTags)
		switch {
		case best == nil,
			spec < bestSpecificity,
			spec == bestSpecificity && e.NotAfter.After(best.NotAfter):
			best = e
			bestSpecificity = spec
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: no credential tagged for task %q", credstore.ErrNotFound, taskHint)
	}
	return best, nil
}

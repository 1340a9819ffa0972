// Package portal implements the Grid portal substrate of paper §3–4: a web
// server that authenticates browser users with the MyProxy user identity +
// pass phrase, retrieves a delegated proxy from the repository on login
// (Fig. 3), maps the credential to the browser session, acts on the Grid
// (job submission, storage) with it, and deletes it on logout.
package portal

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/pki"
)

// Session binds a web session to a delegated user credential (paper §5.2:
// "it is the portal's responsibility to ... map the credentials to the
// user's web session").
type Session struct {
	Token      string
	Username   string
	Identity   string // Grid DN the credential authenticates as
	Credential *pki.Credential
	Created    time.Time
	Expires    time.Time
}

// Sessions tracks live portal sessions.
type Sessions struct {
	mu       sync.Mutex
	byToken  map[string]*Session //myproxy:guardedby mu
	now      func() time.Time
	lifetime time.Duration
}

// NewSessions builds a session table. lifetime bounds a session even if
// the underlying credential lives longer; 0 selects 8 hours.
func NewSessions(lifetime time.Duration, now func() time.Time) *Sessions {
	if lifetime <= 0 {
		lifetime = 8 * time.Hour
	}
	if now == nil {
		now = time.Now
	}
	return &Sessions{
		byToken:  make(map[string]*Session),
		now:      now,
		lifetime: lifetime,
	}
}

// Create registers a new session for the credential. The session expires
// at the earlier of the session lifetime and the credential expiry (paper
// §4.3: "If a user forgets to log off, then the credential will expire at
// the lifetime specified").
func (s *Sessions) Create(username, identity string, cred *pki.Credential) (*Session, error) {
	tokenBytes := make([]byte, 24)
	if _, err := io.ReadFull(rand.Reader, tokenBytes); err != nil {
		return nil, fmt.Errorf("portal: session token: %w", err)
	}
	now := s.now()
	expires := now.Add(s.lifetime)
	if cred != nil && cred.Certificate.NotAfter.Before(expires) {
		expires = cred.Certificate.NotAfter
	}
	sess := &Session{
		Token:      hex.EncodeToString(tokenBytes),
		Username:   username,
		Identity:   identity,
		Credential: cred,
		Created:    now,
		Expires:    expires,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byToken[sess.Token] = sess
	return sess, nil
}

// ErrNoSession is returned for missing or expired sessions.
var ErrNoSession = errors.New("portal: no such session")

// Lookup resolves a token, expiring sessions lazily.
func (s *Sessions) Lookup(token string) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.byToken[token]
	if !ok {
		return nil, ErrNoSession
	}
	if s.now().After(sess.Expires) {
		scrubSession(sess)
		delete(s.byToken, token)
		return nil, ErrNoSession
	}
	return sess, nil
}

// scrubSession wipes the delegated private key before a session is dropped.
// Deleting the map entry alone leaves the key words intact on the heap until
// the allocator reuses them; the paper's "deletes the user's delegated
// credential" (§4.3) is taken at the memory level, not just the table level.
func scrubSession(sess *Session) {
	if sess.Credential != nil {
		pki.WipeSigner(sess.Credential.PrivateKey)
		sess.Credential = nil
	}
}

// Destroy logs a session out, dropping its credential (paper §4.3: "the
// operation of logging out of the portal deletes the user's delegated
// credential on the portal").
func (s *Sessions) Destroy(token string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.byToken[token]; ok {
		scrubSession(sess)
		delete(s.byToken, token)
	}
}

// Sweep removes expired sessions; returns how many were dropped.
func (s *Sessions) Sweep() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	dropped := 0
	for token, sess := range s.byToken {
		if now.After(sess.Expires) {
			scrubSession(sess)
			delete(s.byToken, token)
			dropped++
		}
	}
	return dropped
}

// sweepEvery runs Sweep on every tick until stop is closed: the owner that
// enforces session expiry when no request arrives to trip Lookup's.
func (s *Sessions) sweepEvery(tick <-chan time.Time, stop <-chan struct{}) {
	for {
		select {
		case <-tick:
			s.Sweep()
		case <-stop:
			return
		}
	}
}

// Len reports live sessions.
func (s *Sessions) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byToken)
}

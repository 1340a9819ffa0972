package core

import (
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/credstore"
	"repro/internal/gsi"
	"repro/internal/proxy"
)

// Server is a MyProxy repository server (paper §4).
type Server struct {
	cfg ServerConfig
	// svc makes every repository decision; this type is its MYPROXYv2
	// front-end (listener, TLS, sessions, the request codecs).
	svc *Service

	// tlsCfg is shared across all accepted connections so TLS session
	// tickets resume (the ticket keys live in the config); verifyCache
	// memoizes client chain verifications across connections.
	tlsCfg      *tls.Config
	verifyCache *proxy.VerifyCache

	// sem, when non-nil, caps concurrently served connections
	// (cfg.MaxConcurrent); the accept loop blocks on it — backpressure
	// rather than unbounded goroutine pileup.
	sem chan struct{}

	mu        sync.Mutex
	listeners map[net.Listener]struct{} //myproxy:guardedby mu
	active    map[net.Conn]struct{}     //myproxy:guardedby mu
	conns     sync.WaitGroup
	closed    bool //myproxy:guardedby mu
	// quit is closed (under mu) to broadcast shutdown; receives are
	// deliberately lock-free — the channel is its own synchronization.
	quit chan struct{}
}

// Stats counts repository operations; all fields are updated atomically.
// A Stats may also be shared with a Client (Client.Stats), in which case the
// client-side resilience counters (Retries, Ambiguous) are populated too.
type Stats struct {
	Connections      atomic.Int64
	AuthFailures     atomic.Int64
	Puts             atomic.Int64
	Gets             atomic.Int64
	Infos            atomic.Int64
	Destroys         atomic.Int64
	PassphraseChange atomic.Int64
	Stores           atomic.Int64
	Retrieves        atomic.Int64
	Errors           atomic.Int64

	// Sessions counts multiplexed sessions opened (SESSION command);
	// Streams counts exchanges served on session streams (these operations
	// also count in their per-command counters above).
	Sessions atomic.Int64
	Streams  atomic.Int64

	// Resilience counters.
	// Timeouts counts sessions evicted by a per-message I/O deadline
	// (stalled peers, slowloris clients).
	Timeouts atomic.Int64
	// DrainRefusals counts connections refused because the server was
	// draining (shutdown in progress) or gave up waiting for a slot.
	DrainRefusals atomic.Int64
	// ForcedCloses counts in-flight sessions cut off when the drain
	// timeout expired.
	ForcedCloses atomic.Int64
	// Retries counts retry attempts made by a Client sharing this Stats.
	Retries atomic.Int64
	// Ambiguous counts mutations whose outcome was left unknown by a
	// transport failure (surfaced, never blindly retried).
	Ambiguous atomic.Int64
}

// Snapshot returns a plain-value copy for reporting.
func (s *Stats) Snapshot() map[string]int64 {
	return map[string]int64{
		"connections":       s.Connections.Load(),
		"auth_failures":     s.AuthFailures.Load(),
		"puts":              s.Puts.Load(),
		"gets":              s.Gets.Load(),
		"infos":             s.Infos.Load(),
		"destroys":          s.Destroys.Load(),
		"passphrase_change": s.PassphraseChange.Load(),
		"stores":            s.Stores.Load(),
		"retrieves":         s.Retrieves.Load(),
		"errors":            s.Errors.Load(),
		"sessions":          s.Sessions.Load(),
		"streams":           s.Streams.Load(),
		"timeouts":          s.Timeouts.Load(),
		"drain_refusals":    s.DrainRefusals.Load(),
		"forced_closes":     s.ForcedCloses.Load(),
		"retries":           s.Retries.Load(),
		"ambiguous":         s.Ambiguous.Load(),
	}
}

// NewServer validates the configuration and builds a server.
func NewServer(cfg ServerConfig) (*Server, error) {
	svc, err := NewService(cfg)
	if err != nil {
		return nil, err
	}
	tlsCfg, err := gsi.NewServerTLSConfig(cfg.Credential)
	if err != nil {
		return nil, err
	}
	verifyCache := cfg.VerifyCache
	if verifyCache == nil {
		verifyCache = proxy.NewVerifyCache(0)
	}
	s := &Server{
		cfg:         svc.cfg,
		svc:         svc,
		tlsCfg:      tlsCfg,
		verifyCache: verifyCache,
		listeners:   make(map[net.Listener]struct{}),
		active:      make(map[net.Conn]struct{}),
		quit:        make(chan struct{}),
	}
	if cfg.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	if cfg.PurgeInterval > 0 {
		go s.sweep(cfg.PurgeInterval)
	}
	if cfg.StatsFile != "" {
		go s.flushStats()
	}
	return s, nil
}

// sweep periodically removes expired credentials (dead weight and residual
// risk on the repository host, paper §5.1).
func (s *Server) sweep(interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-ticker.C:
			n, err := credstore.PurgeExpired(s.svc.cfg.Store, s.cfg.now(), false)
			if err != nil {
				s.cfg.logf("purge: %v", err)
				continue
			}
			if n > 0 {
				s.cfg.logf("purged %d expired credential(s)", n)
			}
		}
	}
}

// flushStats periodically persists the counter snapshot for offline
// inspection (myproxy-admin stats); a final flush happens in Close.
func (s *Server) flushStats() {
	interval := s.cfg.StatsFlushInterval
	if interval <= 0 {
		interval = 30 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-ticker.C:
			if err := s.svc.stats.WriteFile(s.cfg.StatsFile); err != nil {
				s.cfg.logf("stats flush: %v", err)
			}
		}
	}
}

// Store exposes the backing store (admin tooling, tests).
func (s *Server) Store() credstore.Store { return s.svc.cfg.Store }

// VerifyCache exposes the chain-verification cache (diagnostics, tests).
func (s *Server) VerifyCache() *proxy.VerifyCache { return s.verifyCache }

// SetRevoked atomically replaces the revocation hook — the CRL-reload
// entry point — and invalidates the verification cache so no cached
// verdict predates the new revocation data. The next connection from a
// newly revoked chain is rejected even if its chain was cached or its TLS
// session is resumed.
func (s *Server) SetRevoked(fn func(*x509.Certificate) bool) {
	s.svc.isRevoked.Store(fn)
	s.verifyCache.Invalidate()
}

// Stats exposes the operation counters.
func (s *Server) Stats() *Stats { return &s.svc.stats }

// Identity returns the repository's Grid identity.
func (s *Server) Identity() string { return s.cfg.Credential.Subject() }

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("core: listen %s: %w", addr, err)
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. It always returns a non-nil
// error; after Close the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close() // refusing the listener; close is best-effort
		return net.ErrClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	for {
		raw, err := ln.Accept()
		if err != nil {
			return err
		}
		if !s.acquire(raw) {
			continue
		}
		go func() {
			defer s.release()
			s.handleRaw(raw)
		}()
	}
}

// acquire claims a serving slot for raw, blocking while the server is at
// MaxConcurrent (accept backpressure), and registers the session with the
// drain WaitGroup. It refuses — closing raw and counting a drain refusal —
// when the server shuts down first. The WaitGroup Add happens under mu
// against the closed flag, so Close's Wait can never race a late Add.
func (s *Server) acquire(raw net.Conn) bool {
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
		case <-s.quit:
			s.refuse(raw)
			return false
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if s.sem != nil {
			<-s.sem
		}
		s.refuse(raw)
		return false
	}
	s.conns.Add(1)
	s.mu.Unlock()
	return true
}

func (s *Server) release() {
	if s.sem != nil {
		<-s.sem
	}
	s.conns.Done()
}

func (s *Server) refuse(raw net.Conn) {
	s.svc.stats.DrainRefusals.Add(1)
	s.cfg.logf("refused connection from %v: server draining", raw.RemoteAddr())
	_ = raw.Close() // refusing the peer; close is best-effort
}

// track registers an in-flight connection so a drain timeout can cut it off.
func (s *Server) track(raw net.Conn) {
	s.mu.Lock()
	s.active[raw] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrack(raw net.Conn) {
	s.mu.Lock()
	delete(s.active, raw)
	s.mu.Unlock()
}

// Close stops accepting (new connections are refused), lets in-flight
// sessions drain for up to DrainTimeout (indefinitely when 0), then
// force-closes stragglers. It also stops the purge sweeper and flushes the
// stats file.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.quit)
	}
	for ln := range s.listeners {
		if err := ln.Close(); err != nil {
			s.cfg.logf("close listener: %v", err)
		}
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.conns.Wait()
		close(drained)
	}()
	if s.cfg.DrainTimeout > 0 {
		timer := time.NewTimer(s.cfg.DrainTimeout)
		defer timer.Stop()
		select {
		case <-drained:
		case <-timer.C:
			s.mu.Lock()
			for raw := range s.active {
				s.svc.stats.ForcedCloses.Add(1)
				s.cfg.logf("drain timeout: force-closing session with %v", raw.RemoteAddr())
				_ = raw.Close() // cutting the session off; close is best-effort
			}
			s.mu.Unlock()
			<-drained
		}
	} else {
		<-drained
	}
	if s.cfg.StatsFile != "" {
		if err := s.svc.stats.WriteFile(s.cfg.StatsFile); err != nil {
			s.cfg.logf("stats flush: %v", err)
		}
	}
	return nil
}

// handleRaw authenticates and serves one client session.
func (s *Server) handleRaw(raw net.Conn) {
	defer func() {
		if r := recover(); r != nil {
			s.svc.stats.Errors.Add(1)
			s.cfg.logf("panic serving %v: %v", raw.RemoteAddr(), r)
			_ = raw.Close() // session is already broken; close is best-effort
		}
	}()
	s.track(raw)
	defer s.untrack(raw)
	timeout := s.cfg.RequestTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	msgTimeout := s.cfg.MessageTimeout
	if msgTimeout <= 0 || msgTimeout > timeout {
		msgTimeout = timeout
	}
	conn, err := gsi.Server(raw, s.cfg.Credential, gsi.AuthOptions{
		Roots:            s.cfg.Roots,
		MaxDepth:         s.cfg.MaxChainDepth,
		IsRevoked:        s.svc.revocationHook(),
		HandshakeTimeout: msgTimeout,
		Cache:            s.verifyCache,
		TLSConfig:        s.tlsCfg,
	})
	if err != nil {
		s.svc.stats.AuthFailures.Add(1)
		s.cfg.logf("authentication failed from %v: %v", raw.RemoteAddr(), err)
		return
	}
	defer conn.Close()
	s.svc.stats.Connections.Add(1)
	// Per-message deadlines inside the session cap (slowloris guard): each
	// message must complete within msgTimeout, the session within timeout.
	conn.SetSessionDeadline(time.Now().Add(timeout))
	conn.SetMessageTimeout(msgTimeout)
	if err := s.exchange(conn, nil); err != nil {
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			s.svc.stats.Timeouts.Add(1)
			s.cfg.logf("session with %s evicted: message deadline exceeded", conn.PeerIdentity())
			return
		}
		s.svc.stats.Errors.Add(1)
		s.cfg.logf("session with %s: %v", conn.PeerIdentity(), err)
	}
}

// HandleConn serves one pre-established raw connection synchronously
// (used by tests and the simulation harness). It obeys the same slot and
// drain rules as accepted connections.
func (s *Server) HandleConn(raw net.Conn) {
	if !s.acquire(raw) {
		return
	}
	defer s.release()
	s.handleRaw(raw)
}

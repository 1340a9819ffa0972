package core

import (
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/credstore"
	"repro/internal/gsi"
	"repro/internal/proxy"
)

// Server is a MyProxy repository server (paper §4): the repository service
// behind the MYPROXYv2 codecs, as the handler of a GSI acceptor (which owns
// the listeners, TLS, authentication, slots and the drain).
type Server struct {
	cfg      ServerConfig
	svc      *Service
	acceptor *gsi.Acceptor
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
	s := &Server{cfg: svc.cfg, svc: svc}
	s.acceptor, err = gsi.NewAcceptor(gsi.AcceptorConfig{
		Credential: cfg.Credential,
		Auth: gsi.AuthOptions{
			Roots:     cfg.Roots,
			MaxDepth:  cfg.MaxChainDepth,
			IsRevoked: svc.revoked,
			Cache:     cfg.VerifyCache,
		},
		SessionTimeout: cfg.RequestTimeout,
		MessageTimeout: cfg.MessageTimeout,
		MaxConcurrent:  cfg.MaxConcurrent,
		DrainTimeout:   cfg.DrainTimeout,
		Handler:        s.serve,
		Event:          s.event,
	})
	if err != nil {
		return nil, err
	}
	if cfg.PurgeInterval > 0 {
		go s.every(cfg.PurgeInterval, s.purge)
	}
	if cfg.StatsFile != "" {
		interval := cfg.StatsFlushInterval
		if interval <= 0 {
			interval = 30 * time.Second
		}
		go s.every(interval, s.flushStats)
	}
	return s, nil
}

// every runs fn on a period until Close begins.
func (s *Server) every(interval time.Duration, fn func()) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.acceptor.Done():
			return
		case <-ticker.C:
			fn()
		}
	}
}

// purge removes expired credentials (dead weight and residual risk on the
// repository host, paper §5.1).
func (s *Server) purge() {
	n, err := credstore.PurgeExpired(s.svc.cfg.Store, s.cfg.now(), false)
	if err != nil {
		s.cfg.logf("purge: %v", err)
	} else if n > 0 {
		s.cfg.logf("purged %d expired credential(s)", n)
	}
}

// flushStats persists the counter snapshot for offline inspection
// (myproxy-admin stats): periodically, and a last time in Close.
func (s *Server) flushStats() {
	if err := s.svc.stats.WriteFile(s.cfg.StatsFile); err != nil {
		s.cfg.logf("stats flush: %v", err)
	}
}

// Store exposes the backing store (admin tooling, tests).
func (s *Server) Store() credstore.Store { return s.svc.cfg.Store }

// VerifyCache exposes the chain-verification cache (diagnostics, tests).
func (s *Server) VerifyCache() *proxy.VerifyCache { return s.acceptor.VerifyCache() }

// SetRevoked atomically replaces the revocation hook — the CRL-reload
// entry point — and invalidates the verification cache so no cached
// verdict predates the new revocation data. The next connection from a
// newly revoked chain is rejected even if its chain was cached or its TLS
// session is resumed.
func (s *Server) SetRevoked(fn func(*x509.Certificate) bool) {
	s.svc.isRevoked.Store(fn)
	s.acceptor.VerifyCache().Invalidate()
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
func (s *Server) Serve(ln net.Listener) error { return s.acceptor.Serve(ln) }

// Close stops accepting (new connections are refused), lets in-flight
// sessions drain for up to DrainTimeout (indefinitely when 0), then
// force-closes stragglers. It also stops the purge sweeper and flushes the
// stats file.
func (s *Server) Close() error {
	err := s.acceptor.Close()
	if s.cfg.StatsFile != "" {
		s.flushStats()
	}
	return err
}

// event keeps the acceptor's reports in the repository's counters and log.
func (s *Server) event(ev gsi.Event, peer net.Addr, err error) {
	switch ev {
	case gsi.EventAuthFailed:
		s.svc.stats.AuthFailures.Add(1)
		s.cfg.logf("authentication failed from %v: %v", peer, err)
	case gsi.EventRefused:
		s.svc.stats.DrainRefusals.Add(1)
		s.cfg.logf("refused connection from %v: server draining", peer)
	case gsi.EventForceClosed:
		s.svc.stats.ForcedCloses.Add(1)
		s.cfg.logf("drain timeout: force-closing session with %v", peer)
	case gsi.EventPanic:
		s.svc.stats.Errors.Add(1)
		s.cfg.logf("panic serving %v: %v", peer, err)
	}
}

// serve runs one authenticated client session.
func (s *Server) serve(conn *gsi.Conn) {
	s.svc.stats.Connections.Add(1)
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

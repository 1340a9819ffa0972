package gsi

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/pki"
	"repro/internal/proxy"
)

// Event classes what an Acceptor reports to the service it serves.
type Event int

const (
	EventAuthFailed  Event = iota + 1 // handshake or peer verification failed; err says why
	EventRefused                      // arrived, or still waited for a slot, after Close began
	EventForceClosed                  // cut off by the drain timeout
	EventPanic                        // the handler panicked; err carries the value
)

// AcceptorConfig configures the accepting half of a GSI service.
type AcceptorConfig struct {
	// Credential is the service's host credential.
	Credential *pki.Credential
	// Auth says how peers are verified: Roots (required), MaxDepth,
	// IsRevoked, Cache. The acceptor fills in the handshake timeout, one TLS
	// configuration for all its connections (so sessions resume) and, when
	// Cache is nil, a verification cache of the default size.
	Auth AuthOptions
	// SessionTimeout bounds one accepted session (0 = DefaultTimeout);
	// MessageTimeout bounds the handshake and each message inside it — the
	// slowloris guard (0, or more than SessionTimeout, = SessionTimeout).
	SessionTimeout, MessageTimeout time.Duration
	// MaxConcurrent caps simultaneously served connections; further accepts
	// wait for a slot — backpressure rather than goroutine pileup. 0 = no cap.
	MaxConcurrent int
	// DrainTimeout bounds Close's wait for in-flight sessions before they
	// are force-closed. 0 waits indefinitely.
	DrainTimeout time.Duration
	// Handler serves one authenticated connection, deadlines armed; the
	// acceptor closes the connection when it returns.
	Handler func(*Conn)
	// Event, when non-nil, is told what happened outside the handler, for
	// the service's counters and log.
	Event func(ev Event, peer net.Addr, err error)
}

// Acceptor is the accepting half of a GSI endpoint: accept, authenticate,
// hand to the service's handler, drain on Close. The repository, GRAM and
// mass storage are each a handler on one.
type Acceptor struct {
	cfg AcceptorConfig
	sem chan struct{} // one token per served connection; nil without a cap

	mu        sync.Mutex
	listeners map[net.Listener]struct{} //myproxy:guardedby mu
	active    map[net.Conn]struct{}     //myproxy:guardedby mu
	conns     sync.WaitGroup
	closed    bool //myproxy:guardedby mu
	// quit is closed (under mu) to broadcast shutdown; receives are
	// deliberately lock-free — the channel is its own synchronization.
	quit chan struct{}
}

// NewAcceptor validates the credential and builds an acceptor.
func NewAcceptor(cfg AcceptorConfig) (*Acceptor, error) {
	tlsCfg, err := NewServerTLSConfig(cfg.Credential)
	if err != nil {
		return nil, err
	}
	cfg.SessionTimeout = orDefault(cfg.SessionTimeout)
	if cfg.MessageTimeout <= 0 || cfg.MessageTimeout > cfg.SessionTimeout {
		cfg.MessageTimeout = cfg.SessionTimeout
	}
	cfg.Auth.HandshakeTimeout, cfg.Auth.TLSConfig = cfg.MessageTimeout, tlsCfg
	if cfg.Auth.Cache == nil {
		cfg.Auth.Cache = proxy.NewVerifyCache(0)
	}
	a := &Acceptor{
		cfg:       cfg,
		listeners: make(map[net.Listener]struct{}),
		active:    make(map[net.Conn]struct{}),
		quit:      make(chan struct{}),
	}
	if cfg.MaxConcurrent > 0 {
		a.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	return a, nil
}

// VerifyCache exposes the cache peers' chains are verified through.
func (a *Acceptor) VerifyCache() *proxy.VerifyCache { return a.cfg.Auth.Cache }

// Done is closed when Close begins, for the service's background work.
func (a *Acceptor) Done() <-chan struct{} { return a.quit }

func (a *Acceptor) report(ev Event, raw net.Conn, err error) {
	if a.cfg.Event != nil {
		a.cfg.Event(ev, raw.RemoteAddr(), err)
	}
}

// Serve accepts connections on ln until Close. It always returns a non-nil
// error; after Close the error is net.ErrClosed.
func (a *Acceptor) Serve(ln net.Listener) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		_ = ln.Close() // refusing the listener; close is best-effort
		return net.ErrClosed
	}
	a.listeners[ln] = struct{}{}
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		delete(a.listeners, ln)
		a.mu.Unlock()
	}()
	for {
		raw, err := ln.Accept()
		if err != nil {
			return err
		}
		if !a.acquire(raw) {
			a.report(EventRefused, raw, nil)
			_ = raw.Close() // refusing the peer; close is best-effort
			continue
		}
		go a.handle(raw)
	}
}

// acquire claims a serving slot, blocking while the acceptor is at
// MaxConcurrent, and registers raw for the drain; it reports false when
// Close comes first. The WaitGroup Add happens under mu against the closed
// flag, so Close's Wait can never race a late Add.
func (a *Acceptor) acquire(raw net.Conn) bool {
	if a.sem != nil {
		select {
		case a.sem <- struct{}{}:
		case <-a.quit:
			return false
		}
	}
	a.mu.Lock()
	ok := !a.closed
	if ok {
		a.conns.Add(1)
		a.active[raw] = struct{}{}
	}
	a.mu.Unlock()
	if !ok && a.sem != nil {
		<-a.sem
	}
	return ok
}

// handle authenticates one accepted connection, runs the handler on it and
// gives its slot back. raw stays registered throughout, so a drain timeout
// can cut it off.
func (a *Acceptor) handle(raw net.Conn) {
	defer func() {
		if r := recover(); r != nil {
			a.report(EventPanic, raw, fmt.Errorf("%v", r))
			_ = raw.Close() // session is already broken; close is best-effort
		}
		a.mu.Lock()
		delete(a.active, raw)
		a.mu.Unlock()
		if a.sem != nil {
			<-a.sem
		}
		a.conns.Done()
	}()
	conn, err := Server(raw, a.cfg.Credential, a.cfg.Auth)
	if err != nil {
		a.report(EventAuthFailed, raw, err)
		return
	}
	defer conn.Close()
	conn.draining = a.quit
	conn.SetSessionDeadline(time.Now().Add(a.cfg.SessionTimeout))
	conn.SetMessageTimeout(a.cfg.MessageTimeout)
	a.cfg.Handler(conn)
}

// Close stops accepting (later arrivals are refused), lets in-flight
// sessions drain for up to DrainTimeout (indefinitely when 0), then
// force-closes stragglers and waits for their handlers to return.
func (a *Acceptor) Close() error {
	a.mu.Lock()
	if !a.closed {
		a.closed = true
		close(a.quit)
	}
	for ln := range a.listeners {
		_ = ln.Close() // Serve returns the Accept error; nothing to add to it
	}
	a.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		a.conns.Wait()
		close(drained)
	}()
	var timeout <-chan time.Time // never fires without a DrainTimeout
	if a.cfg.DrainTimeout > 0 {
		timer := time.NewTimer(a.cfg.DrainTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case <-drained:
	case <-timeout:
		a.mu.Lock()
		for raw := range a.active {
			a.report(EventForceClosed, raw, nil)
			_ = raw.Close() // cutting the session off; close is best-effort
		}
		a.mu.Unlock()
		<-drained
	}
	return nil
}

// Refuse answers a peer the service will not serve. It takes the peer's
// pending request off the wire first — bounded by the deadline already
// armed — and only then writes reply and closes: closing on a peer that is
// still writing its request resets the connection, and the peer sees a
// broken pipe where the refusal should have been.
func (c *Conn) Refuse(reply []byte) error {
	defer c.Close()
	_, _ = c.ReadMessage() // whatever came, or nothing by the deadline: the refusal follows
	return c.WriteMessage(reply)
}

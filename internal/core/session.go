package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/gsi"
	"repro/internal/pki"
	"repro/internal/protocol"
	"repro/internal/resilience"
)

// Session is a Repository over one held connection: the client's seven
// operations (Put, Get, Info, Destroy, ChangePassphrase, Store, Retrieve —
// the same bodies Client runs) each take one stream of a multiplexed
// session (the SESSION command) instead of a connection of their own. A
// long-lived caller — a portal, a cluster client's node — pays one TCP+TLS
// handshake for the session instead of one per operation, and the server
// unseals a credential once per session; concurrent operations pipeline on
// the one connection.
//
// The session heals itself. It is dialed by the first operation that needs
// it, under that operation's context and timeout, and then lives on beyond
// them: until Close, the server's session cap, or a fault. An operation that
// finds the held session already dead dials a new one as part of the same
// attempt — not a retry, nothing was sent. A fault during an operation is
// classified exactly as on a connection of its own: before a mutation's
// commit window it is retryable under the client's Retry policy (on a fresh
// session), inside it it is *resilience.AmbiguousError and never replayed.
// That includes a request written just as the server closes an idle session:
// it is indistinguishable from a lost confirmation.
//
// Against a server that predates sessions (or has them disabled), the
// hello is answered with an error verdict and the Session degrades: its
// operations fall back to one connection per exchange — same results,
// original cost profile.
type Session struct {
	operations

	// dialing is a one-token lock around (re)dialing: the callers that find
	// the session dead at once share one new connection, and a caller whose
	// context ends while it waits gives up without it. mux is the held
	// session, nil before the first dial and after Close.
	dialing  chan struct{}
	mux      atomic.Pointer[gsi.Session]
	degraded atomic.Bool // the server refused SESSION: one connection per exchange
	closed   atomic.Bool
}

var _ Repository = (*Session)(nil)

// Session returns a Repository that holds one multiplexed connection to c's
// repository, dialed by the first operation. Close it when done.
func (c *Client) Session() *Session {
	s := &Session{dialing: make(chan struct{}, 1)}
	s.operations = operations{c: c, via: s.exchange}
	return s
}

// NewSession is Session with the connection dialed now: ctx governs its
// establishment only, the session lives until Close. Against a server that
// declines session mode it returns a degraded Session (Multiplexed() ==
// false), which holds no connection; Close is safe either way.
func (c *Client) NewSession(ctx context.Context) (*Session, error) {
	s := c.Session()
	if _, err := s.dial(ctx, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// Multiplexed reports whether the session multiplexes; false means the
// server declined and operations fall back to per-exchange connections.
func (s *Session) Multiplexed() bool { return !s.degraded.Load() }

// Close ends the session and its connection; later operations fail.
func (s *Session) Close() error {
	s.closed.Store(true)
	if mux := s.mux.Swap(nil); mux != nil {
		return mux.Close() // closes the connection below too
	}
	return nil
}

// exchange runs fn on a stream of the held session, under the retry policy;
// on a degraded session, on a connection of its own.
func (s *Session) exchange(ctx context.Context, fn func(gsi.Channel) error) error {
	return s.c.do(ctx, func(ctx context.Context) error {
		st, err := s.open(ctx)
		if err != nil {
			return err
		}
		if st == nil {
			return s.c.dialed(ctx, fn)
		}
		defer st.Close()
		return fn(st)
	})
}

// open returns a stream of the held session for one exchange under ctx,
// dialing first when no live session is held; nil on a degraded session.
func (s *Session) open(ctx context.Context) (*gsi.Stream, error) {
	if s.degraded.Load() {
		return nil, nil
	}
	mux := s.mux.Load()
	if mux != nil {
		// OpenContext fails only on a session that has already ended: a
		// server restart, its session cap, a fault on an earlier stream.
		if st, err := mux.OpenContext(ctx); err == nil {
			return st, nil
		}
	}
	mux, err := s.dial(ctx, mux)
	if mux == nil {
		return nil, err
	}
	return mux.OpenContext(ctx)
}

// dial replaces the held session dead (nil: none yet) with a freshly dialed
// one and returns it, or nil once the server has refused session mode.
// Callers that found the same session dead dial once between them.
func (s *Session) dial(ctx context.Context, dead *gsi.Session) (*gsi.Session, error) {
	select {
	case s.dialing <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.dialing }()
	if s.closed.Load() {
		return nil, resilience.Permanent(gsi.ErrSessionClosed)
	}
	if cur := s.mux.Load(); cur != dead || s.degraded.Load() {
		return cur, nil
	}
	conn, err := s.c.connect(ctx)
	if err != nil {
		return nil, err
	}
	// The hello carries no operation; USERNAME is required by the message
	// format, so the placeholder "-" goes on the wire.
	hello := &protocol.Request{Command: protocol.CmdSession, Username: "-"}
	if _, err := s.c.roundTrip(conn, hello, ""); err != nil {
		_ = conn.Close() // single-purpose conn; close is best-effort
		if protocol.IsServerVerdict(err) {
			// "Unsupported command" from a legacy server or "session mode
			// not supported" from a configured refusal: downgrade cleanly.
			s.degraded.Store(true)
			return nil, nil
		}
		return nil, err
	}
	mux, err := conn.Multiplex()
	if err != nil {
		return nil, err
	}
	s.mux.Store(mux)
	if s.closed.Load() {
		// Close ran while this dial was under way, and may have swapped
		// mux out before it was stored.
		_ = s.Close() // closing a gsi.Session cannot fail
		return nil, resilience.Permanent(gsi.ErrSessionClosed)
	}
	return mux, nil
}

// GetBatch pipelines one Get per options entry concurrently over the
// session. creds[i] corresponds to opts[i] and is nil where that exchange
// failed; the returned error joins all per-exchange failures.
func (s *Session) GetBatch(ctx context.Context, opts []GetOptions) ([]*pki.Credential, error) {
	creds := make([]*pki.Credential, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	for i := range opts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cred, err := s.Get(ctx, opts[i])
			creds[i] = cred
			if err != nil {
				errs[i] = fmt.Errorf("get %q/%q: %w", opts[i].Username, opts[i].CredName, err)
			}
		}(i)
	}
	wg.Wait()
	return creds, errors.Join(errs...)
}

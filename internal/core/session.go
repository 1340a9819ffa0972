package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/gsi"
	"repro/internal/pki"
	"repro/internal/protocol"
)

// Session is a client-side multiplexed session: one authenticated
// connection carrying many pipelined protocol exchanges (the SESSION
// command). A portal that needs N delegations per page load pays one
// TCP+TLS handshake instead of N — the dominant cost in the paper's
// Fig. 2 exchange once key generation is pooled.
//
// Against a server that predates sessions (or has them disabled), the
// hello is answered with an error verdict and NewSession returns a
// degraded Session whose operations transparently fall back to one
// connection per exchange — same results, original cost profile.
type Session struct {
	c *Client
	// mux is nil in a degraded session.
	mux *gsi.Session
}

// NewSession opens a multiplexed session with the repository. The context
// governs both establishment and the session's lifetime: cancelling it
// aborts in-flight streams. Always Close a non-degraded session; a
// degraded one (Multiplexed() == false) holds no connection but Close is
// safe either way.
func (c *Client) NewSession(ctx context.Context) (*Session, error) {
	conn, err := c.connect(ctx)
	if err != nil {
		return nil, err
	}
	// The hello carries no operation; USERNAME is required by the message
	// format, so the placeholder "-" goes on the wire.
	hello := &protocol.Request{Command: protocol.CmdSession, Username: "-"}
	if _, err := c.roundTrip(conn, hello, ""); err != nil {
		_ = conn.Close() // single-purpose conn; close is best-effort
		if protocol.IsServerVerdict(err) {
			// "Unsupported command" from a legacy server or "session mode
			// not supported" from a configured refusal: downgrade cleanly.
			return &Session{c: c}, nil
		}
		return nil, err
	}
	mux, err := conn.Multiplex()
	if err != nil {
		return nil, err
	}
	return &Session{c: c, mux: mux}, nil
}

// Multiplexed reports whether the session actually multiplexes; false
// means the server declined and operations fall back to per-exchange
// connections.
func (s *Session) Multiplexed() bool { return s.mux != nil }

// Close ends the session and its connection.
func (s *Session) Close() error {
	if s.mux == nil {
		return nil
	}
	return s.mux.Close() // closes the connection below too
}

// Get retrieves a delegated proxy credential over the session (one stream;
// paper Fig. 2 without the handshake). Concurrent Gets pipeline on the one
// connection. On a degraded session this is exactly Client.Get.
func (s *Session) Get(ctx context.Context, opts GetOptions) (*pki.Credential, error) {
	if s.mux == nil {
		return s.c.Get(ctx, opts)
	}
	var cred *pki.Credential
	err := answering(&opts.OTP, opts.OTPSecret, func() error {
		st, err := s.mux.Open()
		if err != nil {
			return err
		}
		defer st.Close()
		cred, err = s.c.getOn(st, opts)
		return err
	})
	return cred, err
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

// Info lists stored credentials over the session (see Client.Info).
func (s *Session) Info(ctx context.Context, username, passphrase string) ([]protocol.CredInfo, error) {
	if s.mux == nil {
		return s.c.Info(ctx, username, passphrase)
	}
	st, err := s.mux.Open()
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return s.c.infoOn(st, username, passphrase)
}

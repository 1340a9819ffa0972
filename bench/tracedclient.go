package main

import (
	"context"
	"crypto/tls"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gsi"
	"repro/internal/pki"
	"repro/internal/protocol"
	"repro/internal/proxy"
)

// clientTimeout bounds one client attempt, as core.Client's default does.
const clientTimeout = 30 * time.Second

// tracedClient is the four exchanges the workloads issue, composed here
// from the same exported pieces core.Client composes them from, with a
// span around each call into a layer. It exists because core.Client has no
// seam between its phases; TestTracedClientParity keeps the two in step.
// Under a context that carries no span every operation is the embedded
// core.Client's own, so one deployment serves untraced and traced phases.
// The embedded core.Client supplies the configuration (and the three
// operations no workload issues, so that the type is a core.Repository the
// cluster client can route to). Like core.Client it keeps one TLS session
// cache and one chain-verification cache for its lifetime: a long-lived
// tracedClient resumes sessions, a fresh one pays the full handshake.
type tracedClient struct {
	*core.Client
	t *tracer

	once    sync.Once
	tlsCfg  *tls.Config
	cache   *proxy.VerifyCache
	initErr error
}

// connect dials and authenticates one connection under a gsi.dial span.
func (c *tracedClient) connect(ctx context.Context, parent spanRef) (conn *gsi.Conn, err error) {
	sp := c.t.start(parent, spDial)
	defer func() { sp.end(err) }()
	c.once.Do(func() {
		c.tlsCfg, c.initErr = gsi.NewClientTLSConfig(c.Credential, tls.NewLRUClientSessionCache(0))
		c.cache = proxy.NewVerifyCache(0)
	})
	if c.initErr != nil {
		return nil, c.initErr
	}
	raw, err := c.DialContext(ctx, "tcp", c.Addr)
	if err != nil {
		return nil, fmt.Errorf("bench: dial %s: %w", c.Addr, err)
	}
	conn, err = gsi.Client(raw, c.Credential, gsi.AuthOptions{
		Roots:            c.Roots,
		ExpectedPeer:     c.ExpectedServer,
		HandshakeTimeout: clientTimeout,
		Cache:            c.cache,
		TLSConfig:        c.tlsCfg,
	})
	if err != nil {
		_ = raw.Close() // gsi.Client leaves raw open on a failed handshake
		return nil, err
	}
	if err := conn.SetDeadline(time.Now().Add(clientTimeout)); err != nil {
		_ = conn.Close() // already failing
		return nil, err
	}
	if conn.Resumed {
		sp.s.resumed = true
		c.t.resumed.Add(1)
	}
	return conn, nil
}

// roundTrip sends req and reads the verdict.
func roundTrip(ch gsi.Channel, req *protocol.Request) (*protocol.Response, error) {
	data, err := protocol.MarshalRequest(req)
	if err != nil {
		return nil, err
	}
	if err := ch.WriteMessage(data); err != nil {
		return nil, err
	}
	return readVerdict(ch)
}

func readVerdict(ch gsi.Channel) (*protocol.Response, error) {
	data, err := ch.ReadMessage()
	if err != nil {
		return nil, fmt.Errorf("bench: read response: %w", err)
	}
	resp, err := protocol.ParseResponse(data)
	if err != nil {
		return nil, err
	}
	return resp, resp.Err()
}

// Get is core.Client.Get with a span per phase.
func (c *tracedClient) Get(ctx context.Context, opts core.GetOptions) (*pki.Credential, error) {
	parent, traced := spanFrom(ctx)
	if !traced {
		return c.Client.Get(ctx, opts)
	}
	conn, err := c.connect(ctx, parent)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return c.getOn(conn, parent, opts)
}

// getOn runs the GET exchange on an open channel: a whole connection, or
// one stream of a session.
func (c *tracedClient) getOn(ch gsi.Channel, parent spanRef, opts core.GetOptions) (*pki.Credential, error) {
	sp := c.t.start(parent, spGetRequest)
	_, err := roundTrip(ch, &protocol.Request{
		Command: protocol.CmdGet, Username: opts.Username, Passphrase: opts.Passphrase, Lifetime: opts.Lifetime,
	})
	sp.end(err)
	if err != nil {
		return nil, err
	}
	sp = c.t.start(parent, spGetDelegation)
	cred, err := gsi.RequestDelegationFrom(ch, c.KeySource, pki.KeySpec{Algorithm: c.KeyAlgorithm, Bits: c.KeyBits}, c.Roots)
	sp.end(err)
	if err != nil {
		return nil, fmt.Errorf("bench: receive delegation: %w", err)
	}
	sp = c.t.start(parent, spGetFinal)
	_, err = readVerdict(ch)
	sp.end(err)
	if err != nil {
		return nil, err
	}
	return cred, nil
}

// Put is core.Client.Put with a span per phase.
func (c *tracedClient) Put(ctx context.Context, opts core.PutOptions) error {
	parent, traced := spanFrom(ctx)
	if !traced {
		return c.Client.Put(ctx, opts)
	}
	conn, err := c.connect(ctx, parent)
	if err != nil {
		return err
	}
	defer conn.Close()
	keyAlg := ""
	if c.KeyAlgorithm != pki.AlgRSA {
		keyAlg = c.KeyAlgorithm.String()
	}
	sp := c.t.start(parent, spPutRequest)
	_, err = roundTrip(conn, &protocol.Request{
		Command: protocol.CmdPut, Username: opts.Username, Passphrase: opts.Passphrase,
		Lifetime: opts.Lifetime, KeyAlg: keyAlg,
	})
	sp.end(err)
	if err != nil {
		return err
	}
	sp = c.t.start(parent, spPutDelegation)
	_, err = gsi.Delegate(conn, c.Credential, proxy.Options{Type: c.ProxyType, Lifetime: opts.Lifetime})
	sp.end(err)
	if err != nil {
		return fmt.Errorf("bench: delegate to repository: %w", err)
	}
	sp = c.t.start(parent, spPutFinal)
	_, err = readVerdict(conn)
	sp.end(err)
	return err
}

// request runs a one-request, one-verdict exchange (INFO, DESTROY).
func (c *tracedClient) request(ctx context.Context, parent spanRef, req *protocol.Request) (*protocol.Response, error) {
	conn, err := c.connect(ctx, parent)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	sp := c.t.start(parent, spRequest)
	resp, err := roundTrip(conn, req)
	sp.end(err)
	return resp, err
}

// Info is core.Client.Info under spans.
func (c *tracedClient) Info(ctx context.Context, username, passphrase string) ([]protocol.CredInfo, error) {
	parent, traced := spanFrom(ctx)
	if !traced {
		return c.Client.Info(ctx, username, passphrase)
	}
	resp, err := c.request(ctx, parent, &protocol.Request{Command: protocol.CmdInfo, Username: username, Passphrase: passphrase})
	if err != nil {
		return nil, err
	}
	return resp.Infos, nil
}

// Destroy is core.Client.Destroy under spans.
func (c *tracedClient) Destroy(ctx context.Context, username, passphrase, credName string) error {
	parent, traced := spanFrom(ctx)
	if !traced {
		return c.Client.Destroy(ctx, username, passphrase, credName)
	}
	_, err := c.request(ctx, parent, &protocol.Request{
		Command: protocol.CmdDestroy, Username: username, Passphrase: passphrase, CredName: credName,
	})
	return err
}

// tracedSession is core.Session for the traced client: one authenticated
// connection, one stream per GET.
type tracedSession struct {
	c    *tracedClient
	conn *gsi.Conn
	mux  *gsi.Session
}

// newSession is core.Client.NewSession for the traced client.
func (c *tracedClient) newSession(ctx context.Context) (*tracedSession, error) {
	conn, err := c.connect(ctx, spanRef{})
	if err != nil {
		return nil, err
	}
	if _, err := roundTrip(conn, &protocol.Request{Command: protocol.CmdSession, Username: "-"}); err != nil {
		_ = conn.Close() // already failing
		return nil, err
	}
	conn.SetMessageTimeout(clientTimeout)
	mux := gsi.NewClientSession(conn)
	if err := conn.SetDeadline(time.Time{}); err != nil {
		_ = mux.Close() // already failing; closes conn too
		return nil, fmt.Errorf("bench: lift session deadline: %w", err)
	}
	return &tracedSession{c: c, conn: conn, mux: mux}, nil
}

func (s *tracedSession) Get(ctx context.Context, opts core.GetOptions) (*pki.Credential, error) {
	parent, _ := spanFrom(ctx)
	sp := s.c.t.start(parent, spStream)
	st, err := s.mux.Open()
	if err != nil {
		sp.end(err)
		return nil, err
	}
	cred, err := s.c.getOn(st, sp.ref(), opts)
	_ = st.Close() // releasing a stream cannot fail
	sp.end(err)
	return cred, err
}

func (s *tracedSession) Close() error {
	return s.mux.Close() // closes the connection below too
}

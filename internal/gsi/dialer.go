package gsi

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/pki"
	"repro/internal/proxy"
)

// Dialer is the initiating half of a GSI endpoint: dial, authenticate the
// peer, arm the deadline. The repository, GRAM and mass-storage clients
// supply only their message exchange on top of one. Not to be copied after
// first use.
type Dialer struct {
	// Credential authenticates this side; Roots are the CAs trusted to have
	// issued the peer's. Both are required.
	Credential *pki.Credential
	Roots      *x509.CertPool
	// Addr is the peer's network address; ExpectedPeer optionally pins its
	// identity (DN pattern).
	Addr         string
	ExpectedPeer string
	// Timeout bounds the handshake and each use of a connection
	// (0 = DefaultTimeout).
	Timeout time.Duration
	// DialContext optionally overrides the transport dialer (tests,
	// simulation rigs, fault injection).
	DialContext func(ctx context.Context, network, addr string) (net.Conn, error)

	// auth is built on first use. It carries a TLS session cache, so repeat
	// connections resume instead of full-handshaking, and a chain
	// verification cache, so the peer's unchanged chain is not re-walked;
	// peer verification (revocation included) still runs on every connection.
	once sync.Once
	auth AuthOptions
	err  error
}

// init builds auth on first use.
func (d *Dialer) init() {
	d.once.Do(func() {
		d.auth = AuthOptions{
			Roots:            d.Roots,
			ExpectedPeer:     d.ExpectedPeer,
			HandshakeTimeout: orDefault(d.Timeout),
			Cache:            proxy.NewVerifyCache(0),
		}
		d.auth.TLSConfig, d.err = NewClientTLSConfig(d.Credential, tls.NewLRUClientSessionCache(0))
	})
}

// VerifyCache exposes the cache every connection of the dialer, and every
// stream of one, verifies through: the peer's chain at each handshake, and
// the issuer chains of the delegations it imports.
func (d *Dialer) VerifyCache() *proxy.VerifyCache {
	d.init()
	return d.auth.Cache
}

// connect dials the peer under ctx and authenticates it.
func (d *Dialer) connect(ctx context.Context) (*Conn, error) {
	d.init()
	if d.err != nil {
		return nil, d.err
	}
	var raw net.Conn
	var err error
	if d.DialContext != nil {
		raw, err = d.DialContext(ctx, "tcp", d.Addr)
	} else {
		var nd net.Dialer
		raw, err = nd.DialContext(ctx, "tcp", d.Addr)
	}
	if err != nil {
		return nil, fmt.Errorf("gsi: dial %s: %w", d.Addr, err)
	}
	conn, err := Client(raw, d.Credential, d.auth)
	if err != nil {
		return nil, err
	}
	conn.timeout = d.auth.HandshakeTimeout
	return conn, nil
}

// Dial opens an authenticated connection for one use under ctx: its
// deadline is the earlier of Timeout from now and ctx's own, and cancelling
// ctx wakes any I/O blocked on it until the connection is closed.
func (d *Dialer) Dial(ctx context.Context) (*Conn, error) {
	conn, err := d.connect(ctx)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(conn.timeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	if err := conn.tls.SetDeadline(deadline); err != nil {
		_ = conn.Close() // already failing; close is best-effort
		return nil, err
	}
	if ctx.Done() != nil {
		conn.stop = context.AfterFunc(ctx, func() {
			_ = conn.tls.SetDeadline(time.Unix(1, 0)) // wake any blocked read or write
		})
	}
	return conn, nil
}

// Multiplex turns a dialed connection into the initiating side of a
// multiplexed session that outlives the use it was dialed for. Streams
// inherit the dial's per-use budget as their message timeout; the absolute
// deadline Dial armed and its tie to the dial context would both cut the
// session short, so they are lifted — each stream runs under its own
// exchange's context (Session.OpenContext), and the accepting side's session
// cap bounds the lifetime.
func (c *Conn) Multiplex() (*Session, error) {
	if c.stop != nil && !c.stop() {
		_ = c.Close() // the dial context ended first; close is best-effort
		return nil, errors.New("gsi: dial context done before the session was established")
	}
	c.SetMessageTimeout(c.timeout)
	s := NewClientSession(c)
	if err := c.tls.SetDeadline(time.Time{}); err != nil {
		_ = s.Close() // already failing; closes the connection too
		return nil, fmt.Errorf("gsi: lift session deadline: %w", err)
	}
	return s, nil
}

// Caller holds one connection to a Dialer's peer across request/reply
// exchanges, for the services that speak JSON messages over a session.
type Caller struct {
	Dialer

	mu   sync.Mutex
	conn *Conn //myproxy:guardedby mu
}

// Exchange sends request and decodes the peer's answer into reply, both as
// JSON; between, when non-nil, runs on the connection after the request is
// written (a delegation the request announced). The connection is dialed on
// first use and its deadline re-armed for every exchange — a deadline is
// absolute, the one armed at dial time would fail every later call. One that
// fails mid-exchange is closed, so the peer's session is not left pinned,
// and dropped, so the next exchange dials afresh.
func (c *Caller) Exchange(request, reply any, between func(*Conn) error) error {
	data, err := json.Marshal(request)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		ctx, cancel := context.WithTimeout(context.Background(), orDefault(c.Timeout))
		//myproxy:allow lockcheck mu deliberately serializes the one held connection for a whole exchange; the timeout here and the deadline below bound the hold
		c.conn, err = c.connect(ctx)
		cancel()
		if err != nil {
			return err
		}
	}
	if err = c.conn.tls.SetDeadline(time.Now().Add(c.conn.timeout)); err == nil {
		err = c.conn.WriteMessage(data)
	}
	if err == nil && between != nil {
		err = between(c.conn)
	}
	var msg []byte
	if err == nil {
		msg, err = c.conn.ReadMessage()
	}
	if err != nil {
		_ = c.conn.Close() // already failing; close is best-effort
		c.conn = nil
		return err
	}
	return json.Unmarshal(msg, reply)
}

// Close closes the held connection, if any. The Caller learns of it as of
// any connection that died between exchanges: the next one fails on it and
// drops it, the one after dials afresh.
func (c *Caller) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

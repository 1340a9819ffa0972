// Package faultnet is a deterministic fault-injection layer for net.Conn.
//
// The repository must stay available through the network faults a Grid
// deployment actually sees (paper §3: "a failure denies users access to the
// Grid"): refused connections, mid-handshake resets, stalled peers, partial
// writes. faultnet lets tests script those faults precisely — per
// connection, per byte count — behind the DialContext / listener seams the
// rest of the tree already exposes, so the gsi, core, gram, mss and renewal
// failure paths can all be exercised without flaky timing tricks.
//
// A Script is an ordered list of Plans; each new connection (dialed or
// accepted) consumes the next Plan. Connections beyond the script run
// fault-free, so "fail twice, then succeed" is simply two faulty Plans.
package faultnet

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"
)

// ErrInjectedConnect is the dial error produced by Plan.ConnectError-by-default.
var ErrInjectedConnect = errors.New("faultnet: injected connect failure")

// ErrInjectedReset is returned once a scripted reset point is reached; the
// underlying connection is torn down so the peer observes a real close.
var ErrInjectedReset = errors.New("faultnet: injected connection reset")

// ErrStalled is returned when a stalled read is released by a deadline.
// It reports Timeout() == true like an os-level i/o timeout.
type timeoutError struct{ msg string }

func (e *timeoutError) Error() string   { return e.msg }
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }

// ErrStalled is the timeout error surfaced by stalled reads.
var ErrStalled net.Error = &timeoutError{msg: "faultnet: stalled read timed out"}

// Plan scripts the faults of a single connection. The zero value is a
// fault-free pass-through.
type Plan struct {
	// ConnectError, when non-nil, fails the dial/accept with this error
	// before any connection exists. Use ErrInjectedConnect for a generic
	// refusal.
	ConnectError error
	// ConnectDelay pauses before the connection is handed to the caller
	// (connection latency).
	ConnectDelay time.Duration

	// ReadDelay/WriteDelay pause before every Read/Write (path latency).
	ReadDelay  time.Duration
	WriteDelay time.Duration

	// ResetAfterBytesRead/Written tear the connection down (both
	// directions) once that many total bytes have crossed the respective
	// direction. A reset mid-TLS-handshake or mid-message is scripted by
	// choosing a byte count inside the exchange. 0 disables.
	ResetAfterBytesRead    int
	ResetAfterBytesWritten int

	// MaxWriteChunk, when positive, bounds how many bytes a single Write
	// pushes to the wire; the remainder is written in further chunks
	// (exercising partial-write handling). Combined with
	// ResetAfterBytesWritten it produces a partial write followed by a
	// reset.
	MaxWriteChunk int

	// StallReads, when true, blocks every Read after the first
	// StallAfterReads successful ones until the read deadline expires
	// (returning ErrStalled) or the connection is closed. This is the
	// slowloris client: connected, silent, holding a server slot.
	StallReads      bool
	StallAfterReads int
}

// Script hands out Plans to successive connections. Safe for concurrent use.
type Script struct {
	mu    sync.Mutex
	plans []Plan
	next  int
	taken int
}

// NewScript builds a script from the given per-connection plans.
func NewScript(plans ...Plan) *Script { return &Script{plans: plans} }

// Take consumes and returns the next Plan; connections beyond the script get
// the fault-free zero Plan.
func (s *Script) Take() Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.taken++
	if s.next < len(s.plans) {
		p := s.plans[s.next]
		s.next++
		return p
	}
	return Plan{}
}

// Consumed reports how many connections have taken a plan.
func (s *Script) Consumed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.taken
}

// Dialer injects faults on outbound connections. It plugs into the
// DialContext seams of core.Client, gram.Client and mss.Client.
type Dialer struct {
	// Script supplies one Plan per dial; nil dials fault-free.
	Script *Script
	// Base performs the real dial; nil selects a net.Dialer.
	Base func(ctx context.Context, network, addr string) (net.Conn, error)
}

// DialContext dials through the script's next Plan.
func (d *Dialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	var plan Plan
	if d.Script != nil {
		plan = d.Script.Take()
	}
	if plan.ConnectError != nil {
		return nil, plan.ConnectError
	}
	if plan.ConnectDelay > 0 {
		t := time.NewTimer(plan.ConnectDelay)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	base := d.Base
	if base == nil {
		var nd net.Dialer
		base = nd.DialContext
	}
	raw, err := base(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return WrapConn(raw, plan), nil
}

// Listener injects faults on accepted connections.
type Listener struct {
	net.Listener
	// Script supplies one Plan per accept; nil accepts fault-free.
	Script *Script
}

// Accept applies the script's next Plan to the accepted connection. A
// ConnectError plan closes the connection immediately (the caller keeps
// accepting), modeling a server-side refusal.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		raw, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		var plan Plan
		if l.Script != nil {
			plan = l.Script.Take()
		}
		if plan.ConnectError != nil {
			raw.Close()
			continue
		}
		if plan.ConnectDelay > 0 {
			time.Sleep(plan.ConnectDelay)
		}
		return WrapConn(raw, plan), nil
	}
}

// Handoff is a listener the test feeds by hand: Accept returns what is sent
// on Conns, and keeps doing so after Close — the connection the kernel had
// already queued when the listener went down — until Conns is closed.
type Handoff struct {
	Conns chan net.Conn
	// Accepting is closed on the first Accept: whoever serves the listener
	// has registered it by then.
	Accepting chan struct{}
	once      sync.Once
}

// NewHandoff builds an empty hand-fed listener.
func NewHandoff() *Handoff {
	return &Handoff{Conns: make(chan net.Conn), Accepting: make(chan struct{})}
}

// Accept blocks for the next hand-fed connection.
func (h *Handoff) Accept() (net.Conn, error) {
	h.once.Do(func() { close(h.Accepting) })
	c, ok := <-h.Conns
	if !ok {
		return nil, net.ErrClosed
	}
	return c, nil
}

// Close is a no-op: only closing Conns ends Accept.
func (h *Handoff) Close() error { return nil }

// Addr reports a placeholder address.
func (h *Handoff) Addr() net.Addr { return &net.UnixAddr{Name: "handoff", Net: "pipe"} }

// Conn wraps a net.Conn and applies one Plan.
type Conn struct {
	net.Conn
	plan Plan

	mu           sync.Mutex
	bytesRead    int
	bytesWritten int
	reads        int
	closed       chan struct{}
	closeOnce    sync.Once
	readDeadline time.Time
}

// WrapConn applies plan to an existing connection.
func WrapConn(raw net.Conn, plan Plan) *Conn {
	return &Conn{Conn: raw, plan: plan, closed: make(chan struct{})}
}

// Stall makes every later Read stall, as if Plan.StallReads had tripped now:
// the link goes silent under a peer that keeps it open.
func (c *Conn) Stall() {
	c.mu.Lock()
	c.plan.StallReads, c.plan.StallAfterReads = true, 0
	c.mu.Unlock()
}

// reset tears down the underlying connection and reports the injected error.
func (c *Conn) reset() error {
	c.closeOnce.Do(func() { close(c.closed) })
	c.Conn.Close()
	return ErrInjectedReset
}

// Close releases any stalled readers and closes the underlying connection.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// SetDeadline tracks the read half for stall release and passes through.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

// SetReadDeadline tracks the deadline for stall release and passes through.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	stall := c.plan.StallReads && c.reads >= c.plan.StallAfterReads
	deadline := c.readDeadline
	c.mu.Unlock()
	if stall {
		return 0, c.stall(deadline)
	}
	if c.plan.ReadDelay > 0 {
		time.Sleep(c.plan.ReadDelay)
	}
	if c.plan.ResetAfterBytesRead > 0 {
		c.mu.Lock()
		remaining := c.plan.ResetAfterBytesRead - c.bytesRead
		c.mu.Unlock()
		if remaining <= 0 {
			return 0, c.reset()
		}
		if len(p) > remaining {
			p = p[:remaining]
		}
	}
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.bytesRead += n
	if err == nil {
		c.reads++
	}
	hitReset := c.plan.ResetAfterBytesRead > 0 && c.bytesRead >= c.plan.ResetAfterBytesRead
	c.mu.Unlock()
	if err == nil && hitReset {
		// Deliver the bytes up to the reset point; the *next* Read resets.
		return n, nil
	}
	return n, err
}

// stall blocks until the connection closes or the read deadline passes.
func (c *Conn) stall(deadline time.Time) error {
	if deadline.IsZero() {
		<-c.closed
		return ErrInjectedReset
	}
	wait := time.Until(deadline)
	if wait <= 0 {
		return ErrStalled
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-c.closed:
		return ErrInjectedReset
	case <-t.C:
		return ErrStalled
	}
}

func (c *Conn) Write(p []byte) (int, error) {
	if c.plan.WriteDelay > 0 {
		time.Sleep(c.plan.WriteDelay)
	}
	total := 0
	for total < len(p) {
		chunk := p[total:]
		if c.plan.MaxWriteChunk > 0 && len(chunk) > c.plan.MaxWriteChunk {
			chunk = chunk[:c.plan.MaxWriteChunk]
		}
		if c.plan.ResetAfterBytesWritten > 0 {
			c.mu.Lock()
			remaining := c.plan.ResetAfterBytesWritten - c.bytesWritten
			c.mu.Unlock()
			if remaining <= 0 {
				return total, c.reset()
			}
			if len(chunk) > remaining {
				chunk = chunk[:remaining]
			}
		}
		n, err := c.Conn.Write(chunk)
		c.mu.Lock()
		c.bytesWritten += n
		c.mu.Unlock()
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

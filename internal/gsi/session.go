package gsi

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/pki"
)

// Multiplexed session mode. A Session carries many concurrent protocol
// exchanges over ONE authenticated connection: each exchange runs on its
// own Stream, and frames from all streams interleave on the wire tagged
// with a stream id (see WriteStreamFrame). This removes the per-operation
// TCP+TLS handshake from the paper's Fig. 2 hot path: a portal that needs
// N delegations pays one handshake and pipelines N exchanges.
//
// Roles are asymmetric, matching the protocol: the initiating side opens
// streams (Open), the accepting side receives them (Accept). A stream is
// opened implicitly by its first frame — no open/ack round trip — so a
// pipelined exchange costs zero extra flights. That frame is also where the
// stream takes its id, so ids are sequential on the wire by construction.
//
// Authentication happens once, at connection setup; revocation must not.
// The accepting side is expected to re-verify the peer chain (Conn's
// Reverify, through a VerifyCache whose hits re-check revocation) before
// serving each accepted stream, so a CRL reload refuses a revoked peer on
// the very next stream of an already-open session.

// ErrSessionClosed is returned by stream and session operations after the
// session has failed or been closed.
var ErrSessionClosed = errors.New("gsi: session closed")

// ErrDraining is returned by Accept once the acceptor that owns the
// connection has begun to close: streams already accepted run to completion,
// no further one is served.
var ErrDraining = errors.New("gsi: acceptor draining")

// Both transports satisfy Channel.
var (
	_ Channel = (*Conn)(nil)
	_ Channel = (*Stream)(nil)
)

// streamInboxSize bounds undelivered frames per stream. The protocol is
// strict request/response per stream, so more than a couple of queued
// frames means the peer is not following it.
const streamInboxSize = 16

// Session multiplexes streams over one authenticated Conn. Safe for
// concurrent use; all streams fail together when the connection does.
type Session struct {
	conn   *Conn
	client bool

	// wmu serializes stream-frame writes from concurrent streams.
	wmu sync.Mutex

	mu      sync.Mutex
	streams map[uint32]*Stream
	nextID  uint32 // initiator: id the next stream takes at its first write
	maxSeen uint32 // acceptor: highest id seen; the next stream is maxSeen+1
	err     error  // first fatal error; set once

	accept chan *Stream
	done   chan struct{}
	// draining is the owning acceptor's shutdown broadcast (nil on a dialed
	// connection): Accept stops handing out streams once it is closed.
	draining <-chan struct{}

	// msgTimeout is inherited by new streams as their per-message read
	// budget (0 = none).
	msgTimeout time.Duration
}

// newSession wires up a session over an authenticated conn and starts the
// read loop. The caller chooses the role: the initiator opens streams, the
// acceptor receives them.
func newSession(conn *Conn, client bool) *Session {
	s := &Session{
		conn:       conn,
		client:     client,
		streams:    make(map[uint32]*Stream),
		nextID:     1,
		accept:     make(chan *Stream, 8),
		done:       make(chan struct{}),
		draining:   conn.draining,
		msgTimeout: conn.msgTimeout,
	}
	// The per-message conn deadline belongs to the single-exchange mode;
	// in mux mode concurrent streams share the transport, so progress is
	// bounded by the absolute session deadline the owner arms instead.
	conn.SetMessageTimeout(0)
	go s.readLoop()
	return s
}

// NewClientSession starts multiplexed mode on the initiating side.
func NewClientSession(conn *Conn) *Session { return newSession(conn, true) }

// NewServerSession starts multiplexed mode on the accepting side.
func NewServerSession(conn *Conn) *Session { return newSession(conn, false) }

// readLoop is the single reader: it routes each incoming frame to its
// stream, creating acceptor-side streams on first sight of a new id.
func (s *Session) readLoop() {
	for {
		id, payload, err := ReadStreamFrame(s.conn.tls, s.conn.maxFrame)
		if err != nil {
			s.fail(fmt.Errorf("gsi: session read: %w", err))
			return
		}
		if err := s.route(id, payload); err != nil {
			s.fail(err)
			return
		}
	}
}

// route delivers one frame. The initiator takes ids in wire order (see
// writeFrame), so the accepting side's next stream is always maxSeen+1: an
// id that skips ahead would leave a never-seen id below the high-water
// mark, and ends the session instead. Frames for ids the local side has
// already released are dropped: with strict request/response streams that
// only happens in benign shutdown races, never as lost protocol state.
func (s *Session) route(id uint32, payload []byte) error {
	s.mu.Lock()
	st, ok := s.streams[id]
	if !ok && !s.client && id > s.maxSeen {
		if id != s.maxSeen+1 {
			s.mu.Unlock()
			return fmt.Errorf("gsi: stream %d opened before stream %d", id, s.maxSeen+1)
		}
		// First frame of a new stream on the accepting side.
		s.maxSeen = id
		st = s.newStream(id)
		s.streams[id] = st
		ok = true
		select {
		case s.accept <- st:
		default:
			s.mu.Unlock()
			return errors.New("gsi: session accept queue overflow")
		}
	}
	s.mu.Unlock()
	if !ok {
		return nil
	}
	select {
	case st.inbox <- payload:
		return nil
	default:
		// The peer pushed past the request/response discipline; a stalled
		// stream must not wedge the shared read loop.
		return fmt.Errorf("gsi: stream %d inbox overflow", id)
	}
}

func (s *Session) newStream(id uint32) *Stream {
	return &Stream{
		s:       s,
		id:      id,
		inbox:   make(chan []byte, streamInboxSize),
		timeout: s.msgTimeout,
		ctx:     context.Background(),
	}
}

// Open starts a new stream (initiating side only). It takes its id, and
// exists on the peer, once its first message is written.
func (s *Session) Open() (*Stream, error) { return s.OpenContext(context.Background()) }

// OpenContext is Open for an exchange that runs under ctx: a read on the
// stream returns once ctx is done. Only that stream is given up — Close
// releases it as usual, the session and its other streams carry on, and
// whatever the peer still sends for it is dropped.
func (s *Session) OpenContext(ctx context.Context) (*Stream, error) {
	if !s.client {
		return nil, errors.New("gsi: accepting side cannot open streams")
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	st := s.newStream(0)
	st.ctx = ctx
	return st, nil
}

// Accept waits for the peer to open a stream (accepting side only). Under
// an acceptor that has begun to close it returns ErrDraining instead: a
// stream that arrives from then on is never served, and fails on the peer
// when the connection closes behind the streams still in flight.
func (s *Session) Accept() (*Stream, error) {
	select {
	case st := <-s.accept:
		return st, nil
	case <-s.done:
		return nil, s.Err()
	case <-s.draining:
		return nil, ErrDraining
	}
}

// writeFrame sends one frame on behalf of a stream, serialized across
// streams. An initiator's stream takes its id here, at its first frame and
// under the write lock, so ids reach the peer in the order they were taken.
// The write deadline is armed per frame so one stalled peer window cannot
// hold the write lock forever.
func (s *Session) writeFrame(st *Stream, payload []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	select {
	case <-s.done:
		return s.Err()
	default:
	}
	if st.id == 0 {
		s.mu.Lock()
		st.id = s.nextID
		s.nextID++
		s.streams[st.id] = st
		s.mu.Unlock()
	}
	if s.msgTimeout > 0 {
		if err := s.conn.tls.SetWriteDeadline(time.Now().Add(s.msgTimeout)); err != nil {
			return fmt.Errorf("gsi: arm stream write deadline: %w", err)
		}
	}
	//myproxy:allow hotblock frames must serialize on wmu by design; the per-frame write deadline above bounds the hold
	if err := WriteStreamFrame(s.conn.tls, st.id, payload); err != nil {
		s.fail(err)
		return err
	}
	return nil
}

// release forgets a stream; later frames for its id are dropped.
func (s *Session) release(id uint32) {
	s.mu.Lock()
	delete(s.streams, id)
	s.mu.Unlock()
}

// fail records the first fatal error, closes the transport, and wakes
// every stream and pending Accept.
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
		close(s.done)
	}
	s.mu.Unlock()
	_ = s.conn.Close() // session already failing; close is best-effort
}

// Done is closed when the session ends, by Close or by a fault.
func (s *Session) Done() <-chan struct{} { return s.done }

// Err returns the error that ended the session (ErrSessionClosed after a
// clean Close), or nil while it is live.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close ends the session and the underlying connection. In-flight stream
// operations return ErrSessionClosed.
func (s *Session) Close() error {
	s.fail(ErrSessionClosed)
	return nil
}

// Stream is one protocol exchange's message pipe within a Session. It
// implements Channel, so delegation and the request handlers run over it
// unchanged. A Stream is used by one exchange at a time.
type Stream struct {
	s  *Session
	id uint32

	inbox chan []byte

	// timeout bounds each ReadMessage (0 = only the session bounds it);
	// ctx, the exchange's own, cuts one short.
	timeout time.Duration
	ctx     context.Context
}

// WriteMessage sends one framed message on this stream.
//
//myproxy:hotpath
func (st *Stream) WriteMessage(payload []byte) error {
	return st.s.writeFrame(st, payload)
}

// ReadMessage receives the next message routed to this stream.
//
//myproxy:hotpath
func (st *Stream) ReadMessage() ([]byte, error) {
	var timeout <-chan time.Time
	if st.timeout > 0 {
		t := time.NewTimer(st.timeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case payload := <-st.inbox:
		return payload, nil
	case <-st.s.done:
		// The read loop routes every frame before it reports the fault that
		// follows it: an answer the peer sent just before hanging up (a
		// drain, the session cap) is in the inbox and is delivered.
		select {
		case payload := <-st.inbox:
			return payload, nil
		default:
			return nil, st.s.Err()
		}
	case <-timeout:
		return nil, fmt.Errorf("gsi: stream %d read timeout after %v", st.id, st.timeout)
	case <-st.ctx.Done():
		return nil, fmt.Errorf("gsi: stream %d read: %w", st.id, st.ctx.Err())
	}
}

// Close releases the stream. The session and its other streams continue.
func (st *Stream) Close() error {
	st.s.release(st.id)
	return nil
}

// LocalCredential returns the session's authenticated credential.
func (st *Stream) LocalCredential() *pki.Credential { return st.s.conn.Local }

// PeerIdentity returns the Grid identity authenticated at session setup.
// Acceptors re-verify the chain per stream; the identity cannot change
// mid-session.
func (st *Stream) PeerIdentity() string { return st.s.conn.PeerIdentity() }

// RemoteAddr reports the session's remote network address.
func (st *Stream) RemoteAddr() net.Addr { return st.s.conn.RemoteAddr() }

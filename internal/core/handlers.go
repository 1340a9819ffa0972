package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/credstore"
	"repro/internal/gsi"
	"repro/internal/pki"
	"repro/internal/protocol"
)

// exchange runs one protocol exchange on an authenticated channel — a
// whole connection, or one stream of a multiplexed session (sc is then the
// session's unseal cache): read a request, parse it, answer it.
//
//myproxy:hotpath
func (s *Server) exchange(ch gsi.Channel, sc *unsealCache) error {
	reqData, err := ch.ReadMessage()
	if err != nil {
		return fmt.Errorf("read request: %w", err)
	}
	req, err := protocol.ParseRequest(reqData)
	if err != nil {
		return s.reject(ch, protocol.ErrorResponse("malformed request: %v", err), err)
	}
	return s.dispatch(ch, req, sc)
}

// reject answers a request the codec cannot dispatch. The fault is counted
// and logged before the answer is written, so a client holding the answer
// finds the counter already moved.
func (s *Server) reject(ch gsi.Channel, resp *protocol.Response, err error) error {
	s.svc.stats.Errors.Add(1)
	s.cfg.logf("request from %s rejected: %v", ch.PeerIdentity(), err)
	_ = s.respond(ch, resp) // the exchange is over either way
	return nil
}

// dispatch routes one parsed request to its codec: each hands the request
// to the repository service and encodes the outcome. The codecs cannot tell
// a connection from a stream beyond the unseal cache; only SESSION can — it
// upgrades a whole connection to pipelined exchanges and is refused inside
// a stream.
//
//myproxy:hotpath
func (s *Server) dispatch(ch gsi.Channel, req *protocol.Request, sc *unsealCache) error {
	peer := ch.PeerIdentity()
	s.cfg.logf("%s %s username=%q cred=%q from %v", peer, req.Command, req.Username, req.CredName, ch.RemoteAddr())

	switch req.Command {
	case protocol.CmdPut:
		// The go-ahead precedes the delegation in which the client signs a
		// proxy for the key generated here. The chain is imported unverified:
		// Service.Put verifies it once, under the repository's full options
		// (revocation, depth bound), and answers a bad one as invalid.
		return s.deliver(ch, s.svc.Put(peer, req, func(spec pki.KeySpec) (*pki.Credential, error) {
			if err := s.respond(ch, protocol.OKResponse()); err != nil {
				return nil, err
			}
			return gsi.RequestDelegationFrom(ch, s.cfg.KeySource, spec, nil)
		}))
	case protocol.CmdGet:
		chain, v := s.svc.Get(peer, req, sc, s.followUp(ch))
		if v != nil {
			return s.deliver(ch, v)
		}
		if err := ch.WriteMessage(chain); err != nil {
			return fmt.Errorf("GET delegation to %s: %w", peer, err)
		}
		return s.deliver(ch, nil)
	case protocol.CmdInfo:
		entries, v := s.svc.Info(peer, req)
		if v != nil {
			return s.deliver(ch, v)
		}
		resp := &protocol.Response{Code: protocol.RespOK, Infos: make([]protocol.CredInfo, len(entries))}
		for i, e := range entries {
			resp.Infos[i] = protocol.CredInfo{
				Name:          e.Name,
				Owner:         e.Owner,
				Description:   e.Description,
				StartTime:     e.NotBefore.UTC(),
				EndTime:       e.NotAfter.UTC(),
				MaxDelegation: e.MaxDelegation,
				Retrievers:    e.Retrievers,
				TaskTags:      e.TaskTags,
			}
		}
		return s.respond(ch, resp)
	case protocol.CmdDestroy:
		return s.deliver(ch, s.svc.Destroy(peer, req))
	case protocol.CmdChangePassphrase:
		return s.deliver(ch, s.svc.ChangePassphrase(peer, req))
	case protocol.CmdStore:
		return s.deliver(ch, s.svc.Store(peer, req, s.followUp(ch)))
	case protocol.CmdRetrieve:
		blob, v := s.svc.Retrieve(peer, req)
		if v != nil {
			return s.deliver(ch, v)
		}
		return s.respond(ch, &protocol.Response{Code: protocol.RespOK, Blob: blob})
	case protocol.CmdSession:
		if conn, ok := ch.(*gsi.Conn); ok {
			return s.serveMultiplexed(conn)
		}
		return s.reject(ch, protocol.ErrorResponse("SESSION not valid here"), errors.New("nested SESSION request"))
	default:
		return s.reject(ch, protocol.ErrorResponse("unsupported command %s", req.Command),
			fmt.Errorf("unsupported command %d", int(req.Command)))
	}
}

func (s *Server) respond(ch gsi.Channel, resp *protocol.Response) error {
	return ch.WriteMessage(protocol.MarshalResponse(resp))
}

// followUp is how the service obtains the message a GET or STORE continues
// with (the CSR, the blob): send the go-ahead, read the client's answer.
func (s *Server) followUp(ch gsi.Channel) func() ([]byte, error) {
	return func() ([]byte, error) {
		if err := s.respond(ch, protocol.OKResponse()); err != nil {
			return nil, err
		}
		return ch.ReadMessage()
	}
}

// deliver encodes the service's answer to a request that ships no material:
// OK, an OTP challenge, or the verdict's public text. A verdict that is a
// fault is also returned, for the connection's error accounting.
func (s *Server) deliver(ch gsi.Channel, v *Verdict) error {
	if v == nil {
		return s.respond(ch, protocol.OKResponse())
	}
	var err error
	if v.Kind == VerdictOTPRequired {
		err = s.respond(ch, &protocol.Response{Code: protocol.RespAuthRequired, Challenge: v.Challenge})
	} else if v.Public != "" {
		err = s.respond(ch, protocol.ErrorResponse("%s", v.Public))
	}
	if v.Err != nil {
		return v.Err
	}
	return err
}

// --- SESSION: multiplexed pipelined exchanges over one connection ---

// unsealCache is a session-scoped cache of unsealed credentials. The
// streams of one multiplexed session typically repeat the same
// (username, pass phrase) exchange back to back — the pattern session
// mode exists for — and the sealing KDF (deliberately slow, paper §5.1)
// would otherwise dominate every pipelined get. The cache key binds the
// exact sealed bytes to the pass phrase, so a reseal, pass-phrase
// change, or replacement PUT changes the key and misses naturally.
//
// Security posture: every policy gate (ACLs, per-credential retriever
// lists, OTP, expiry, and the per-stream revocation re-check) still runs
// on every stream; only the KDF-and-decrypt step is skipped. Plaintext
// keys live no longer than they would in a client that held the session
// open — the life of one authenticated connection, capped by
// SessionTimeout — and are wiped when the session ends, so §5.1's
// at-rest property is unchanged.
type unsealCache struct {
	mu sync.Mutex
	m  map[[sha256.Size]byte]*pki.Credential
}

func unsealKey(e *credstore.Entry, passphrase []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(e.SealedKey)
	h.Write([]byte{0})
	h.Write(passphrase)
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k
}

// lookup returns the cached unsealed credential, or nil. Nil-receiver
// safe: a single-exchange connection has no cache.
//
//myproxy:hotpath
func (c *unsealCache) lookup(e *credstore.Entry, passphrase []byte) *pki.Credential {
	if c == nil {
		return nil
	}
	// Hash outside the critical section (mirroring add): SHA-256 over the
	// sealed key is the expensive part, and every stream of the session
	// serializes on this mutex.
	k := unsealKey(e, passphrase)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[k]
}

// add caches cred unless another stream raced it in first; it reports
// whether cred is now owned by the cache (and must not be dropped by the
// caller). Nil-receiver safe.
//
//myproxy:hotpath
func (c *unsealCache) add(e *credstore.Entry, passphrase []byte, cred *pki.Credential) bool {
	if c == nil {
		return false
	}
	k := unsealKey(e, passphrase)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; ok {
		return false
	}
	if c.m == nil {
		c.m = make(map[[sha256.Size]byte]*pki.Credential)
	}
	c.m[k] = cred
	return true
}

// wipe zeroizes every cached private key; the session is over.
func (c *unsealCache) wipe() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, cred := range c.m {
		dropKey(cred)
		delete(c.m, k)
	}
}

// serveMultiplexed upgrades the connection to session mode: the client
// opens one stream per protocol exchange and the streams proceed
// concurrently, sharing the single TLS handshake already paid. The peer
// chain is re-verified (through the verify cache, which re-checks
// revocation on every hit and is invalidated by SetRevoked) before each
// stream is served, so a CRL reload refuses a revoked peer on the very
// next operation of an already-open session. When the server begins to
// close, the session takes no further stream, finishes the ones in flight
// and ends — an idle one at once.
//
//myproxy:hotpath
func (s *Server) serveMultiplexed(conn *gsi.Conn) error {
	if s.cfg.DisableSessions {
		// A refusal here is the downgrade signal: the client falls back to
		// one connection per exchange, exactly what a pre-session server's
		// "unsupported command" answer produces.
		return s.respond(conn, protocol.ErrorResponse("session mode not supported"))
	}
	timeout := s.cfg.SessionTimeout
	if timeout <= 0 {
		timeout = 5 * time.Minute
	}
	if err := s.respond(conn, protocol.OKResponse()); err != nil {
		return err
	}
	// Per-message deadlines belong to the one-exchange mode; a session is
	// capped absolutely instead (armDeadline is disarmed by the Session).
	if err := conn.SetDeadline(s.cfg.now().Add(timeout)); err != nil {
		return err
	}
	s.svc.stats.Sessions.Add(1)
	sess := gsi.NewServerSession(conn)
	defer sess.Close()
	sc := &unsealCache{}
	defer sc.wipe()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		st, err := sess.Accept()
		if err != nil {
			// The client closed the connection, the session cap expired or
			// the server is draining — the normal end of a session, not a
			// server fault. The deferred Wait lets in-flight streams finish.
			s.cfg.logf("session with %s ended: %v", conn.PeerIdentity(), err)
			return nil
		}
		if err := conn.Reverify(); err != nil {
			s.svc.stats.AuthFailures.Add(1)
			s.respond(st, protocol.ErrorResponse(deniedMsg))
			return fmt.Errorf("session peer %s no longer authorized: %w", conn.PeerIdentity(), err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer st.Close()
			s.serveStream(st, sc)
		}()
	}
}

// serveStream runs one protocol exchange on one session stream.
//
//myproxy:hotpath
func (s *Server) serveStream(st *gsi.Stream, sc *unsealCache) {
	s.svc.stats.Streams.Add(1)
	if err := s.exchange(st, sc); err != nil {
		s.svc.stats.Errors.Add(1)
		s.cfg.logf("stream with %s: %v", st.PeerIdentity(), err)
	}
}
